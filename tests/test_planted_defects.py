"""The planted-defect table keeps up with refactors: each entry's old text
occurs exactly once in its file, so `planted_defects.py` plants every defect."""

import pytest

from planted_defects import DEFECTS, occurrences


@pytest.mark.parametrize("path,old,new,label", DEFECTS, ids=[d[3] for d in DEFECTS])
def test_old_text_occurs_once(path, old, new, label):
    assert occurrences(path, old) == 1
    assert new != old
