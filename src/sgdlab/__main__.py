"""`python -m sgdlab`: the `sgdlab` command."""

from .cli import main

raise SystemExit(main())
