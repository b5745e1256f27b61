"""``python -m ugmt``: the ``ugmt`` command line, run from a checkout or an install."""
from .cli import main

raise SystemExit(main())
