"""``python -m fanetq``: the same command line as the ``fanetq`` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
