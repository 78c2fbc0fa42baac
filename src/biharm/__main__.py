"""``python -m biharm`` runs the same CLI as the ``biharm`` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
