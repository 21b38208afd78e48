"""``python -m apery4``: the ``apery4`` command without an installed script."""
from .cli_report import main

__all__: list[str] = []
if __name__ == "__main__":
    raise SystemExit(main())
