"""``python -m unitycert``: the same command line as the ``unitycert`` script."""

from .cli import main

if __name__ == "__main__":
    main()
