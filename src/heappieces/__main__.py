"""`python -m heappieces`: the same command line as the `heappieces` script."""

from .cli import main

if __name__ == "__main__":
    main()
