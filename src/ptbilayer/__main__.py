"""python -m ptbilayer: the command-line interface."""

from .sweep_cli import main

if __name__ == "__main__":
    main()
