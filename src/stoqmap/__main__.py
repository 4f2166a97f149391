"""Run the command-line interface as `python -m stoqmap`."""

from .cli import main

main()
