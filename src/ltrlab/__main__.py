"""Run the command line as `python -m ltrlab`."""

from .cli import console_entry

console_entry()
