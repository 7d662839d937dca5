"""Run the command line as ``python -m hankel_spectra``."""

from .cli import entry

if __name__ == "__main__":
    entry()
