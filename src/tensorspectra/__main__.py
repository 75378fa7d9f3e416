"""``python -m tensorspectra``: the ``tensor-spectra`` command line."""

from .cli import main

if __name__ == "__main__":
    main()
