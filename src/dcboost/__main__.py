"""``python -m dcboost``: the ``dcboost`` command line, runnable from a
source checkout with ``PYTHONPATH=src``."""

from dcboost.cli import entry

if __name__ == "__main__":
    entry()
