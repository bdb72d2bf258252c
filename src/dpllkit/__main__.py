"""``python -m dpllkit``: the ``dpllkit`` command line."""

from .cli import entry

if __name__ == "__main__":
    entry()
