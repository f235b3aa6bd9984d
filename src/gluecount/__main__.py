"""Entry point for ``python -m gluecount``; the same as the ``gluecount`` command."""

from .cli import run

if __name__ == "__main__":
    run()
