"""``python -m pairedk``: the ``pairedk`` command without an install, e.g.

    PYTHONPATH=src python -m pairedk kernel --type paired --a ... --b ...
"""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
