"""``python -m casplit``: the command line of ``casplit.cli``, exiting with
its code."""

import sys

from casplit.cli import main

sys.exit(main())
