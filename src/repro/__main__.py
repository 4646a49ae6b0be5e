"""``python -m repro`` entry point."""

import signal
import sys

from repro.cli import main

if __name__ == "__main__":
    status = main()
    # the command has finished: a SIGTERM during interpreter shutdown
    # must not turn its exit status into a kill
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    sys.exit(status)
