"""measura's command line, started as the installed ``measura`` script starts it.

    python3 perfbench/launch.py --command NAME [options]

Imports ``measura.cli``, prints READY (so that run.py can tell start-up and
import from the command's own run), then runs ``measura.cli.main`` on the
arguments and exits with its status.
"""

import sys

import measura.cli

print("READY", flush=True)
raise SystemExit(measura.cli.main(sys.argv[1:]))
