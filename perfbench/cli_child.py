"""Run one ``oscdamp`` CLI command under the span tracer.

Usage: python3 perfbench/cli_child.py <cli arguments...>

Stdout and the exit code are the CLI's own. After the command, the recorded
spans go to stderr as one JSON line, the last line the process writes.
"""

import json
import sys

import oscdamp.cli
from tracer import Tracer

if __name__ == "__main__":
    with Tracer() as tracer:
        tracer.op = 0
        code = oscdamp.cli.main(sys.argv[1:])
        tracer.op = None
    sys.stdout.flush()
    print(json.dumps(tracer.dump()), file=sys.stderr)
    sys.exit(code)
