"""Write the CLI goldens the fixtures-cli workload compares against.

Usage: python3 perfbench/make_goldens.py

Runs every command of ``workloads.cli_commands()`` once as a fresh process
and stores its stdout as ``goldens/<id>.out`` and its argv and exit code in
``goldens/manifest.json``. Regenerate only for a change that is meant to
alter CLI output, and review the diff of the goldens.
"""

import json
import sys

import procenv

procenv.pin()
sys.path.insert(0, str(procenv.SRC))

from workloads import GOLDENS, cli_commands, run_cli  # noqa: E402


def main() -> int:
    GOLDENS.mkdir(exist_ok=True)
    manifest = {}
    for key, argv in cli_commands().items():
        proc = run_cli(argv, traced=False)
        (GOLDENS / f"{key}.out").write_bytes(proc.stdout)
        manifest[key] = {"argv": list(argv), "exit": proc.returncode}
        print(f"{key}: exit {proc.returncode}, {len(proc.stdout)} bytes")
    (GOLDENS / "manifest.json").write_text(
        json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
