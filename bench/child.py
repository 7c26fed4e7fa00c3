"""Run one conscient-sim command in a fresh process and report its footprint.

Usage: python3 bench/child.py SRC_DIR SUBCOMMAND ARGS...

Imports the package from SRC_DIR, calls `cli.run_command` with the remaining
arguments exactly as the `conscient-sim` console script would, then prints one
JSON line: the exit code, the wall time of `run_command`, and the largest
resident set (ru_maxrss) of this process or of any worker it waited for.
"""

import json
import resource
import sys
import time


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    from conscient_sim.cli import run_command

    t0 = time.perf_counter()
    rc = run_command(sys.argv[2:])
    wall = time.perf_counter() - t0
    maxrss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    print(json.dumps({"rc": rc, "wall_s": wall, "maxrss_kb": maxrss_kb}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
