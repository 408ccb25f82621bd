"""Setup probe: a fresh interpreter imports the program and answers one
cold round of a workload.

run.py starts it as `python3 perfbench/probe.py <workload> <seed> <smoke>`
and waits for it.  The last line of its output is a JSON object with the
monotonic clock at the end of the round (comparable with the parent's, since
both read the system-wide monotonic clock) and the round's answers.
"""

import json
import os
import shutil
import sys
import time

import run


def main(argv) -> int:
    name, seed, smoke = argv[0], int(argv[1]), argv[2] == "1"
    run.prepare_environment()
    run.import_program()
    import workloads
    outdir = run.WORK / f"{name}-{os.getpid()}"
    try:
        results = workloads.make(name, run.ROOT, seed, smoke, outdir).round()
        done = time.monotonic()
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    print(json.dumps({"done": done, "results": [r.as_list() for r in results]}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
