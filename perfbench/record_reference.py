"""Records the readouts that the correctness gate compares against.

    python3 perfbench/record_reference.py

Answers one round of every workload at full size (the ladder for seeds
0..LADDER_SEEDS-1) and writes perfbench/reference_readouts.json.  Run it only
at a commit whose readouts are trusted: a later run fails every answer that
moves more than 1e-13 away from these.
"""

import json
import os
import shutil
import sys

import run

LADDER_SEEDS = 32


def main() -> int:
    run.prepare_environment()
    run.import_program()
    import workloads
    outdir = run.WORK / f"record-{os.getpid()}"

    def readouts(name, seed):
        results = workloads.make(name, run.ROOT, seed, False, outdir).round()
        bad = [r for r in results if r.error or r.estimate is None]
        if bad:
            raise SystemExit(f"{name} seed {seed}: {bad}")
        return {r.key: [r.estimate.real, r.estimate.imag] for r in results}

    try:
        table = {"configs": readouts("configs", 0), "sweep": readouts("sweep", 0),
                 "ladder": {str(seed): readouts("ladder", seed)
                            for seed in range(LADDER_SEEDS)}}
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.REFERENCE.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
