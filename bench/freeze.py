"""Freeze the output digests of every catalog op into ``digests.json``.

    python3 bench/freeze.py

Run from the root of a checkout at the commit whose outputs are the
reference.  Every op also runs its independent checks; the file is not
written if one fails.  Prints each op's wall time, which is how the
catalogs were sized.
"""
from __future__ import annotations

import json
import sys
from time import perf_counter

import run
import workloads


def main():
    frozen = {}
    failures = 0
    for workload in workloads.WORKLOADS:
        tg, _ = run.setup(workload, 0)
        for op in workloads.catalog(tg, workload, str(run.SRC), str(run.SCRIPT_DIR)):
            before = run.probe()
            t0 = perf_counter()
            out = op.call()
            dt = perf_counter() - t0
            scaled = dt * run.REFERENCE_PROBE_S / ((before + run.probe()) / 2)
            bad = list(op.check(out))
            failures += bool(bad)
            frozen[op.key] = workloads.digest(op.render(out))
            print(f"{op.key:48s} {dt:8.3f} s {scaled:8.3f} s scaled {'FAILED ' + '; '.join(bad) if bad else 'ok'}", flush=True)
    if failures:
        print(f"{failures} ops failed their checks; digests not written", file=sys.stderr)
        return 1
    run.DIGESTS.write_text(json.dumps(dict(sorted(frozen.items())), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
