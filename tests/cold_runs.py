"""Time cold ``tangentia run`` processes on two source trees, in alternating pairs.

Run from the repository root, for example:

    python tests/cold_runs.py ../parent/src src tests/data/invert_degree10.tia 5

Each run is a fresh interpreter, ``python -m tangentia.cli run SCRIPT``
with ``PYTHONPATH`` set to one of the two ``src`` directories, so no
cache of the package survives from one run to the next; its wall time
includes the process start.  Before the pairs, each side runs once
untimed, so both read compiled bytecode.  Pair i runs the first side
first when i is even and the second side first when it is odd.

Prints, per side, the median wall time of its runs and the SHA-256 of
its output (stdout), then whether the two outputs are the same bytes.
Standard library only.  The name of this file does not match
``test_*.py``, so pytest does not collect it.

Exit status: 0 when every run exited 0 and each side printed the same
bytes in all its runs, else 1.
"""
import argparse
import hashlib
import os
import statistics
import subprocess
import sys
from time import perf_counter


def run(src, script):
    """One cold run of ``script`` on the package in ``src``: (seconds,
    SHA-256 of stdout, exit code)."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    cmd = [sys.executable, "-m", "tangentia.cli", "run", script]
    t0 = perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True)
    dt = perf_counter() - t0
    return dt, hashlib.sha256(proc.stdout).hexdigest(), proc.returncode


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src_a", help="the first side's src directory")
    ap.add_argument("src_b", help="the second side's src directory")
    ap.add_argument("script", help="the script both sides run")
    ap.add_argument("pairs", type=int, help="the number of alternating pairs")
    args = ap.parse_args(argv)
    sides = (args.src_a, args.src_b)
    times = {src: [] for src in sides}
    digests = {src: set() for src in sides}
    ok = True
    for i in range(-1, args.pairs):  # pair -1 is the untimed warm-up
        for src in sides if i % 2 == 0 else sides[::-1]:
            dt, digest, code = run(src, args.script)
            ok = ok and code == 0
            digests[src].add(digest)
            if i >= 0:
                times[src].append(dt)
    for src in sides:
        print(f"{src}: median {statistics.median(times[src]):.3f} s over "
              f"{len(times[src])} runs, sha256 {', '.join(sorted(digests[src]))}")
    same = digests[sides[0]] == digests[sides[1]] and len(digests[sides[0]]) == 1
    print("outputs identical" if same else "outputs differ")
    return 0 if ok and all(len(d) == 1 for d in digests.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
