"""Every output of the golden argvs and of the benchmark's op streams, in
one JSON file, so that two checkouts can be compared byte for byte.

    python tests/dump_outputs.py OUT.json [--ops N]

Runs from this checkout's ``src``, in process, through the ``run`` of
``test_golden.py`` (every ``timing_s`` written as 0): the argvs of
``test_golden.ARGVS``, then the first N ops of each stream
``perfbench/workloads.ops(w, 1)``.  Each record holds its argv, stdout,
stderr and exit code, or the exception that escaped ``cli.main``; a
stdout longer than ``LONG`` characters (an exact ``seq`` row set
reaches megabytes) is kept as its SHA-256 and length.
Run it in the parent's checkout and in the change's, and compare the two
files: equal files mean the change prints the same bytes on every argv.
It only reads ``perfbench/``.  Not a test module: pytest does not
collect it.
"""

import argparse
import hashlib
import itertools
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

from test_golden import ARGVS, run  # noqa: E402
from workloads import WORKLOADS, ops  # noqa: E402

LONG = 1 << 16


def record(argv: list[str]) -> dict:
    try:
        rec = run(argv)
    except Exception as exc:  # a traceback, which a CLI must never end in:
        # kept without its frames, whose paths differ between checkouts
        return {"argv": argv, "exception": f"{type(exc).__name__}: {exc}"}
    out = rec["stdout"]
    if len(out) > LONG:
        rec["stdout"] = (f"sha256:{hashlib.sha256(out.encode()).hexdigest()} "
                         f"({len(out)} chars)")
    return rec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="the JSON file to write")
    parser.add_argument("--ops", type=int, default=100,
                        help="ops taken from each workload stream (default 100)")
    args = parser.parse_args(argv)
    dump = {"golden": [record(a.split()) for a in ARGVS]}
    for workload in WORKLOADS:
        dump[workload] = [record(op) for op in
                          itertools.islice(ops(workload, 1), args.ops)]
    Path(args.out).write_text(json.dumps(dump, indent=1) + "\n")
    print(f"wrote {sum(map(len, dump.values()))} records to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
