"""Golden CLI output: each argv's stdout, stderr and exit code, kept in
``golden_cli.json`` beside this file, with every ``timing_s`` value
written as 0.  A change that should print the same bytes must pass this
unchanged.  ``python tests/test_golden.py`` rewrites the file from the
current tree; do that only for a change meant to alter the output.
"""

import functools
import io
import json
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

GOLDEN = Path(__file__).with_name("golden_cli.json")
_TIMING = re.compile(r'"timing_s": [-+.0-9e]+')

_LIMIT_OPS = [  # the benchmark's limit classes: its seeds 1 and 2, 20 ops each
    "e 2", "pi 9", "e 1", "pi 4", "e 16/3", "pi 25/4", "pi 3", "gamma 7/2",
    "gamma 3.5+0.25i", "e 4.5-1i", "e 5", "pi 0", "e 0", "e 35/4", "pi 13/2",
    "pi 10", "gamma 0.25+1i", "e 8+1i", "pi 1", "pi 5", "e 20/3", "pi 19/2",
    "gamma 3.25+1.5i", "e 8.25-1.25i", "e 7", "e 14/3", "pi 11/4", "pi 8",
    "gamma 1/2", "gamma 1.5-1.5i", "e 2.25-1.5i",
]
ARGVS = [
    *(f"limit {op}" for op in _LIMIT_OPS),
    "limit e 3 --format json", "limit pi 7/3 --format json",
    "limit gamma 2.5+1i --format json", "limit e 2.5+1.25i --format json",
    "limit e 3 --digits 40", "limit pi 0.25-1.5i --digits 40",
    "limit gamma 7/3 --digits 40 --format json",
    "limit e 3 --n-base 100", "limit pi 4 --n-base 100 --format json",
    "limit gamma 7/3 --n-base 100", "limit e 2.5+1i --n-base 100",
    "limit e 3 --n-base 50 --depth 3", "limit pi 0.25-1.5i", "limit gamma 0.1-7i",
    "limit e 2.2+1.5i", "limit pi 0.3", "limit gamma 12.5", "limit e 10 --format json",
    "limit pi 3 --digits 30", "limit gamma 1/3 --n-base 100 --digits 40",
    # poles and refusals
    "limit e -40", "limit gamma -40", "limit e -5000.5", "limit pi -40 --n-base 100",
    "seq e -40 100 --digits 30", "seq gamma -40 60", "seq pi -40.0 60",
    "seq e -40+0i 60", "limit e 0 --depth 40", "seq e abc 10", "agf f 1+nani",
    # exact and numeric seq, real and complex Z
    "seq e 3 30", "seq pi 7/3 30", "seq gamma 7/3 30 --format csv",
    "seq e 3 60 --digits 30", "seq pi 7/3 60 --digits 50",
    "seq gamma 7/3 60 --digits 40", "seq e 0.75 40", "seq gamma 3.5 40 --format csv",
    "seq e 2.5+1.25i 60", "seq pi 0.25-1.5i 60 --digits 30", "seq gamma 2.5+1i 60",
    "seq pi 1+1i 30 --format json", "seq gamma 1+1i 4", "seq e 2.5+1.25i 40 --digits 16",
    "seq gamma 0.1-7i 40 --digits 40", "seq e 3 20 --format json", "seq pi 0 25",
    "seq gamma -5/2 25", "seq e 1/3 40 --digits 30 --format csv", "seq pi 3.0 40",
    "seq gamma 12.5 40 --digits 30", "seq e 2.5+1.25i 40 --digits 50",
    "seq gamma 0.5+2i 40 --digits 30",
    # the other commands
    "verify all --seed 1 --format text", "verify duality --format json",
    "table agf-grid --grid=-1.5,2.5,-2,2,0.5", "table duality-e --m-max 5",
    "table duality-pi --m-max 5 --format json",
    "verify ode --format text", "table agf-grid --grid=0,1,0,1,0.25 --format json",
    "agf f 0.7+1.1i --digits 30", "agf g -0.5", "agf f 1", "agf g 2+3i --digits 20",
    "agf g 1e10+1e10i",
]


def run(argv: list[str]) -> dict:
    """One argv through ``cli.main`` in process: its record in the file."""
    from agflab.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected the argv
            code = exc.code
    return {"argv": argv, "stdout": _TIMING.sub('"timing_s": 0', out.getvalue()),
            "stderr": err.getvalue(), "exit": code}


@functools.cache
def _records() -> dict:
    return {" ".join(r["argv"]): r for r in json.loads(GOLDEN.read_text())}


@pytest.mark.parametrize("argv", ARGVS)
def test_cli_prints_the_golden_bytes(argv):
    assert run(argv.split()) == _records()[argv]


def test_golden_file_holds_every_argv():
    assert list(_records()) == ARGVS


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    records = [run(argv.split()) for argv in ARGVS]
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} records to {GOLDEN}")
