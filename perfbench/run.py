"""Benchmark for agf-lab: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload limit --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  With ``--trace 0`` it times the
end-to-end metrics: three fresh processes each import agflab and run one
warm-up op (set-up), and the last of them then runs ops in a closed loop
for ``--seconds``.  Times are reported at the reference speed of
``speed.py``, which takes out the host's swings in speed; wall times are
printed beside them and kept in the record.  With ``--trace 1`` one
process runs half the time untraced and then the same ops again with
every layer wrapped, and reports the per-layer metrics.  Every op's
output is checked against an independent route.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
import time

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3
RUN_LIMIT_S = 170  # a run that is not done by then is killed and fails

END_TO_END = [
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "mpmath": metadata.version("mpmath"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def tail(times: list[float]) -> tuple[float, float, int]:
    """The highest nearest-rank percentile with at least 10 ops beyond it.

    Returns (value, percentile, ops beyond).  With 10 ops or fewer no
    percentile has 10 beyond, and the fastest op is returned.
    """
    ranked = sorted(times)
    rank = max(1, len(ranked) - 10)
    return ranked[rank - 1], 100 * rank / len(ranked), len(ranked) - rank


def child(workload, seed, seconds, mode, deadline) -> dict:
    """Run a worker to completion and return its result line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           "--started", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        out = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))[0]
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def timing_metrics(setups, times, ok) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail(times)[0],
        "ops_per_s": ok / sum(times),
    }


def end_to_end(workload, seed, seconds, deadline) -> tuple[dict, dict]:
    runs = [child(workload, seed, seconds, "setup", deadline)
            for _ in range(SETUPS - 1)]
    res = child(workload, seed, seconds, "run", deadline)
    runs.append(res)
    scaled = [s for _, _, s, _ in res["ops"]]
    metrics = {
        **timing_metrics([r["setup_s"] for r in runs], scaled, res["ok"]),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    wall = timing_metrics([r["setup_wall_s"] for r in runs],
                          [t for _, t, _, _ in res["ops"]], res["ok"])
    _, pct, beyond = tail(scaled)
    n = len(scaled)
    notes = {
        "setup_s": f"median of {SETUPS} set-ups (start, import, 1 warm-up op)",
        "op_p50_s": f"median of {n} ops",
        "op_tail_s": f"p{pct:.1f} of {n} ops, {beyond} beyond it",
        "ops_per_s": "ops that succeeded per second spent in ops",
        "peak_rss_mb": "peak resident memory of the looping process",
    }
    for name, value in wall.items():
        notes[name] += f"; wall {value:.6g}"
    return metrics, {**res, "notes": notes, "wall_metrics": wall,
                     "setups": [r["setup_s"] for r in runs]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "agflab" / "cli.py").is_file():
        print(f"perfbench: no agflab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    env = environment()
    if args.trace:
        res = child(args.workload, args.seed, args.seconds, "trace", deadline)
        metrics = res.pop("metrics")
        import tracer
        units = {n: u for n, u, _ in tracer.PER_LAYER}
    else:
        metrics, res = end_to_end(args.workload, args.seed, args.seconds, deadline)
        units = dict(END_TO_END)

    attempted, failed = res["attempted"], res["attempted"] - res["ok"]
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, "
          f"trace {args.trace}: closed loop, 1 client, 1 process, no extra threads")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for name, value in metrics.items():
        note = res.get("notes", {}).get(name, "")
        print(f"  {name:<40} {value:<14.6g} {units[name]:<9} {note}")
    print(f"  {'fail_ratio':<40} {failed / attempted:<14.6g} {'ratio':<9} "
          f"{failed} of {attempted} ops failed, {res['wrong']} of them with wrong output")
    for reason, count in sorted(res["failures"].items()):
        print(f"    {count} x {reason}")
    print("no layer queues or waits: the program is single-threaded")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, **res, "metrics": metrics}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": res["wrong"] == 0 and res["warmup_failures"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
