"""One workload process: set up, then drive ``agflab.cli.main`` in a closed loop.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``.  Set-up runs from
``--started`` (the parent's ``time.monotonic()`` at spawn, a system-wide
clock on Linux) until ``agflab`` is imported and the warm-up op has run;
in ``run`` and ``trace`` mode the process then loops.  It prints one JSON
line with its results.
The loop is one client in one thread: the next op starts when the
previous one returns.  A ``speed.Probe`` samples the machine's speed
from before ``agflab`` is imported, and each time is also given at the
reference speed.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import monotonic, perf_counter

import mpmath

import checks
import speed
import workloads

OUT_DIR = Path(__file__).resolve().parent / "out"


class Loop:
    """Runs ops through ``agflab.cli.main`` with output captured in memory."""

    def __init__(self, workload: str, probe: speed.Probe):
        import agflab.cli  # here, so that a probe started before samples the import

        self.cli = agflab.cli
        self.probe = probe
        self.check = checks.CHECKS[workload]
        self.failures: Counter = Counter()
        self.wrong = 0
        self.dps_leaks = 0
        self.out_bytes = 0

    def op(self, argv) -> tuple[float, float, bool]:
        """Run one op; returns (wall seconds, seconds at the reference speed,
        succeeded).  Never raises."""
        out, err = io.StringIO(), io.StringIO()
        failure = None
        mark = self.probe.mark()
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter()
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejected the argv
                rc = exc.code
            except Exception as exc:  # a traceback the CLI let through
                failure = f"uncaught {type(exc).__name__}: {exc}"
            seconds = perf_counter() - start
        scaled = self.probe.rescale(mark, seconds)
        if mpmath.mp.dps != 15:
            self.dps_leaks += 1
        self.out_bytes += len(out.getvalue())
        if failure is None and rc != 0:
            lines = err.getvalue().strip().splitlines() or [""]
            failure = f"exit {rc}: {lines[-1]}"
        if failure is None:
            try:
                self.check(argv, out.getvalue())
            except Exception as exc:  # wrong or unreadable output
                self.wrong += 1
                failure = f"wrong output: {exc}"
        if failure is not None:
            self.failures[failure[:160]] += 1
        return seconds, scaled, failure is None

    def run(self, ops, seconds: float):
        """Ops from the stream until ``seconds`` have passed."""
        done = []
        deadline = perf_counter() + seconds
        for argv in ops:
            if perf_counter() >= deadline:
                break
            done.append((argv, *self.op(argv)))
        return done


def _traced_metrics(loop: Loop, workload: str, seed: int, seconds: float) -> dict:
    """Half the time untraced, then the same ops again traced."""
    import tracer

    untraced = loop.run(workloads.ops(workload, seed), seconds / 2)
    spans = tracer.Tracer()
    restore = tracer.install(spans)
    traced = []
    loop.out_bytes = 0
    try:
        for op_id, (argv, *_) in enumerate(untraced):
            spans.op_id = op_id
            traced.append(loop.op(argv))
    finally:
        restore()
    n = len(traced)
    metrics = tracer.layer_metrics(spans, [scaled / wall for wall, scaled, _ in traced])
    metrics["cli.out_bytes"] = loop.out_bytes / n
    metrics["mp.dps_leaks"] = loop.dps_leaks
    # traced over untraced ops_per_s, on the same ops at the reference speed
    metrics["trace.overhead_ratio"] = (sum(scaled for _, _, scaled, _ in untraced)
                                       / sum(scaled for _, scaled, _ in traced))
    OUT_DIR.mkdir(exist_ok=True)
    spans.save(OUT_DIR / f"spans-{workload}-{seed}.npz")
    order = [name for name, _, _ in tracer.PER_LAYER]
    return {"attempted": 2 * n,
            "ok": sum(ok for *_, ok in untraced) + sum(ok for *_, ok in traced),
            "metrics": {name: metrics[name] for name in order}}


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--started", type=float, required=True)
    args = p.parse_args(argv)

    probe = speed.Probe()
    probe.start()
    loop = Loop(args.workload, probe)
    loop.op(workloads.WARMUP[args.workload])
    setup_wall_s = monotonic() - args.started
    setup_s = probe.rescale(0, setup_wall_s)
    if args.mode == "setup":
        probe.stop()
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}), flush=True)
        return
    warmup_failures = sum(loop.failures.values())
    loop.failures.clear()
    loop.wrong = loop.dps_leaks = 0
    if args.mode == "trace":
        result = _traced_metrics(loop, args.workload, args.seed, args.seconds)
    else:
        done = loop.run(workloads.ops(args.workload, args.seed), args.seconds)
        result = {"attempted": len(done), "ok": sum(ok for *_, ok in done),
                  "ops": [[" ".join(argv), *rest] for argv, *rest in done],
                  "dps_leaks": loop.dps_leaks,
                  "speed_samples": len(probe.samples)}
    probe.stop()
    result.update(
        setup_s=setup_s, setup_wall_s=setup_wall_s, wrong=loop.wrong,
        failures=dict(loop.failures), warmup_failures=warmup_failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    sys.exit(main())
