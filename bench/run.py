#!/usr/bin/env python3
"""Benchmark of the tightspan pipeline, driven from outside the program.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program is imported from
the checkout's ``src/`` (the benchmark fails if it is absent rather than
fall back to an installed copy).  Every pass runs in this one process with
``--jobs 1`` and no threads.

``--trace 0`` times passes with nothing wrapped and prints the end-to-end
metrics: ``setup_s``, the median over fresh child processes, taken between
the passes, of importing the program and writing the inputs; ``run_s``,
the median pass; ``us_per_arc``, ``run_s`` per Hasse arc of a pass; and
``peak_rss_mb``.  ``--trace 1`` spends half the time on plain passes and
half on traced ones and prints the per-layer metrics of ``spans.py``,
including the tracing overhead; its spans are written to ``.bench_out/``
when it ends.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
A human-readable table goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_SAMPLES = 12  # fresh-process set-ups per timed run, spread over the run

# metric name -> unit, printed with --trace 0
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "us_per_arc": "us",
    "peak_rss_mb": "MB",
}


def import_program():
    """Import tightspan from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "tightspan", "__init__.py")):
        raise SystemExit(f"error: no tightspan sources under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    import tightspan

    if os.path.dirname(os.path.dirname(os.path.abspath(tightspan.__file__))) != src:
        raise SystemExit(f"error: imported tightspan from {tightspan.__file__}, not {src}")
    return tightspan


def setup(workload, seed: int, workdir: str):
    """Import the program and write the workload's inputs; returns the
    workload state and the seconds it took."""
    t0 = time.perf_counter()
    import_program()
    state = workload.setup(ROOT, workdir, seed)
    return state, time.perf_counter() - t0


def setup_seconds(name: str, seed: int) -> float:
    """Set-up time of one fresh process importing the program and writing
    the inputs into its own directory."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def timed_passes(workload, state, seconds: float, tally, on_pass=None) -> list[float]:
    """Run passes until the next one would likely overrun ``seconds``;
    at least one.  Returns each pass's wall time."""
    times: list[float] = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start + statistics.median(times) <= seconds:
        if on_pass is not None:
            on_pass()
        times.append(workload.run_pass(state, len(times), tally))
    return times


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS, Tally

    workload = WORKLOADS[name]
    if not workload.seeded:
        print(f"{name}: fixed inputs, --seed {seed} ignored", file=sys.stderr)
    tally = Tally()
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        state, _ = setup(workload, seed, workdir)
        if not trace:
            # Set-ups are taken between passes, sample k once k/SETUP_SAMPLES
            # of the run has gone, so that both medians see the same spells
            # of a shared host's speed.
            setups: list[float] = []
            start = time.perf_counter()

            def setups_due():
                elapsed = time.perf_counter() - start
                due = min(SETUP_SAMPLES, 1 + int(elapsed * SETUP_SAMPLES / seconds))
                while len(setups) < due:
                    setups.append(setup_seconds(name, seed))

            times = timed_passes(workload, state, seconds, tally, setups_due)
            while len(setups) < SETUP_SAMPLES:
                setups.append(setup_seconds(name, seed))
            run_s = statistics.median(times)
            metrics = {
                "setup_s": statistics.median(setups),
                "run_s": run_s,
                "us_per_arc": run_s * 1e6 / workload.arcs,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END
            print(f"{name}: {len(times)} passes", file=sys.stderr)
        else:
            from spans import PER_LAYER, Recorder, traced

            plain = timed_passes(workload, state, seconds / 2, tally)
            recorder = Recorder()
            with traced(recorder):
                traced_times = timed_passes(
                    workload, state, seconds / 2, tally, recorder.begin_pass
                )
            per_pass = recorder.pass_metrics()
            metrics = {k: statistics.median(p[k] for p in per_pass) for k in PER_LAYER}
            metrics["trace_overhead_s"] = (
                statistics.median(traced_times) - statistics.median(plain)
            )
            units = PER_LAYER
            recorder.dump(os.path.join(OUT_DIR, f"spans-{name}-{seed}.json"))
            print(f"{name}: {len(plain)} plain and {len(traced_times)} traced passes",
                  file=sys.stderr)
    failed_share = tally.failed / tally.attempted
    for key, unit in units.items():
        print(f"  {key:<48} {metrics[key]:>14.6g} {unit}", file=sys.stderr)
    print(f"  {'failed_share':<48} {failed_share:>14.6g} ({tally.failed}/{tally.attempted})",
          file=sys.stderr)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this process and print the seconds")
    args = parser.parse_args(argv)
    if args.setup_only:
        os.makedirs(OUT_DIR, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
            _, seconds = setup(WORKLOADS[args.workload], args.seed, workdir)
        print(repr(seconds))
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
