"""bvm benchmark: one workload per invocation, run from the repository root.

    python3 bench/run.py --workload {mc-scalar,paths,sweep,metrics} --seed N --seconds S --trace {0,1}

The workload's inputs are made from ``--seed``. A run sets up, runs one
warm-up round (under ``tracemalloc`` for the peak memory; its outputs are
the ones the correctness checks read), then repeats closed-loop rounds of
the same operations for about ``--seconds`` seconds. Every round's output
fingerprints must equal the warm-up's, and an operation run at
BVM_THREADS=2 must equal its BVM_THREADS=1 twin bit for bit.

The shared machine's speed drifts by 10-20 % over tens of seconds, and
all code slows together. So a fixed calibration kernel that does not
touch bvm is timed before and after every round and after each set-up,
and ``setup_s`` and ``wall_s`` are reported at reference speed: measured
seconds times CALIBRATION_S over the calibration time. The raw seconds
are printed as ``setup_raw_s`` and ``wall_raw_s``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones (setup_s, wall_s, peak_mem_mb); with ``--trace 1``
the run measures untraced rounds first, then loads ``tracer.py`` and
reports the per-layer metrics named in BENCHMARK.json, tracing overhead
included.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("mc-scalar", "paths", "sweep", "metrics")
SETUP_REPEATS = 3  # one in process, the rest in fresh interpreters
CALIBRATION_S = 0.1  # the calibration kernel's time at reference speed


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help="time set-up once, print it, and exit")
    return p.parse_args(argv)


def prepare() -> bool:
    """Point imports at the checkout's ``src/`` and cap native thread pools.

    Returns False when the directory holds no bvm source tree.
    """
    if not (ROOT / "src" / "bvm" / "__init__.py").is_file():
        return False
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # BVM_THREADS=2 is then the only parallelism: at most 2 threads
    sys.path.insert(0, str(ROOT / "src"))
    return True


def calibrate() -> float:
    """Seconds taken by a fixed numpy and pure-Python kernel that does not
    touch bvm: about CALIBRATION_S at reference speed."""
    import numpy as np

    x = np.random.default_rng(0).standard_normal(200_000)
    t0 = time.perf_counter()
    for _ in range(10):
        for _ in range(4):
            np.sort(x)
        total = 0.0
        for j in range(60_000):
            total += j * 0.5
    return time.perf_counter() - t0


def set_up(workload: str, seed: int, workdir: Path):
    """Import every bvm module and build the workload's inputs.

    Returns (workload, set-up seconds, calibration seconds right after);
    the benchmark's own modules are imported outside the timed part.
    """
    t0 = time.perf_counter()
    import bvm.cli  # noqa: F401  (numpy, scipy, jsonschema and all ten bvm modules)

    t1 = time.perf_counter()
    import workloads

    t2 = time.perf_counter()
    wl = workloads.build(workload, seed, workdir)
    return wl, (t1 - t0) + (time.perf_counter() - t2), calibrate()


def setup_in_fresh_interpreter(args) -> tuple:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    setup_s, cal_s = done.stdout.strip().splitlines()[-1].split()
    return float(setup_s), float(cal_s)


class Tally:
    """Operations attempted and failed, and whether the outputs were right."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.reference = {}  # op name -> fingerprint of the warm-up round
        self.faulty = {}  # op name -> named fault its check fails on
        self.problems = []

    def problem(self, text):
        self.correct = False
        self.problems.append(text)


def run_round(wl, tally: Tally, memory: bool = False):
    """Run every operation once. Returns (op seconds, op values, peak MB).

    With ``memory`` the round runs under tracemalloc and the peak is the
    most extra memory any one operation allocated.
    """
    gc.collect()
    times, values, peak = {}, {}, 0.0
    if memory:
        tracemalloc.start()
    try:
        for op in wl.ops:
            os.environ["BVM_THREADS"] = str(op.threads)
            tally.attempted += 1
            if memory:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            t0 = time.perf_counter()
            try:
                raw = op.run()
            except Exception as exc:  # a crashing operation is a failed one; keep measuring the rest
                tally.failed += 1
                tally.problem(f"{op.name}: raised {type(exc).__name__}: {exc}")
                continue
            times[op.name] = time.perf_counter() - t0
            if memory:
                peak = max(peak, (tracemalloc.get_traced_memory()[1] - before) / 1e6)
            fp, values[op.name] = op.digest(raw)
            ref = tally.reference.setdefault(op.name, fp)
            twin = tally.reference.get(op.name.split("@")[0] + "@1t", fp)  # "x@2t" must match "x@1t"
            if fp != ref or fp != twin:
                tally.failed += 1
                tally.problem(f"{op.name}: fingerprint {fp} differs from {ref if fp != ref else twin}")
            elif op.name in tally.faulty:
                tally.failed += 1
    finally:
        os.environ["BVM_THREADS"] = "1"
        if memory:
            tracemalloc.stop()
    return times, values, peak


def check_outputs(wl, values, tally: Tally):
    """Run the workload's checks on the warm-up outputs and print them.

    A check that fails on the named fault marks its operation as failed in
    every round; any other failing check makes the run incorrect.
    """
    if len(values) != len(wl.ops):
        tally.problem("checks skipped: an operation raised")
        return
    for c in wl.check(values):
        print(f"check {c.op}: {'ok' if c.ok else 'FAIL'} - {c.detail}")
        if c.ok:
            continue
        if c.fault:
            print(f"  counted as failed: {c.fault}")
            if c.op not in tally.faulty:
                tally.faulty[c.op] = c.fault
                tally.failed += 1  # its warm-up run
        else:
            tally.problem(f"{c.op}: {c.detail}")


def timed_rounds(wl, tally: Tally, seconds: float, after_round=None):
    """Closed loop of whole rounds; stops once another round would pass ``seconds``.

    Returns (op seconds, round seconds, calibration seconds) per round. A
    round's seconds are its operations' only, not digests and checks; its
    calibration is the mean of the kernel timed before and after it.
    """
    rounds = []
    start = time.perf_counter()
    cal_before = calibrate()
    while True:
        times, _, _ = run_round(wl, tally)
        cal_after = calibrate()
        rounds.append((times, sum(times.values()), 0.5 * (cal_before + cal_after)))
        cal_before = cal_after
        if after_round is not None:
            after_round()
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) > seconds:
            return rounds


def reference_wall_s(rounds) -> float:
    """Median round time at reference speed: the median raw round time
    over the median calibration time. One slow calibration moves it less
    than it moves a per-round ratio."""
    median_cal = statistics.median(cal for _, _, cal in rounds)
    return statistics.median(w for _, w, _ in rounds) * CALIBRATION_S / median_cal


def median_info(wl, rounds) -> dict:
    per_round = [wl.info(times) for times, _, _ in rounds if len(times) == len(wl.ops)]
    if not per_round:
        return {}
    return {k: (statistics.median(r[k][0] for r in per_round), per_round[0][k][1]) for k in per_round[0]}


def print_rounds(wl, rounds, label):
    walls = [w for _, w, _ in rounds]
    print(f"{label}: {len(rounds)} rounds of {len(wl.ops)} operations, raw round seconds median "
          f"{statistics.median(walls):.4f} (min {min(walls):.4f}, max {max(walls):.4f})")
    print("  rounds (raw seconds, calibration seconds): "
          + ", ".join(f"({w:.4f}, {cal:.4f})" for _, w, cal in rounds))
    for op in wl.ops:
        ts = [t[op.name] for t, _, _ in rounds if op.name in t]
        if ts:
            print(f"  op {op.name:<24} median {statistics.median(ts):.4f} s")


def phase(label, since):
    now = time.perf_counter()
    print(f"phase {label}: {now - since:.2f} s")
    return now


def measure(args, wl, setup) -> dict:
    tally = Tally()
    clock = time.perf_counter()
    if args.trace == 0:
        setups = [setup] + [setup_in_fresh_interpreter(args) for _ in range(SETUP_REPEATS - 1)]
        print("set-up samples (seconds, calibration seconds): "
              + ", ".join(f"({s:.4f}, {c:.4f})" for s, c in setups))
        clock = phase("set-up repeats", clock)

    _, values, peak_mb = run_round(wl, tally, memory=args.trace == 0)
    for op in wl.ops:
        print(f"fingerprint {op.name} {tally.reference.get(op.name)}")
    clock = phase("warm-up round" + (" under tracemalloc" if args.trace == 0 else ""), clock)
    check_outputs(wl, values, tally)
    del values
    phase("checks", clock)

    seconds = args.seconds / 2 if args.trace else args.seconds
    rounds = timed_rounds(wl, tally, seconds)
    print_rounds(wl, rounds, "untraced")
    wall_s = reference_wall_s(rounds)
    info = median_info(wl, rounds)
    info["wall_raw_s"] = (statistics.median(w for _, w, _ in rounds), "s")
    info["calibration_s"] = (statistics.median(cal for _, _, cal in rounds), "s")
    if args.trace == 0:
        info["setup_raw_s"] = (statistics.median(s for s, _ in setups), "s")
    for name, (value, unit) in info.items():
        print(f"metric {name} {value!r} {unit}")

    if args.trace == 0:
        result = {
            "setup_s": (statistics.median(s * CALIBRATION_S / c for s, c in setups), "s"),
            "wall_s": (wall_s, "s"),
            "peak_mem_mb": (peak_mb, "MB"),
        }
    else:
        result = traced(args, wl, tally, seconds, wall_s)
    for problem in tally.problems:
        print(f"problem: {problem}")
    for name, (value, unit) in result.items():
        print(f"metric {name} {value!r} {unit}")
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result.items()},
    }


def traced(args, wl, tally: Tally, seconds: float, untraced_wall_s: float) -> dict:
    import tracer

    tr = tracer.Tracer()
    tr.install()
    per_round = []
    try:
        tr.track_peaks = True
        try:
            run_round(wl, tally)
        finally:
            tr.track_peaks = False
        peaks = dict(tr.peaks_mb)
        tr.reset_counts()
        first = [len(tr.spans)]

        def after_round():
            per_round.append(tracer.layer_metrics(tr.spans[first[0]:], tr.counts()))
            first[0] = len(tr.spans)
            tr.reset_counts()

        rounds = timed_rounds(wl, tally, seconds, after_round)
    finally:
        tr.uninstall()
    print_rounds(wl, rounds, "traced")
    spans_path = ROOT / ".bench_work" / f"spans-{args.workload}-seed{args.seed}.tsv"
    tr.write_spans(spans_path)
    print(f"wrote {len(tr.spans)} spans to {spans_path.relative_to(ROOT)}")

    values = {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}
    values["engine.estimate_bvm_mc_peak_mb"] = peaks.get("engine.estimate_bvm_mc", 0.0)
    values["engine.sweep_peak_mb"] = peaks.get("engine.sweep", 0.0)
    values["bench.trace_overhead_s"] = reference_wall_s(rounds) - untraced_wall_s
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return {m["name"]: (values[m["name"]], m["unit"]) for m in declared}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not prepare():
        print(f"bench: no bvm source tree at {ROOT / 'src' / 'bvm'}; run from a full checkout", file=sys.stderr)
        return 2
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        wl, setup_s, cal_s = set_up(args.workload, args.seed, Path(tmp))
        if args.setup_only:
            print(f"{setup_s!r} {cal_s!r}")
            return 0
        print(f"bench: workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
        result = measure(args, wl, (setup_s, cal_s))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
