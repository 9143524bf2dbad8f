"""phasekey benchmark: one workload, one seed, timed end to end or traced per layer.

    python3 perfbench/run.py --workload sweep|oracle|protocol --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout (src/ and tests/ present); nothing
needs installing.  The last line of standard output is one JSON object
with "correct", "attempted", "failed" and "metrics".  With --trace 0 the
metrics are the end_to_end list of BENCHMARK.json, with --trace 1 the
per_layer list; both lists, with their units, are read from that file.
A fuller record (environment, sample counts, failures) is written to
perfbench/out/, and a traced run also writes every span there.

Untraced run, after set-up: a fixed number of repeats of the workload's
batch and of whole blocks of seeded operations (set by --seconds and the
workload's rates, not by speed), interleaved evenly and run in a closed
loop with one client.  batch_s is the median batch time; ops_per_s and
the light/heavy latencies come from the blocks.  Every time is scaled to
a nominal machine speed (see SpeedReference).
Traced run: the batch and a fixed number of blocks, each run untraced and
traced; the difference in wall time is the tracing overhead.  A fixed
probe of every layer follows.

setup_s is the median over SETUP_REPEATS fresh interpreters of the time
from process start until phasekey.cli is imported, the workload's inputs
are generated and the warm-up probe has run.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

# One BLAS thread (at most nproc): the matrices here are small, and a
# single thread keeps timings steady on a shared machine.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
MIN_BATCH_REPEATS = 3

# The machine speed reference (SpeedReference): it runs at the first unit
# boundary REF_INTERVAL_S after its last run, REF_TRIES passes a run, and
# REF_NOMINAL_S is its run time at the nominal speed.
REF_INTERVAL_S = 0.25
REF_NOMINAL_S = 0.0008
REF_TRIES = 3


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    import phasekey.cli  # noqa: F401  (the import being timed)


def _setup_probe(args) -> int:
    """Child process: import, generate, warm up, reporting each step on stdout."""
    _import_program()
    print("import", flush=True)
    import bench_workloads as bw
    from bench_trace import NullTracer
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        wl = bw.WORKLOADS[args.workload](args.seed, ROOT, Path(tmp))
        print("generate", flush=True)
        ok = all(bw.layer_probe(Path(tmp), NullTracer(), with_checks=False))
        print("warmup" if ok else "warmup-failed", flush=True)
    return 0


def _time_setup(args) -> dict:
    """Spawn one fresh interpreter and time its set-up steps from process start."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    marks = {}
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
        try:
            for line in child.stdout:
                marks[line.strip()] = time.perf_counter() - start
            child.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
    if child.returncode != 0 or "warmup" not in marks:
        raise RuntimeError(f"set-up probe failed (exit {child.returncode}, steps {sorted(marks)})")
    return {"import_s": marks["import"], "generate_s": marks["generate"] - marks["import"],
            "warmup_s": marks["warmup"] - marks["generate"], "setup_s": marks["warmup"]}


def _environment(args) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS), "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "machine": platform.machine(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "commit": commit,
    }


class Tally:
    """Attempted and failed operations, with the first failures kept for the record.

    Every failure counts in `failed`, and every failure makes the run
    incorrect except a sweep row that fails by the known large-E underflow
    (bench_workloads.KNOWN_UNDERFLOW).
    """

    def __init__(self):
        from bench_workloads import KNOWN_UNDERFLOW
        self.known = KNOWN_UNDERFLOW
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.failures = []

    def record(self, outcome, label):
        """Count one outcome: a true value passes, a string or a false value fails.

        label() names the operation; it is called only for a failure, so
        that a passing operation's timing holds no bookkeeping.
        """
        self.attempted += 1
        if isinstance(outcome, str) or not outcome:
            self.failed += 1
            self.correct = self.correct and outcome is self.known
            if len(self.failures) < 20:
                self.failures.append(f"{label()}: {outcome}")


def _run_op(op, tracer, tally, block, index):
    try:
        outcome = op(tracer)
    except Exception:  # an operation that raises is a failed operation; keep going
        outcome = "raised " + traceback.format_exc(limit=3).strip().splitlines()[-1]
    tally.record(outcome, lambda: f"block {block} op {index} {op!r}")


def _run_batch(wl, tally):
    for label, ok in wl.batch():
        tally.record(ok, lambda: f"batch {label}")


def _tail(samples, pct):
    """The pct-th percentile of samples and how many samples lie beyond it."""
    import numpy
    value = float(numpy.percentile(samples, pct))
    return value, sum(1 for s in samples if s > value)


class SpeedReference:
    """Fixed work, unrelated to phasekey, that times the machine's current speed.

    Dense Hermitian eigensolves through LAPACK, as phasekey's dense
    oracles and interferometer logarithms do: six 12x12 ones with a matrix
    product, and one 64x64 one.  The shared machine the benchmark was
    tuned on drifts between a fast and a ~1.8x slower state for seconds to
    minutes, and this work slows with it.  Every untraced time of a run is
    multiplied by REF_NOMINAL_S over the median of the reference times
    taken during that run, so it reads as the time at one nominal speed,
    and a faster program still reads faster.
    """

    def __init__(self):
        import numpy
        self.linalg = numpy.linalg
        rng = numpy.random.default_rng(0)
        self.hermitian = []
        for n in (12, 64):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            self.hermitian.append(a + a.conj().T)
        self.times = []

    def _small(self):
        h = self.hermitian[0]
        for _ in range(6):
            self.linalg.eigh(h)
            h @ h

    def _medium(self):
        self.linalg.eigvalsh(self.hermitian[1])

    def run(self) -> float:
        """Time each part REF_TRIES times in a row and add up the fastest times.

        The first pass pays for caches the measured work left cold; the
        fastest pass reflects the machine's speed.
        """
        total = 0.0
        for part in (self._small, self._medium):
            best = math.inf
            for _ in range(REF_TRIES):
                t0 = time.perf_counter()
                part()
                best = min(best, time.perf_counter() - t0)
            total += best
        self.times.append(total)
        return total


def _schedule(n_batches, n_blocks):
    """Batches and blocks interleaved evenly: ("batch", k) and ("block", i) in run order."""
    units = [((k + 0.5) / n_batches, "batch", k) for k in range(n_batches)]
    units += [((i + 0.5) / n_blocks, "block", i) for i in range(n_blocks)]
    return [(kind, i) for _, kind, i in sorted(units)]


def _summarise(samples, wl, notes):
    """End-to-end time metrics from (kind, class, seconds) samples."""
    batch_s = [v for kind, _, v in samples if kind == "batch"]
    stream_s = sum(v for kind, _, v in samples if kind == "block")
    latency = {cls: [v for kind, c, v in samples if kind == "op" and c == cls]
               for cls in ("light", "heavy")}
    metrics = {"batch_s": statistics.median(batch_s),
               "ops_per_s": sum(map(len, latency.values())) / stream_s}
    for cls, values in latency.items():
        pct = wl.tail_pct[cls]
        tail, beyond = _tail(values, pct)
        metrics[f"{cls}_p50_ms"] = 1e3 * statistics.median(values)
        metrics[f"{cls}_tail_ms"] = 1e3 * tail
        notes[f"{cls}_tail"] = f"p{pct:g} of {len(values)} samples, {beyond} beyond it"
        if beyond < 10:
            notes[f"{cls}_tail_warning"] = "fewer than ten samples beyond the tail percentile"
    return metrics


def _measure(args, wl, tally, notes) -> dict:
    """The untraced run: fixed work, timed and scaled to the nominal speed.

    The reference runs between units whenever REF_INTERVAL_S has passed
    since its last run; the run's times are scaled by REF_NOMINAL_S over
    the median reference time, which follows the machine from run to run
    without adding the jitter of single reference runs to each sample.
    """
    from bench_trace import NullTracer
    tracer = NullTracer()
    n_blocks = max(1, round(args.seconds * wl.blocks_per_s))
    n_batches = max(MIN_BATCH_REPEATS, round(args.seconds * wl.batches_per_s))
    ref = SpeedReference()
    ref.run()
    ref.times.clear()

    gc.collect()
    samples = []
    last_t = time.perf_counter()
    for kind, i in _schedule(n_batches, n_blocks):
        t_unit = time.perf_counter()
        if kind == "batch":
            _run_batch(wl, tally)
        else:
            for j, op in enumerate(wl.block(i)):
                t0 = time.perf_counter()
                _run_op(op, tracer, tally, i, j)
                samples.append(("op", op.cls, time.perf_counter() - t0))
        samples.append((kind, None, time.perf_counter() - t_unit))
        if time.perf_counter() - last_t >= REF_INTERVAL_S:
            ref.run()
            last_t = time.perf_counter()
    ref.run()

    unscaled = _summarise(samples, wl, notes)
    factor = REF_NOMINAL_S / statistics.median(ref.times)
    metrics = {name: value / factor if name == "ops_per_s" else value * factor
               for name, value in unscaled.items()}
    notes.update(batch_repeats=n_batches, blocks=n_blocks, unscaled=unscaled,
                 reference_s={"runs": len(ref.times), "median": statistics.median(ref.times),
                              "min": min(ref.times), "max": max(ref.times)})
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics


def _traced(args, wl, tally, notes, setups, units):
    """Fixed work, each unit run untraced and traced in turn; then the layer probe.

    A unit is the batch or one block.  Running both versions of a unit
    back to back, alternating which goes first, keeps drift in machine
    speed out of the overhead estimate.
    """
    import bench_workloads as bw
    from bench_trace import NullTracer, Tracer
    n_blocks = max(1, round(args.seconds * wl.traced_blocks_per_s))

    def batch(tracer):
        with tracer.op("batch"):
            _run_batch(wl, tally)

    def block(b):
        def run(tracer):
            for i, op in enumerate(wl.block(b)):
                with tracer.op(f"{b}.{i}"):
                    _run_op(op, tracer, tally, b, i)
        return run

    tracer = Tracer()
    wall = {"untraced": 0.0, "traced": 0.0}
    for n, unit in enumerate([batch] + [block(b) for b in range(n_blocks)]):
        for mode in (("untraced", "traced") if n % 2 == 0 else ("traced", "untraced")):
            gc.collect()
            if mode == "traced":
                tracer.install()
            try:
                t0 = time.perf_counter()
                unit(tracer if mode == "traced" else NullTracer())
                wall[mode] += time.perf_counter() - t0
            finally:
                tracer.uninstall()
    untraced_s, traced_s = wall["untraced"], wall["traced"]
    tracer.install()
    try:
        with tracer.op("probe"):
            for i, ok in enumerate(bw.layer_probe(wl.tmp, tracer, with_checks=True)):
                tally.record(ok, lambda: f"probe {i}")
    finally:
        tracer.uninstall()

    layers = tracer.self_times()
    metrics = {}
    for name in units:
        if name.endswith(".self_s"):
            metrics[name] = layers.get(name[:-len(".self_s")], (0, 0.0, 0.0))[2]
        elif name.endswith(".calls"):
            metrics[name] = layers.get(name[:-len(".calls")], (0, 0.0, 0.0))[0]
        elif name.startswith("checks."):
            metrics[name] = layers.get(name[:-len(".s")], (0, 0.0, 0.0))[1]
        elif name.endswith(".dim_max"):
            metrics[name] = tracer.maxima[name]
        elif name in ("cli.import_s", "setup.generate_s", "setup.warmup_s"):
            key = {"cli.import_s": "import_s"}.get(name, name.split(".")[1])
            metrics[name] = statistics.median(s[key] for s in setups)
        elif name == "trace.untraced_s":
            metrics[name] = untraced_s
        elif name == "trace.overhead_s":
            metrics[name] = traced_s - untraced_s
        elif name == "trace.spans":
            metrics[name] = len(tracer.spans)
        else:
            metrics[name] = tracer.counts[name]
    notes.update(traced_blocks=n_blocks, traced_s=traced_s, untraced_s=untraced_s,
                 overhead_share=(traced_s - untraced_s) / untraced_s,
                 layers={k: {"calls": c, "inclusive_s": t, "self_s": s}
                         for k, (c, t, s) in sorted(layers.items())})
    return metrics, tracer


def main(argv=None) -> int:
    args = _parse(argv)
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    missing = [p for p in ("BENCHMARK.json", "src/phasekey/cli.py", "tests/golden",
                           "tests/test_acceptance.py") if not (ROOT / p).exists()]
    if missing:
        print(f"perfbench: not a phasekey source checkout, missing {missing}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    if args.setup_probe:
        return _setup_probe(args)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {names}",
              file=sys.stderr)
        return 2
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}

    setups = [_time_setup(args) for _ in range(SETUP_REPEATS)]
    _import_program()
    import bench_workloads as bw
    from bench_trace import NullTracer

    tally = Tally()
    notes = {"setups": setups}
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        wl = bw.WORKLOADS[args.workload](args.seed, ROOT, Path(tmp))
        if not all(bw.layer_probe(Path(tmp), NullTracer(), with_checks=False)):
            print("perfbench: the warm-up probe failed", file=sys.stderr)
            return 2
        if args.trace:
            metrics, tracer = _traced(args, wl, tally, notes, setups, units)
        else:
            metrics = _measure(args, wl, tally, notes)
            metrics["setup_s"] = statistics.median(s["setup_s"] for s in setups)

    env = _environment(args)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(stem.with_suffix(".spans.jsonl"), env)
    result = {"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    stem.with_suffix(".json").write_text(json.dumps(
        {"environment": env, "result": result, "notes": notes,
         "failures": tally.failures}, indent=1, sort_keys=True) + "\n")

    for name, unit in units.items():
        print(f"{name:52s} {metrics[name]:>16.6g} {unit}")
    print(f"correct={result['correct']} attempted={tally.attempted} failed={tally.failed} "
          f"failed_share={tally.failed / max(1, tally.attempted):.4f}")
    for key in ("light_tail", "heavy_tail", "overhead_share"):
        if key in notes:
            print(f"{key}: {notes[key]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
