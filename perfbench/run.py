"""Benchmark runner for anires: one workload, one seed, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The runner is single-process, single-threaded
and closed-loop: it starts the next item only after the previous one has
returned.  It imports ``anires`` from ``src/`` next to this directory, calls
only its public API and hands it only the generated inputs.

``--trace 0`` (timed run): set-up (a fresh import of ``anires`` plus the
workload's tables) is repeated (see SETUP_MIN) and its median reported as
``setup_s``; then whole passes of items run until the items' summed time
reaches ``--seconds`` and at least the workload's ``min_passes`` have run.
Every item's output is checked after its timer stops.

Reported times are in reference seconds: wall seconds times REF_BURST_S over
the time of a fixed calibration burst (``burst``), measured just before,
during (from a timer signal) and just after the timed call; see ``timed``.
A shared 2-vCPU virtual machine was seen to change speed by up to 2x
within seconds, in CPU time as much as in wall time; the burst slows down
with it, so the ratio stays much steadier than wall time.  Wall times are in
the report line.

``--trace 1`` (traced run): a fixed number of passes, derived from
``--seconds`` and the workload's nominal pass time so that counts repeat
exactly for one seed, runs once untraced and once with the layer wrappers of
``tracing.py`` installed (set-up included).  It reports the per-layer metrics
and ``trace.overhead_ratio``, the traced items' time over the untraced
items' time; spans go to ``perfbench/out/``.

Standard output ends with a report line (environment, digests, failures) and
then the result line: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit status is 0 when every gate passed, 1 when one
failed, 2 when the benchmark cannot run.  The benchmark changes no machine
setting: the load average and the burst time, recorded at the start and end
of every run, let a noisy run be recognised, and the bursts next to every
timed call scale the machine's speed out of the reported times, but the
noise itself is not prevented.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import sys
import traceback
import types
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import NamedTuple, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Set-up runs at least SETUP_MIN times and, while it is cheap, until
# SETUP_BUDGET_S seconds are spent (at most SETUP_MAX times).
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 25, 1.5
# About the calibration burst's time on a shared 2-vCPU virtual machine
# (Python 3.11) at its fastest, so reference seconds stay close to wall
# seconds there.
REF_BURST_S = 0.001
# Around a timed call the machine's speed is probed with the median of
# PROBE_BURSTS bursts; during the call a timer signal runs one burst every
# SAMPLE_S seconds, so a long call's speed is sampled while it runs.
PROBE_BURSTS, SAMPLE_S = 3, 0.01

sys.path.insert(0, str(HERE))
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, GateError  # noqa: E402


def load_average() -> float:
    try:
        with open("/proc/loadavg") as fh:
            return float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return -1.0


def burst() -> float:
    """Seconds taken by the calibration burst: a fixed mix of dict, float and
    Fraction work that uses no part of anires.  Under contention it slows
    down about as much as the workloads do; a plain integer loop slows down
    only half as much."""
    start = perf_counter()
    table, total, exact = {}, 0.0, Fraction(0)
    for i in range(1, 1500):
        key = (i % 37, i % 11)
        table[key] = table.get(key, 0) + i * i
        total += math.exp(-i * 1e-3) * math.sin(i)
    for i in range(1, 60):
        exact += Fraction(i, i * i + 1) ** 3
    return perf_counter() - start


def probe() -> float:
    """The machine's speed next to a timed call: median burst time."""
    return statistics.median(burst() for _ in range(PROBE_BURSTS))


class Timing(NamedTuple):
    result: object  # None when the call raised ``error``
    error: Optional[Exception]
    wall: float  # seconds, without the bursts run during the call
    burst: float  # harmonic mean of the probes and the samples, in seconds
    ref: float  # reference seconds: wall * REF_BURST_S / burst


_sampled = [0.0]  # seconds spent in speed samples so far


def work_clock() -> float:
    """perf_counter without the time spent in speed samples."""
    return perf_counter() - _sampled[0]


def timed(call) -> Timing:
    """Run ``call`` between two probes of the machine's speed, sampling it
    with a burst every SAMPLE_S seconds during the call.  The samples' own
    time is left out of the wall time (see work_clock)."""
    samples = []

    def sample(signum, frame):
        began = perf_counter()
        samples.append(burst())
        _sampled[0] += perf_counter() - began

    before = probe()
    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
    start = work_clock()
    try:
        result, error = call(), None
    except Exception as exc:  # an item that raises is recorded, not fatal
        result, error = None, exc
    finally:
        wall = work_clock() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    speeds = [before, probe(), *samples]
    mean = len(speeds) / sum(1 / b for b in speeds)
    return Timing(result, error, wall, mean, wall * REF_BURST_S / mean)


def load_references() -> dict:
    ref = HERE / "reference"
    with open(ref / "exact.json") as fh:
        exact = json.load(fh)
    figures = {}
    for path in sorted((ref / "figures").glob("*.csv")):
        figures[path.stem] = path.read_bytes()
    return {"exact": exact, "figures": figures}


def fresh_import() -> types.SimpleNamespace:
    """Import anires from src/ anew (dropping any earlier import)."""
    for name in [n for n in sys.modules if n == "anires" or n.startswith("anires.")]:
        del sys.modules[name]
    anires = importlib.import_module("anires")
    if Path(anires.__file__).resolve().parent != SRC / "anires":
        raise ImportError(f"anires imported from {anires.__file__}, not from {SRC}")
    names = ("benderwu", "borel", "cli", "model", "qm", "series", "vpt")
    return types.SimpleNamespace(**{n: importlib.import_module(f"anires.{n}") for n in names})


def timed_setup(workload):
    """Repeat set-up (see SETUP_MIN); return the last api and state and the
    Timing of every repetition."""

    def setup():
        api = fresh_import()
        return api, workload.setup(api)

    runs = []
    while len(runs) < SETUP_MIN or (sum(r.wall for r in runs) < SETUP_BUDGET_S
                                    and len(runs) < SETUP_MAX):
        api = state = t = None  # drop the previous set-up's state first
        t = timed(setup)
        if t.error is not None:
            raise t.error
        api, state = t.result
        runs.append(t._replace(result=None))
    return api, state, runs


def _sha(lines) -> str:
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


class Record:
    """Latencies, failures and digests of the items run so far."""

    def __init__(self):
        self.latencies = []  # wall seconds of each item
        self.scaled = []  # the same in reference seconds
        self.bursts = []  # burst time next to each item (Timing.burst)
        self.pass_rates = []  # items per reference second of each whole pass
        self.failures = []
        self.first_pass = None  # (inputs digest, outputs digest) of pass 0

    def run_pass(self, workload, api, state, seed, index, tracer=None):
        rng = random.Random(f"{workload.name}/{seed}/{index}")
        first = len(self.latencies)
        labels, summaries = [], []
        for item in workload.pass_items(api, state, rng):
            if tracer is not None:
                tracer.item = item.label
            labels.append(item.label)
            t = timed(item.run)
            self.latencies.append(t.wall)
            self.scaled.append(t.ref)
            self.bursts.append(t.burst)
            if t.error is not None:  # an item that raises counts as failed
                self.failures.append(f"{item.label}: {type(t.error).__name__}: {t.error}")
                summaries.append("FAILED")
                continue
            try:
                with tracer.paused() if tracer else contextlib.nullcontext():
                    summary = item.check(t.result)
            except GateError as exc:
                self.failures.append(f"{item.label}: gate: {exc}")
                summary = "FAILED"
            except Exception as exc:
                self.failures.append(f"{item.label}: check raised {type(exc).__name__}: {exc}")
                summary = "FAILED"
            summaries.append(summary)
        done = self.scaled[first:]
        self.pass_rates.append(len(done) / sum(done))
        if index == 0:
            self.first_pass = (_sha(labels), _sha(summaries))


def percentile(values, q):
    """q-th percentile (0 < q < 100), as statistics.quantiles gives it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def run_timed(workload, seed, seconds):
    api, state, setups = timed_setup(workload)
    record = Record()
    index = 0
    while index < workload.min_passes or sum(record.latencies) < seconds:
        record.run_pass(workload, api, state, seed, index)
        index += 1
    lat = record.scaled
    metrics = {
        "setup_s": (statistics.median(r.ref for r in setups), "s"),
        "items_per_s": (statistics.median(record.pass_rates), "1/s"),
        "item_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "item_p90_ms": (percentile(lat, 90) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    wall = record.latencies
    details = {"passes": index, "items": len(lat), "busy_wall_s": sum(wall),
               "items_beyond_p90": sum(x * 1e3 > metrics["item_p90_ms"][0] for x in lat),
               "wall_item_p50_ms": statistics.median(wall) * 1e3,
               "wall_item_p90_ms": percentile(wall, 90) * 1e3,
               "setup_wall_s": [r.wall for r in setups],
               "burst_ms": [round(b * 1e3, 3) for b in
                            statistics.quantiles(record.bursts, n=4)]}
    return record, metrics, details


def trace_passes(workload, seconds) -> int:
    """Passes per traced run: half of --seconds untraced, half traced."""
    return max(1, round(seconds / 2 / workload.nominal_pass_s))


def run_traced(workload, seed, seconds):
    passes = trace_passes(workload, seconds)
    api = fresh_import()
    plain = Record()
    state = workload.setup(api)
    for index in range(passes):
        plain.run_pass(workload, api, state, seed, index)
    state = None
    traced = Record()
    tracer = Tracer(clock=work_clock)
    tracer.install()
    try:
        tracer.item = "setup"
        state = workload.setup(api)
        for index in range(passes):
            traced.run_pass(workload, api, state, seed, index, tracer)
    finally:
        tracer.uninstall()
    scale = REF_BURST_S / statistics.median(traced.bursts)
    metrics = {name: (value * scale if unit == "s" else value, unit)
               for name, (value, unit) in tracer.metrics().items()}
    metrics["trace.overhead_ratio"] = (sum(traced.scaled) / sum(plain.scaled), "ratio")
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-seed{seed}.json"
    tracer.write_spans(spans_path)
    traced.failures += [f"untraced pass: {f}" for f in plain.failures]
    if traced.first_pass != plain.first_pass:
        traced.failures.append("traced and untraced first passes differ in inputs or outputs")
    traced.latencies += plain.latencies
    traced.scaled += plain.scaled
    details = {"passes": passes, "items": len(traced.latencies), "spans": len(tracer.spans),
               "spans_file": str(spans_path.relative_to(ROOT))}
    return traced, metrics, details


def environment() -> dict:
    return {"python": platform.python_version(), "cpu_count": os.cpu_count(),
            "loadavg_1m": load_average(),
            "calibration_ms": statistics.median(burst() for _ in range(5)) * 1e3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    env_start = environment()
    if not (SRC / "anires" / "__init__.py").is_file():
        print(f"error: no anires package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        refs = load_references()
    except (OSError, ValueError) as exc:
        print(f"error: cannot load reference data: {exc}", file=sys.stderr)
        return 2
    out_dir = OUT / f"figures-{os.getpid()}"
    workload = WORKLOADS[args.workload](refs, str(out_dir))
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        runner = run_traced if args.trace else run_timed
        record, metrics, details = runner(workload, args.seed, args.seconds)
    except Exception:  # set-up or the tracer broke: no result can be given
        traceback.print_exc()
        return 2
    finally:
        for path in out_dir.glob("*"):
            path.unlink()
        out_dir.rmdir()

    attempted, failed = len(record.latencies), len(record.failures)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "env_start": env_start, "env_end": environment(), **details,
        "fail_ratio": failed / attempted, "failures": record.failures,
        "inputs_digest": record.first_pass[0], "outputs_digest": record.first_pass[1],
    }
    if hasattr(workload, "byte_identical"):
        report["figures_byte_identical"] = workload.byte_identical
    print(json.dumps({"report": report}, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
