"""Runs one workload and prints its metrics; see run.py for the command."""
from __future__ import annotations

import json
import math
import os
import platform
import resource
import shutil
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from dcswin import tensor
from tracer import INCLUSIVE, PER_LAYER, Tracer, per_layer
from workloads import INPUT_SETS, WORKLOADS, Recorder

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 20
SETUP_FIRST = 5

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_ms.tail", "ms"),
)


def load_reference(workload: str, input_set: int) -> dict:
    path = HERE / "reference" / f"{workload}.json"
    return json.loads(path.read_text(encoding="utf-8"))["sets"][input_set]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def environment(workload, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "arm": workload.arm,
        "workload": workload.name,
        "seed": seed,
        "input_set": workload.input_set,
        "checked": tensor.is_checked(),
    }


def _require_checked() -> None:
    # The numbers must include the NaN/Inf screening users run with.
    if not tensor.is_checked():
        raise SystemExit("perfbench: NaN/Inf screening is off; not timing")


def end_to_end(workload, rec: Recorder, setup_s: list[float]) -> dict:
    return {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "latency_ms.tail": float(np.percentile(rec.latencies_ms,
                                               workload.tail_pct)),
    }


def run(name: str, seed: int, seconds: float, trace: bool,
        out_dir: Path) -> None:
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir))
    try:
        result, record = _run(name, seed, seconds, trace, work, out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for key, value in result["metrics"].items():
        print(f"{key:48s} {value['value']:16.6f} {value['unit']}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))


class SetupTimer:
    """Times `workload.setup()` SETUP_REPEATS times. The first SETUP_FIRST
    run before warm-up; the rest are spread over the measured phase, at the
    points between iterations that the workload offers, because the host's
    speed drifts over seconds and set-ups timed back to back would all land
    in one phase of it."""

    def __init__(self, workload, seconds: float):
        self.workload = workload
        self.seconds = seconds
        self.times: list[float] = []
        self.start = 0.0

    def sample(self) -> None:
        self.workload.release()
        t0 = time.perf_counter()
        self.workload.setup()
        self.times.append(time.perf_counter() - t0)

    def begin(self) -> None:
        self.start = time.perf_counter()

    def catch_up(self) -> None:
        share = (time.perf_counter() - self.start) / self.seconds
        due = SETUP_FIRST + math.ceil((SETUP_REPEATS - SETUP_FIRST) * share)
        while len(self.times) < min(due, SETUP_REPEATS):
            self.sample()

    def finish(self) -> None:
        while len(self.times) < SETUP_REPEATS:
            self.sample()


def _run(name, seed, seconds, trace, work, out_dir):
    cls = WORKLOADS[name]
    input_set = seed % INPUT_SETS
    ref = load_reference(name, input_set)
    workload = cls(input_set, work, ref)
    setup = SetupTimer(workload, seconds)
    setup_tracer = Tracer()
    if trace:
        setup_tracer.install()
    try:
        workload.synthesize()
        for _ in range(1 if trace else SETUP_FIRST):
            setup.sample()
    finally:
        setup_tracer.uninstall()

    _require_checked()
    warm = Recorder()
    workload.warmup(warm)
    recs = [warm]
    if trace:
        untraced = Recorder()
        workload.measure(seconds / 2, untraced)
        tracer = Tracer()
        traced = Recorder(tracer)
        tracer.install()
        try:
            workload.measure(seconds / 2, traced)
        finally:
            tracer.uninstall()
        recs += [untraced, traced]
        values = per_layer(tracer.spans, traced.iterations, setup_tracer.spans)
        values["tensor.tape_entries"] = workload.tape_entries()
        values["bench.tracing_overhead"] = (
            statistics.median(traced.latencies_ms)
            / statistics.median(untraced.latencies_ms))
        tracer.write(out_dir / f"spans-{name}-seed{seed}.jsonl")
        units = dict(PER_LAYER)
        timed = traced
    else:
        rec = Recorder()
        rec.on_pause = setup.catch_up
        setup.begin()
        workload.measure(seconds, rec)
        setup.finish()
        recs.append(rec)
        values = end_to_end(workload, rec, setup.times)
        units = dict(END_TO_END)
        timed = rec

    attempted = sum(r.attempted for r in recs)
    failed = sum(r.failed for r in recs)
    lat = timed.latencies_ms
    tail = np.percentile(lat, workload.tail_pct)
    record = {
        "environment": environment(workload, seed),
        "latency_samples": len(lat),
        "tail_percentile": workload.tail_pct,
        "samples_beyond_tail": int(sum(v > tail for v in lat)),
        "latency_ms.p50": statistics.median(lat),
        "runs": len(timed.run_s),
        "run_s": statistics.median(timed.run_s),
        "items_per_s": sum(timed.run_items) / sum(timed.run_s),
        "failed_frac": failed / attempted,
        "mismatches": [m for r in recs for m in r.mismatches],
    }
    if trace:
        record["inclusive_times"] = list(INCLUSIVE)
    else:
        record["setup_samples"] = len(setup.times)
    if hasattr(workload, "accuracy"):
        record["test_balanced_accuracy"] = workload.accuracy
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    return result, record
