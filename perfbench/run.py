"""Run one benchmark workload at one seed and print its metrics.

    python3 perfbench/run.py --workload hull --seed 1 --seconds 30 --trace 0

Run it from the repository root; the library is imported from ./src.  The
workload runs in this one process as a closed loop with one client: the
next instance starts only when the previous one has returned and been
checked.  Process start-up is left out of every latency, so the numbers
measure the library rather than the interpreter launch.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, timed with no
wrappers installed.  --trace 1 reports the per-layer metrics: it runs a
fixed number of instances, each once untraced and once traced, so that
every count repeats exactly for a seed and the traced-to-untraced ratio is
the tracing overhead.  Spans are written to .bench_out/ when the traced
run ends.

The second-to-last line of output is a JSON detail record (sample counts,
error rate with its base, input mix, interpreter, core count); the last
line is the result record.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

from tracer import Tracer, metric_units
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MODULES = ("linprog", "linalg", "model", "syntax", "typespace", "definability",
           "mean", "pra", "serialize", "sampling", "cli")
SETUPS = 5             # set-ups per run; setup_s is their median


def import_library() -> SimpleNamespace:
    """Import affinelogic afresh, so that every set-up pays for the import."""
    for name in [k for k in sys.modules if k == "affinelogic" or k.startswith("affinelogic.")]:
        del sys.modules[name]
    importlib.import_module("affinelogic")
    return SimpleNamespace(**{m: importlib.import_module(f"affinelogic.{m}") for m in MODULES})


def set_up(wl, seed: int, workdir: Path, count: int, setups: int):
    """Set up `setups` times from scratch; the last set-up's pool is used."""
    times = []
    for _ in range(setups):
        lib = pool = None  # one pool alive at a time, so set-up adds no peak memory
        gc.collect()
        shutil.rmtree(workdir, ignore_errors=True)
        start = time.perf_counter()
        lib = import_library()
        pool = wl.make(lib, random.Random(f"{wl.name}:{seed}"), workdir, count)
        times.append(time.perf_counter() - start)
    return lib, pool, times


def run_instance(lib, wl, inst, i: int, tracer=None):
    """Time one instance's library calls, then check its outputs untimed.

    Returns the timed window and a failure message or None.
    """
    if tracer is not None:
        tracer.instance = i
    start = time.perf_counter()
    try:
        out = wl.run(lib, inst)
    except Exception as exc:  # a raising instance is a failed instance
        out = exc
    end = time.perf_counter()
    if tracer is not None:
        tracer.instance = None
    if isinstance(out, Exception):
        return start, end, f"instance {i} raised: {out!r}"
    try:
        wl.check(inst, out)
    except Exception as exc:  # a malformed result can break a check
        last = traceback.format_exception_only(type(exc), exc)[-1].strip()
        return start, end, f"instance {i} failed its check: {last}"
    return start, end, None


def latency_metrics(latencies: list) -> tuple[dict, int]:
    """Throughput and latency percentiles, and the sample count beyond p90."""
    p90 = statistics.quantiles(latencies, n=10)[8] if len(latencies) > 1 else latencies[0]
    return {
        "throughput_per_s": (len(latencies) / sum(latencies), "instances/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p90_ms": (p90 * 1e3, "ms"),
    }, sum(lat > p90 for lat in latencies)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 pool_size: int | None = None, traced: int | None = None,
                 setups: int = SETUPS):
    """Set up and run one workload; returns (detail, result) records."""
    wl = WORKLOADS[name]
    workdir = OUT / f"work-{name}-{seed}-{os.getpid()}"
    try:
        lib, pool, setup_times = set_up(wl, seed, workdir, pool_size or wl.pool, setups)
        gc.collect()
        gc.freeze()  # set-up objects stay out of the collector's scans
        detail = {
            "workload": name, "seed": seed, "trace": int(trace),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "loop": "closed, 1 client, in-process", "pool": len(pool),
            "setup_runs_s": setup_times,
        }
        start = time.perf_counter()
        failures = []
        if not trace:
            lat = []
            while time.perf_counter() < start + seconds:
                t0, t1, failure = run_instance(lib, wl, pool[len(lat) % len(pool)], len(lat))
                lat.append(t1 - t0)
                failures += [failure] if failure else []
            measured = lat
            metrics, beyond = latency_metrics(lat)
            metrics["setup_s"] = (statistics.median(setup_times), "s")
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
            detail.update(samples=len(lat), beyond_p90=beyond)
        else:
            # Each instance runs untraced, then traced: pairs taken seconds
            # apart see the same machine, so their ratio is the overhead.
            tracer = Tracer()
            tracer.bind()
            plain, traced_lat, windows = [], [], []
            for i in range(traced or wl.traced):
                if time.perf_counter() >= start + seconds:
                    break
                inst = pool[i % len(pool)]
                t0, t1, failure = run_instance(lib, wl, inst, i)
                plain.append(t1 - t0)
                failures += [failure] if failure else []
                tracer.install()
                try:
                    t0, t1, failure = run_instance(lib, wl, inst, i, tracer)
                finally:
                    tracer.uninstall()
                traced_lat.append(t1 - t0)
                windows.append((t0, t1))
                failures += [failure] if failure else []
            measured = plain + traced_lat
            busy = sum(traced_lat)
            values = tracer.metrics(len(traced_lat), busy, busy / sum(plain) - 1)
            units = metric_units()
            metrics = {k: (values[k], units[k]) for k in units}
            shares = sorted(((v / busy, k[:-len(".self_s")])
                             for k, v in values.items() if k.endswith(".self_s")), reverse=True)
            detail.update(
                paired_instances=len(traced_lat),
                lp_infeasible=round(values["linprog.infeasible_ratio"]
                                    * values["linprog.solve_standard.calls"]),
                self_share={k: s for s, k in shares if s > 0},
                spans_outside_timed=_spans_outside(tracer.spans, windows),
            )
        ran = len(traced_lat) if trace else len(lat)  # a traced pair counts once
        mix_of = [pool[i % len(pool)] for i in range(ran)]
        detail.update(
            seconds_measured=time.perf_counter() - start,
            error_rate=len(failures) / len(measured), error_base=len(measured),
            failures=failures[:5], mix=wl.mix(mix_of),
        )
        if trace:
            OUT.mkdir(exist_ok=True)
            with open(OUT / f"spans-{name}-{seed}.json", "w") as fh:
                json.dump({"detail": detail, "windows": windows, "spans": tracer.spans}, fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": not failures,
        "attempted": len(measured),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return detail, result


def _spans_outside(spans, windows) -> int:
    """Spans that do not lie inside the timed window of their instance."""
    return sum(
        not (windows[inst][0] <= start <= end <= windows[inst][1])
        for _, start, end, _, inst in spans
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "affinelogic" / "__init__.py").is_file():
        print(f"error: no library at {SRC / 'affinelogic'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    detail, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in detail["failures"]:
        print(line, file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
