"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Run it from the repository root.  For every workload it runs a short
untraced and a short traced run in this process and checks that every
metric BENCHMARK.json names is reported with its unit and a finite value,
that no instance fails, that the predicted zero counts hold (no LP on
means, no extreme_points on checks or means), and that every span lies
inside a timed window, never in set-up.  It also checks that the input
generator refuses a product cap it cannot meet.  Exits 0 when all pass.
"""

from __future__ import annotations

import json
import math
import random
import sys

import run
from workloads import WORKLOADS, structure_family

ZERO_ON = {
    "linprog.solve_standard.calls": ("means",),
    "typespace.extreme_points.calls": ("checks", "means"),
}
SIZES = {"hull": 4, "checks": 16, "means": 4, "cli": 2}  # pool = traced count


def check_run(name: str, trace: bool, want: dict) -> list:
    size = SIZES[name]
    seconds = 60.0 if trace else 2.0  # a traced run stops after its fixed count
    detail, result = run.run_workload(name, 0, seconds, trace, pool_size=size, traced=size, setups=1)
    tag = f"{name} trace={int(trace)}"
    got = result["metrics"]
    problems = []
    if set(got) != set(want):
        problems.append(f"{tag}: metric names differ: {sorted(set(got) ^ set(want))}")
    for k, unit in want.items():
        m = got.get(k)
        if m is not None and (m["unit"] != unit or not math.isfinite(m["value"])):
            problems.append(f"{tag}: {k} = {m}")
    if result["failed"] or not result["correct"] or detail["error_rate"] != 0:
        problems.append(f"{tag}: failures {detail['failures']}")
    if trace:
        for metric, workloads in ZERO_ON.items():
            if name in workloads and got[metric]["value"] != 0:
                problems.append(f"{tag}: {metric} = {got[metric]['value']}, predicted 0")
        if detail["spans_outside_timed"]:
            problems.append(f"{tag}: {detail['spans_outside_timed']} spans outside timed windows")
        if got["bench.instances"]["value"] != size:
            problems.append(f"{tag}: traced {got['bench.instances']['value']} of {size} instances")
    print(("FAIL " if problems else "ok   ") + tag, flush=True)
    return problems


def main() -> int:
    if not (run.SRC / "affinelogic").is_dir():
        print(f"error: no library at {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for name in WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            problems += check_run(name, trace, {m["name"]: m["unit"] for m in spec[section]})

    lib = run.import_library()
    try:
        structure_family(lib, random.Random(0), 4, 6, 12)
        problems.append("structure_family accepted 4 factors under product cap 12")
    except ValueError:
        pass

    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
