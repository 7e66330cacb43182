"""Self-test of the benchmark.  Run from the checkout root:

    python3 perfbench/selftest.py

Runs every workload for one cycle, untraced and traced, and checks that each
metric named in BENCHMARK.json is emitted with its unit, that a deliberately
wrong expected verdict is counted as a failure, that a nearest-product report
is checked against its input, that the printed result line has the agreed
form, and that the benchmark refuses to run without sources.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import shutil
import subprocess
import sys

import run
from workloads import WORKLOADS

SEED = 7


def check(cond: bool, what: str):
    if not cond:
        raise AssertionError(what)


def check_result(result: dict, units: dict, what: str):
    check(
        set(result) == {"correct", "attempted", "failed", "metrics"},
        f"{what}: result keys {sorted(result)}",
    )
    check(result["attempted"] >= 1, f"{what}: nothing attempted")
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    check(got == units, f"{what}: metrics {got} differ from BENCHMARK.json")
    for k, m in result["metrics"].items():
        check(math.isfinite(m["value"]), f"{what}: {k} is {m['value']}")


def flip_first_verdict(name, seed, out_dir):
    """Set-up whose op 0 expects the opposite causal verdict."""
    runner = run.setup(name, seed, out_dir)
    op = runner.workload.op

    def flipped(i):
        o = op(i)
        if i == 0:
            o = dataclasses.replace(o, expect={**o.expect, "causal": not o.expect["causal"]})
        return o

    runner.workload.op = flipped
    return runner


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check(
        [w["name"] for w in spec["workloads"]] == list(WORKLOADS),
        "BENCHMARK.json workloads differ from workloads.WORKLOADS",
    )
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}

    sys.path.insert(0, str(run.SRC))
    for name in WORKLOADS:
        result, _ = run.run_workload(name, SEED, 0.0, 0, min_ops=1)
        check_result(result, e2e, f"{name} untraced")
        check(result["correct"], f"{name}: wrong results at seed {SEED}")
        for k, m in result["metrics"].items():
            check(m["value"] > 0, f"{name}: {k} is not positive")

        result, _ = run.run_workload(name, SEED, 0.0, 1, min_ops=1)
        check_result(result, layers, f"{name} traced")
        calls = {k: m["value"] for k, m in result["metrics"].items()}
        applies = calls["channels.KrausChannel.apply.calls"]
        kernels = calls["kernels.impulse_response.calls"]
        check((applies > 0) == name.startswith("decide-"), f"{name}: apply calls {applies}")
        check((kernels > 0) == (name == "lattice-chain"), f"{name}: kernel calls {kernels}")
        print(f"ok  {name}: end-to-end and per-layer metrics")

    result, details = run.run_workload(
        "decide-unitary", SEED, 0.0, 0, min_ops=1, setup_fn=flip_first_verdict
    )
    check(result["failed"] >= 1 and details["fail_frac"] > 0, "wrong verdict not counted")
    check(not result["correct"], "wrong verdict left the run correct")
    print("ok  a wrong expected verdict counts in fail_frac")

    # A nearest-product run cut short at max_iter is reported honestly and
    # tallied; a report that misstates its distance is wrong.
    np_runner = run.setup("haar-sampling", SEED, run.OUT / "haar-sampling")
    op = next(
        np_runner.workload.op(i)
        for i in range(np_runner.workload.cycle * 3)
        if np_runner.workload.op(i).nearest == "haar"
    )
    op = dataclasses.replace(op, key="short", config={**op.config, "max_iter": 1})
    _, report, code, err = np_runner.execute(op)
    why, stalled = run.nearest_product_problem(op, report["results"], code)
    check(err is None and why is None and stalled == 1 and code == 2, f"unconverged: {why}")
    row = report["results"]["rows"][0]
    row["distance"] *= 1.001
    why, _ = run.nearest_product_problem(op, report["results"], code)
    check(why is not None, "a wrong nearest-product distance passed")
    print("ok  unconverged nearest-product is tallied; a wrong distance fails")

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(
            ["--workload", "lattice-chain", "--seed", str(SEED), "--seconds", "0", "--trace", "0"]
        )
    check(code == 0, f"run.main exited {code}")
    last = json.loads(out.getvalue().strip().splitlines()[-1])
    check_result(last, e2e, "printed result line")
    record = json.loads(
        (run.OUT / "lattice-chain" / f"run-seed{SEED}-trace0.json").read_text()
    )
    facts = set(record["details"]["machine"])
    check(
        {"nproc", "affinity", "python", "numpy", "blas", "HAS_NUMBA", "kernel_path", "seed"}
        <= facts,
        f"machine facts {sorted(facts)}",
    )
    print("ok  printed result line and machine facts")

    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, *spec["command"], "--workload", "lattice-chain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout, "ran without the sources")
    print("ok  refuses to run without the sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
