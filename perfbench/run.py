"""qcausal benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout (the package is imported from
``src/``, nothing needs installing)::

    python3 perfbench/run.py --workload decide-unitary --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

An operation is one in-process ``qcausal.cli.run`` call on one generated
config, with its report and CSV writes.  One client runs operations in a
closed loop, in one process, with no threads of its own; OpenBLAS keeps its
default thread count, which must not exceed the CPUs the process may use.  A
run lasts at least ``--seconds`` and 100 operations, and ends on a workload
cycle boundary.  ``--workload all`` runs the four workloads in turn in one
process and prefixes each metric name with its workload; its
``peak_rss_mb`` is the process high-water mark so far.

Times are reported in reference seconds.  Before every operation the run
times a fixed kernel of small numpy linear algebra, Python loops and JSON
encoding that does not touch qcausal, and scales each cycle's wall times by
``REFERENCE_S`` over that kernel's median time in the cycle.  On a machine
whose effective speed drifts (on a shared 2-vCPU cloud VM the same work took
from 25 to 50 ms within minutes), the kernel slows with the operations, so
the ratio stays steady while raw wall time does not.  A machine on which the kernel
takes ``REFERENCE_S`` reports wall time unchanged.  The summary and the run
record also give the raw wall-clock figures and the speed factor.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` interleaves
untraced cycles with cycles that record a span around every call into the
functions listed in ``tracing.LAYERS``, and prints the per-layer metrics
(calls and self time per traced operation) plus ``trace.overhead_frac``: the
traced over the untraced cycle time, minus one, both taken from per-class
medians.

Every operation's results are checked against the answer its inputs were
built to have.  Results must be byte-identical whenever a config repeats, and
the first op of each size class is run again after the timed loop to check
that.  An operation fails if it raises, exits non-zero or breaks either
check; ``correct`` is false when any operation fails.  The one expected
non-zero exit is a ``nearest-product`` optimizer that stops at ``max_iter``
sweeps without converging, which the (8, 8) Haar inputs sometimes do at the
default of 500.  Its report is still checked against the input; it is counted
in the run's ``nonconverged`` tally, printed and stored with the run, and in
the traced run's ``converged_frac``, not in ``failed``, whose count would
otherwise follow the number of operations a timed run happens to reach.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Reports, CSVs, the
span arrays of a traced run and a JSON record of each run (machine facts,
raw times, per-class statistics, failures) go to ``.perfbench_out/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MIN_OPS = 100
SETUP_REPEATS = 3
#: Nominal time of ``reference_kernel``: about its time on an idle 2-vCPU
#: x86-64 VM with numpy 2.4 and OpenBLAS 0.3.
REFERENCE_S = 0.5e-3

#: (name, unit, better) of the end-to-end metrics.
END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("op_s.p50", "s", "lower"),
    ("op_s.p90", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)


def reference_kernel(m) -> float:
    """Fixed work in the program's style, timed to measure machine speed."""
    import numpy as np

    acc = 0.0
    for _ in range(8):
        s = np.linalg.svd(m, compute_uv=False)
        acc += float(s[0]) + float(np.einsum("ij,ji->", m, m).real)
        acc += len(json.dumps([[float(z.real), float(z.imag)] for z in m[0]]))
    return acc


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def by_class(workload, times) -> dict:
    """Times of whole cycles, grouped by the size class of their slot."""
    out: dict[str, list[float]] = {}
    for j, dt in enumerate(times):
        out.setdefault(workload.schedule[j % workload.cycle], []).append(dt)
    return out


def mix_time(workload, times) -> float:
    """Cycle time from per-class medians: robust to a few slow outliers."""
    return sum(
        len(v) * statistics.median(v) for v in by_class(workload, times).values()
    ) / (len(times) // workload.cycle)


def wire_matrix(m):
    import numpy as np

    return np.array([[re + 1j * im for re, im in row] for row in m])


def nearest_product_problem(op, results, code):
    """Check a nearest-product report against its input.

    Returns (why it is wrong or None, optimizer runs that stopped at
    ``max_iter`` without converging).  Every row must have converged or run
    exactly ``max_iter`` sweeps, and the exit code must be 2 exactly when a
    row did not converge.  A product input must converge to distance zero.
    Where the report carries ``u1`` and ``u2``, they must be unitary and
    their overlap and distance with the input must match the report.
    """
    import numpy as np

    max_iter = int(op.config.get("max_iter", 500))
    rows = results["rows"]
    if isinstance(op.nearest, int) and len(rows) != op.nearest:
        return f"{len(rows)} rows for {op.nearest} targets", 0
    stalled = 0
    for row in rows:
        if not row["converged"]:
            if row["iterations"] != max_iter:
                return f"stopped after {row['iterations']} sweeps unconverged", stalled
            stalled += 1
    if code != (2 if stalled else 0):
        return f"exit code {code} with {stalled} unconverged rows", stalled
    if op.nearest == "product" and not (rows[0]["converged"] and rows[0]["distance"] < 1e-6):
        return f"product input not found: {rows[0]}", stalled
    if "u1" in rows[0]:
        u = wire_matrix(op.config["unitary"])
        u1, u2 = wire_matrix(rows[0]["u1"]), wire_matrix(rows[0]["u2"])
        prod = np.kron(u1, u2)
        if not np.allclose(prod.conj().T @ prod, np.eye(len(u)), atol=1e-9):
            return "u1 (x) u2 is not unitary", stalled
        tr = np.trace(prod.conj().T @ u)
        distance = np.linalg.norm(u - tr / abs(tr) * prod)
        if abs(abs(tr) - rows[0]["overlap"]) > 1e-8 * len(u):
            return f"overlap {rows[0]['overlap']} but |tr| = {abs(tr)}", stalled
        if abs(distance - rows[0]["distance"]) > 1e-8:
            return f"distance {rows[0]['distance']} but {distance}", stalled
    return None, stalled


def digest(results) -> str:
    return hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()


def blas_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"vendor": blas.get("name"), "version": blas.get("version"), "threads": threads}


def machine_facts(seed: int) -> dict:
    import numpy as np

    from qcausal import _kernels

    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_facts(),
        "HAS_NUMBA": _kernels.HAS_NUMBA,
        "kernel_path": "numba" if _kernels.HAS_NUMBA else "numpy",
        "seed": seed,
    }


class Runner:
    """Runs the operations of one workload and checks their results."""

    def __init__(self, workload, out_dir: Path):
        import numpy as np

        from qcausal import cli
        from workloads import haar

        self.cli = cli
        self.workload = workload
        self.out_dir = out_dir
        self.reference_matrix = haar(8, np.random.default_rng(12345))
        self.reference_times: list[float] = []
        self.raw_times: list[float] = []
        self.digests: dict[str, str] = {}
        self.failures: list[str] = []
        self.passed: dict[int, bool] = {}
        self.nonconverged: dict[int, int] = {}

    def execute(self, op):
        """Run one op; returns (seconds, report or None, exit code, error)."""
        cli = self.cli
        t0 = time.perf_counter()
        try:
            report, code = cli.run(cli.ExperimentConfig.from_dict(op.config), self.out_dir)
            err = None
        except Exception:  # an op that raises is recorded as failed
            report, code, err = None, None, traceback.format_exc(limit=3)
        return time.perf_counter() - t0, report, code, err

    def check(self, op, report, code, err, i=None) -> bool:
        """True if op ``i`` passed; records why it did not."""
        if err is not None:
            return self._fail(op, f"raised: {err.strip().splitlines()[-1]}")
        results = report["results"]
        bad = {k: results.get(k) for k, v in op.expect.items() if results.get(k) != v}
        if bad:
            return self._fail(op, f"wrong verdict {bad}, expected {op.expect}")
        d = digest(results)
        if self.digests.setdefault(op.key, d) != d:
            return self._fail(op, "results differ between two runs")
        if op.nearest is not None:
            why, stalled = nearest_product_problem(op, results, code)
            if why is not None:
                return self._fail(op, why)
            if i is not None:
                self.nonconverged[i] = stalled
        elif code != 0:
            return self._fail(op, f"exit code {code}")
        return True

    def _fail(self, op, why: str) -> bool:
        self.failures.append(f"{op.key} ({op.config['experiment']}): {why}")
        return False

    def cycle(self, start: int, tracer=None) -> list[float]:
        """Run ops ``start`` .. ``start + cycle - 1``; returns their times in
        reference seconds."""
        raw, refs = [], []
        for i in range(start, start + self.workload.cycle):
            op = self.workload.op(i)
            t0 = time.perf_counter()
            reference_kernel(self.reference_matrix)
            refs.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.op_id = i
            dt, report, code, err = self.execute(op)
            raw.append(dt)
            self.passed[i] = self.check(op, report, code, err, i)
        self.raw_times += raw
        self.reference_times += refs
        scale = REFERENCE_S / statistics.median(refs)
        return [dt * scale for dt in raw]


def setup(workload_name: str, seed: int, out_dir: Path):
    """Generate the inputs and run one warm-up op per size class."""
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name](seed)
    runner = Runner(workload, out_dir)
    for i in workload.first.values():
        # Warm-up ops sit far past any timed op, so lattice masses differ.
        runner.execute(workload.op(10**6 * workload.cycle + i))
    return runner


def run_workload(name, seed, seconds, trace, min_ops=MIN_OPS, import_s=0.0, setup_fn=setup):
    """Run one workload; returns (result line dict, details dict)."""
    import tracing

    out_dir = OUT / name
    out_dir.mkdir(parents=True, exist_ok=True)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        runner = setup_fn(name, seed, out_dir)
        setup_times.append(time.perf_counter() - t0)

    # Closed loop over whole cycles.  A traced run interleaves untraced and
    # traced cycles (U T T U ...), so that both see the same machine load and,
    # for a class that takes its configs from a short list in turn, the same
    # configs.
    tracer = tracing.Tracer() if trace else None
    times = {False: [], True: []}
    cycle = runner.workload.cycle
    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_ops or time.perf_counter() < deadline or (trace and (i // cycle) % 2):
        traced = bool(trace) and (i // cycle) % 4 in (1, 2)
        if traced:
            tracer.install()
        try:
            times[traced] += runner.cycle(i, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        i += cycle
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Determinism: run the first op of each class again.
    for j in runner.workload.first.values():
        op = runner.workload.op(j)
        _, report, code, err = runner.execute(op)
        if not runner.check(op, report, code, err):
            runner.passed[j] = False

    speed = REFERENCE_S / statistics.median(runner.reference_times)
    attempted = len(runner.passed)
    failed = list(runner.passed.values()).count(False)
    if trace:
        metrics = tracer.layer_metrics(len(times[True]), scale=speed)
        metrics["trace.overhead_frac"] = (
            mix_time(runner.workload, times[True]) / mix_time(runner.workload, times[False])
            - 1.0
        )
        units = {n: u for n, u, _ in tracing.per_layer_metrics()}
        tracer.save(out_dir / f"spans-seed{seed}.npz")
    else:
        ordered = sorted(times[False])
        metrics = {
            "ops_per_s": len(ordered) / sum(ordered),
            "op_s.p50": percentile(ordered, 50),
            "op_s.p90": percentile(ordered, 90),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": (import_s + statistics.median(setup_times)) * speed,
        }
        units = {n: u for n, u, _ in END_TO_END}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    timed = times[bool(trace)]
    raw = sorted(runner.raw_times)
    details = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "samples": len(timed),
        "cycles": len(timed) // cycle,
        "fail_frac": failed / attempted,
        "nonconverged": sum(runner.nonconverged.values()),
        "nonconverged_ops": sum(map(bool, runner.nonconverged.values())),
        "nearest_product_ops": len(runner.nonconverged),
        "speed_factor": speed,
        "reference_s": REFERENCE_S,
        "wall": {
            "ops_per_s": len(raw) / sum(raw),
            "op_s.p50": percentile(raw, 50),
            "op_s.p90": percentile(raw, 90),
            "setup_s": import_s + statistics.median(setup_times),
        },
        "setup_times_s": setup_times,
        "import_s": import_s,
        "classes": {
            cls: {"n": len(v), "median_s": statistics.median(v)}
            for cls, v in by_class(runner.workload, timed).items()
        },
        "failures": runner.failures,
    }
    return result, details


def print_summary(result, details, machine):
    print(
        f"{details['workload']} seed={details['seed']} trace={details['trace']}: "
        f"{details['samples']} timed ops in {details['cycles']} cycles; "
        f"fail_frac {details['fail_frac']:.4g} ({result['failed']}/{result['attempted']}), "
        f"correct={result['correct']}"
    )
    if details["nearest_product_ops"]:
        print(
            f"  nearest-product: {details['nonconverged_ops']} of "
            f"{details['nearest_product_ops']} ops had an optimizer run stop at "
            f"max_iter unconverged ({details['nonconverged']} runs)"
        )
    print("  machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()))
    print(
        f"  speed factor {details['speed_factor']:.4g} (reference seconds per wall "
        "second); wall-clock: "
        + ", ".join(f"{k} {v:.6g}" for k, v in details["wall"].items())
    )
    for name, m in result["metrics"].items():
        print(f"  {name:<52} {m['value']:<14.6g} {m['unit']:<9} (n={details['samples']})")
    for cls, c in details["classes"].items():
        print(f"  class {cls:<10} n={c['n']:<5} median {c['median_s']:.6g} s")
    for why in details["failures"][:10]:
        print(f"  failed: {why}")


def main(argv=None) -> int:
    t_start = time.perf_counter()
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "qcausal" / "__init__.py").is_file():
        print(f"error: no qcausal sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (counted in the import time)
    import qcausal

    if Path(qcausal.__file__).resolve().parent != (SRC / "qcausal").resolve():
        print(f"error: imported qcausal from {qcausal.__file__}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t_start

    machine = machine_facts(args.seed)
    threads = machine["blas"]["threads"]
    if threads is not None and threads > len(machine["affinity"]):
        print("error: OpenBLAS runs more threads than usable CPUs", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result, details = run_workload(
            name, args.seed, args.seconds, args.trace, import_s=import_s
        )
        details["machine"] = machine
        (OUT / name / f"run-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps({"result": result, "details": details}, indent=1) + "\n"
        )
        print_summary(result, details, machine)
        if len(names) == 1:
            combined = result
        else:
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for k, v in result["metrics"].items():
                combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
