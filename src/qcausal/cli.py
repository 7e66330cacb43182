"""Command-line experiment runner.

Usage::

    qcausal <experiment> --config cfg.json [--out-dir DIR] [--verbose]

with experiments ``check-causal``, ``sample-haar``, ``nearest-product``,
``perturb-ball`` and ``lattice-sorkin``.  The config is a JSON object that
must carry the experiment name and an integer ``seed`` (all randomness is
derived from it through fixed streams, so reruns of the same config produce
byte-identical reports apart from the wall-time field).  Exit codes: 0 on
success, 1 on a validation error (bad config or violated precondition),
2 when the experiment's assertion fails (for example a product-within-
tolerance hit while sampling the full unitary group).

Each run writes ``<experiment>-report.json`` into the output directory
(name overridable via the config's ``output`` object); ``sample-haar`` also
writes a per-sample CSV with columns sample_id, second_schmidt,
product_distance, seed, floats printed to 17 significant digits so they
round-trip exactly.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .causality import (
    is_causal_unitary,
    nearest_product_unitary,
    operator_schmidt_values,
    perturbation_probe,
    semicausal_defect,
    sorkin_violation,
)
from .channels import KrausChannel, from_unitary, zoo
from .lattice import (
    BuildOptions,
    LatticeSpec,
    Region,
    build_scenario,
    pauli_jordan,
    signalling_derivative,
    sorkin_chain,
)
from .sampling import (
    RngStream,
    haar_unitary,
    measure_zero_experiment,
    random_sorkin_scenario,
)
from .tensor import (
    Bipartition,
    SystemDims,
    all_bipartitions,
    from_re_im,
    to_re_im,
)

SCHEMA_VERSION = 1

EXPERIMENTS = (
    "check-causal",
    "sample-haar",
    "nearest-product",
    "perturb-ball",
    "lattice-sorkin",
)


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass
class ExperimentConfig:
    """Validated experiment request: name, seed, free-form params, output names."""

    experiment: str
    seed: int
    params: dict
    output: dict
    raw: dict

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        name = data.get("experiment")
        if name not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {name!r}; expected one of {', '.join(EXPERIMENTS)}"
            )
        if "seed" not in data:
            raise ConfigError("config must set an integer 'seed'")
        seed = data["seed"]
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
        output = data.get("output", {})
        if not isinstance(output, dict):
            raise ConfigError("'output' must be an object of file names")
        params = {
            k: v
            for k, v in data.items()
            if k not in ("experiment", "seed", "output")
        }
        return cls(experiment=name, seed=seed, params=params, output=output, raw=data)


# ---------------------------------------------------------------------------
# small converters
# ---------------------------------------------------------------------------


def _jsonify(obj):
    """Recursively convert numpy scalars/arrays so json.dumps accepts them."""
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    return obj


def _dims_from(params) -> SystemDims:
    if "dims" not in params:
        raise ConfigError("config must set 'dims' (list of local dimensions)")
    return SystemDims(params["dims"])


def _channel_from(params, dims: SystemDims, rng) -> KrausChannel:
    given = [k for k in ("unitary", "channel", "zoo") if k in params]
    if len(given) != 1:
        raise ConfigError(
            "config must set exactly one of 'unitary', 'channel' or 'zoo'"
        )
    if "unitary" in params:
        return from_unitary(from_re_im(params["unitary"]), dims)
    if "channel" in params:
        c = KrausChannel.from_json(params["channel"])
        if c.dims != dims:
            raise ConfigError("channel dims do not match config dims")
        return c
    spec = params["zoo"]
    if not isinstance(spec, dict) or "name" not in spec:
        raise ConfigError("'zoo' must be an object with a 'name'")
    zoo_params = dict(spec.get("params", {}))
    if spec["name"] == "local-random":
        zoo_params["rng"] = rng
    try:
        c = zoo(spec["name"], dims, **zoo_params)
    except (KeyError, TypeError) as exc:
        raise ConfigError(
            f"bad parameters for zoo channel {spec['name']!r}: {exc}"
        ) from exc
    if c.dims != dims:
        raise ConfigError(
            f"zoo channel {spec['name']!r} has dims {c.dims.dims}, "
            f"config says {dims.dims}"
        )
    return c


def emit_csv(records, path: Path, columns=None):
    """Write records (list of uniform dicts) as RFC-4180 CSV.

    Floats are printed with 17 significant digits so that reading them back
    with ``float`` reproduces the exact binary64 values.  An empty record
    list is allowed when ``columns`` is given explicitly (header-only file);
    otherwise the column set is taken from the first record.
    """
    if columns is None:
        if not records:
            raise ValueError("no records to infer csv columns from")
        columns = list(records[0].keys())
    else:
        columns = list(columns)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for rec in records:
            row = []
            for col in columns:
                v = rec[col]
                if isinstance(v, float):
                    row.append(format(v, ".17g"))
                else:
                    row.append(str(v))
            writer.writerow(row)


# ---------------------------------------------------------------------------
# experiment runners: each returns (results dict, passed flag)
# ---------------------------------------------------------------------------


def _run_check_causal(cfg: ExperimentConfig, out_dir: Path, verbose: bool):
    p = cfg.params
    dims = _dims_from(p)
    tol = float(p.get("tol", 1e-8))
    n_scenarios = int(p.get("n_scenarios", 20))
    rng = RngStream(cfg.seed).generator()
    channel = _channel_from(p, dims, rng)

    defects = []
    one_way = []
    for part in all_bipartitions(dims):
        per_dir = {}
        for sender in ("left", "right"):
            rep = semicausal_defect(channel, part, sender=sender)
            per_dir[sender] = rep.strength
            defects.append(
                {
                    "left": list(part.left),
                    "right": list(part.right),
                    "sender": sender,
                    "strength": rep.strength,
                }
            )
        flags = [per_dir["left"] > tol, per_dir["right"] > tol]
        if flags[0] != flags[1]:
            one_way.append({"left": list(part.left), "right": list(part.right)})
    defect_causal = all(d["strength"] <= tol for d in defects)

    sorkin_max = 0.0
    for part in all_bipartitions(dims):
        for oriented in (part, part.swapped()):
            for _ in range(n_scenarios):
                s = random_sorkin_scenario(oriented, channel, rng)
                sorkin_max = max(sorkin_max, abs(sorkin_violation(s)))
    sorkin_causal = sorkin_max <= tol

    results = {
        "dims": list(dims.dims),
        "tol": tol,
        "defects": defects,
        "causal": defect_causal,
        "one_way_directions": one_way,
        "sorkin_max": sorkin_max,
        "n_scenarios_per_direction": n_scenarios,
    }
    verdicts = [defect_causal, sorkin_causal]
    if channel.nkraus == 1:
        u = channel.kraus[0]
        schmidt = {
            "-".join(map(str, part.left)): [
                float(s) for s in operator_schmidt_values(u, part)
            ]
            for part in all_bipartitions(dims)
        }
        product_verdict = is_causal_unitary(u, dims, tol)
        results["schmidt_values_by_left_block"] = schmidt
        results["product_unitary"] = product_verdict
        verdicts.append(product_verdict)
    agree = len(set(verdicts)) == 1
    results["deciders_agree"] = agree
    if verbose:
        print(f"check-causal: verdicts {verdicts}, agree={agree}", file=sys.stderr)
    return results, agree


def _run_sample_haar(cfg: ExperimentConfig, out_dir: Path, verbose: bool):
    p = cfg.params
    dims = _dims_from(p)
    n_samples = int(p.get("n_samples", 1000))
    tol = float(p.get("tol", 1e-6))
    sampler = p.get("sampler", "global")
    offset = int(p.get("stream_offset", 0))
    expect = p.get("expect", "no-hits" if sampler == "global" else "all-hits")
    if expect not in ("no-hits", "all-hits", "none"):
        raise ConfigError("expect must be 'no-hits', 'all-hits' or 'none'")
    stats = measure_zero_experiment(
        dims, n_samples, tol, RngStream(cfg.seed, offset), sampler=sampler
    )
    csv_name = cfg.output.get("csv", f"{cfg.experiment}-samples.csv")
    emit_csv(stats.records, out_dir / csv_name)
    results = {
        "dims": list(stats.dims),
        "n_samples": stats.n_samples,
        "tol": stats.tol,
        "sampler": stats.sampler,
        "stream_offset": offset,
        "count_product_within_tol": stats.count_product_within_tol,
        "min_second_schmidt": stats.min_second_schmidt,
        "min_product_distance": stats.min_product_distance,
        "histogram": {
            "edges": stats.histogram_edges,
            "counts": stats.histogram_counts,
        },
        "csv": csv_name,
        "expect": expect,
    }
    if expect == "no-hits":
        passed = stats.count_product_within_tol == 0
    elif expect == "all-hits":
        passed = stats.count_product_within_tol == n_samples
    else:
        passed = True
    if verbose:
        print(
            f"sample-haar[{sampler}]: {stats.count_product_within_tol}/{n_samples} "
            f"product hits at tol {tol:g}",
            file=sys.stderr,
        )
    return results, passed


def _run_nearest_product(cfg: ExperimentConfig, out_dir: Path, verbose: bool):
    p = cfg.params
    dims = _dims_from(p)
    part = Bipartition.split(dims, tuple(p.get("left_sites", (0,))))
    tol = float(p.get("tol", 1e-12))
    max_iter = int(p.get("max_iter", 500))
    rng = RngStream(cfg.seed).generator()
    targets = []
    if "n_samples" in p:
        for i in range(int(p["n_samples"])):
            targets.append((f"haar-{i}", haar_unitary(dims.total, rng)))
    else:
        channel = _channel_from(p, dims, rng)
        if channel.nkraus != 1:
            raise ConfigError("nearest-product needs a unitary input")
        targets.append(("input", channel.kraus[0]))
    rows = []
    for label, u in targets:
        res = nearest_product_unitary(u, part, tol=tol, max_iter=max_iter)
        row = {
            "label": label,
            "overlap": res.overlap,
            "distance": res.distance,
            "iterations": res.iterations,
            "converged": res.converged,
        }
        if len(targets) == 1:
            row["u1"] = to_re_im(res.u1)
            row["u2"] = to_re_im(res.u2)
        rows.append(row)
        if verbose:
            print(
                f"nearest-product {label}: distance {res.distance:.6g} "
                f"in {res.iterations} sweeps",
                file=sys.stderr,
            )
    results = {
        "dims": list(dims.dims),
        "left_sites": list(part.left),
        "rows": rows,
    }
    return results, all(r["converged"] for r in rows)


def _run_perturb_ball(cfg: ExperimentConfig, out_dir: Path, verbose: bool):
    p = dict(cfg.params)
    p.setdefault("dims", [2, 2])
    dims = _dims_from(p)
    part = Bipartition.split(dims, tuple(p.get("left_sites", (0,))))
    sender = p.get("sender", "left")
    epsilons = [float(e) for e in p.get("epsilons", [1e-1, 1e-2, 1e-3, 1e-4])]
    rtol = float(p.get("linearity_rtol", 1e-9))
    tol = float(p.get("tol", 1e-10))
    rng = RngStream(cfg.seed).generator()
    causal = _channel_from({"zoo": p.get("causal", {"name": "identity"})}, dims, rng)
    acausal = _channel_from(
        {"zoo": p.get("acausal", {"name": "classical-one-way"})}, dims, rng
    )
    rows = perturbation_probe(
        causal, acausal, epsilons, part, sender=sender, tol=tol
    )
    table = []
    for r in rows:
        table.append(
            {
                "epsilon": r.epsilon,
                "defect": r.defect,
                "defect_over_epsilon": r.defect / r.epsilon if r.epsilon else 0.0,
                "choi_distance": r.choi_distance,
                "choi_distance_over_epsilon": (
                    r.choi_distance / r.epsilon if r.epsilon else 0.0
                ),
            }
        )

    def spread(key):
        vals = [row[key] for row in table if row["epsilon"] > 0]
        mean = sum(vals) / len(vals)
        return (max(vals) - min(vals)) / abs(mean) if mean else 0.0

    defect_spread = spread("defect_over_epsilon")
    choi_spread = spread("choi_distance_over_epsilon")
    linear = defect_spread <= rtol and choi_spread <= rtol
    results = {
        "dims": list(dims.dims),
        "sender": sender,
        "rows": table,
        "defect_ratio_spread": defect_spread,
        "choi_ratio_spread": choi_spread,
        "linearity_rtol": rtol,
        "linear": linear,
    }
    if verbose:
        print(
            f"perturb-ball: ratio spreads {defect_spread:.3g} / {choi_spread:.3g}",
            file=sys.stderr,
        )
    return results, linear


def _run_lattice_sorkin(cfg: ExperimentConfig, out_dir: Path, verbose: bool):
    p = cfg.params
    if "lattice" not in p or "k_region" not in p:
        raise ConfigError("config must set 'lattice' and 'k_region'")
    lat_cfg = p["lattice"]
    lattice = LatticeSpec(
        n_sites=int(lat_cfg["n_sites"]),
        n_steps=int(lat_cfg["n_steps"]),
        mass=float(lat_cfg.get("mass", 1.0)),
    )
    k = Region([(int(t), int(x)) for t, x in p["k_region"]])
    opts_cfg = p.get("build_opts", {})
    opts = BuildOptions(
        time_gap=int(opts_cfg.get("time_gap", 2)),
        bump_half_t=int(opts_cfg.get("bump_half_t", 1)),
        bump_half_x=int(opts_cfg.get("bump_half_x", 1)),
    )
    lambdas = [float(v) for v in p.get("lambdas", [0.0, 0.5, 1.0])]
    atol = float(p.get("identity_atol", 1e-12))
    require_nonzero = bool(p.get("require_nonzero", False))

    f, g, h = build_scenario(lattice, k, opts)
    dfg = pauli_jordan(lattice, f, g)
    dfh = pauli_jordan(lattice, f, h)
    dhg = pauli_jordan(lattice, h, g)
    deriv = signalling_derivative(lattice, f, g, h)

    rows = []
    ok = dhg == 0.0
    for lam in lambdas:
        chain = sorkin_chain(lattice, f, g, h, lam)
        expected_scalar = -2.0 * lam * dfg * dfh
        row = {
            "lam": lam,
            "coeff_g": chain.coefficient(g),
            "coeff_f": chain.coefficient(f),
            "scalar": chain.expectation,
            "expected_coeff_f": -2.0 * dfg,
            "expected_scalar": expected_scalar,
        }
        ok = (
            ok
            and abs(row["coeff_g"] - 1.0) <= atol
            and abs(row["coeff_f"] - row["expected_coeff_f"]) <= atol
            and abs(row["scalar"] - expected_scalar) <= atol
        )
        rows.append(row)
    ok = ok and abs(deriv - (-2.0 * dfg * dfh)) <= atol
    if require_nonzero:
        ok = ok and deriv != 0.0

    def support_json(tf):
        return [[t, x, tf.values[(t, x)]] for t, x in tf.support]

    results = {
        "lattice": {
            "n_sites": lattice.n_sites,
            "n_steps": lattice.n_steps,
            "mass": lattice.mass,
        },
        "delta_fg": dfg,
        "delta_fh": dfh,
        "delta_hg": dhg,
        "derivative": deriv,
        "expected_derivative": -2.0 * dfg * dfh,
        "rows": rows,
        "identity_ok": ok,
        "supports": {
            "f": support_json(f),
            "g": support_json(g),
            "h": support_json(h),
        },
    }
    if verbose:
        print(
            f"lattice-sorkin: derivative {deriv:.6g}, identity_ok={ok}",
            file=sys.stderr,
        )
    return results, ok


RUNNERS = {
    "check-causal": _run_check_causal,
    "sample-haar": _run_sample_haar,
    "nearest-product": _run_nearest_product,
    "perturb-ball": _run_perturb_ball,
    "lattice-sorkin": _run_lattice_sorkin,
}


def run(cfg: ExperimentConfig, out_dir: Path, verbose: bool = False):
    """Execute one experiment; returns (report dict, exit code)."""
    start = time.perf_counter()
    results, passed = RUNNERS[cfg.experiment](cfg, out_dir, verbose)
    report = {
        "schema_version": SCHEMA_VERSION,
        "experiment": cfg.experiment,
        "tool_version": __version__,
        "config": cfg.raw,
        "results": _jsonify(results),
        "passed": bool(passed),
        "wall_time_s": time.perf_counter() - start,
    }
    report_name = cfg.output.get("report", f"{cfg.experiment}-report.json")
    path = out_dir / report_name
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report, (0 if passed else 2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qcausal",
        description="Causality experiments for quantum channels and lattice fields.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument("--out-dir", default=".", help="directory for reports")
        sp.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    try:
        try:
            raw = json.loads(Path(args.config).read_text())
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {args.config}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        cfg = ExperimentConfig.from_dict(raw)
        if cfg.experiment != args.experiment:
            raise ConfigError(
                f"config is for {cfg.experiment!r} but the "
                f"{args.experiment!r} subcommand was invoked"
            )
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        report, code = run(cfg, out_dir, args.verbose)
    except ValueError as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    status = "PASS" if code == 0 else "FAIL"
    print(f"{args.experiment}: {status}")
    return code


if __name__ == "__main__":
    sys.exit(main())
