"""Command-line experiment runner.

Usage::

    qcausal <experiment> --config cfg.json [--out-dir DIR]

with experiments ``check-causal``, ``sample-haar``, ``nearest-product``,
``perturb-ball`` and ``lattice-sorkin``.  The config is a JSON object that
must carry the experiment name and an integer ``seed`` (all randomness is
derived from it through fixed streams, so reruns of the same config produce
byte-identical reports apart from the wall-time field).  Exit codes: 0 on
success, 1 on a refusal (bad arguments or config, violated precondition),
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
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .causality import (
    DefectPasses,
    nearest_product_unitaries,
    operator_schmidt_values,
    perturbation_probe,
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
    SAMPLE_BLOCK,
    SCENARIO_BLOCK,
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


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass
class ExperimentConfig:
    """Validated experiment request: name, seed, params, output names.

    ``params`` holds every field of the experiment's table entry that the
    config sets or that has a default; ``raw`` is the config as given.
    """

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
        if not isinstance(name, str) or name not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {name!r}; expected one of {', '.join(EXPERIMENTS)}"
            )
        _, one_of, fields = EXPERIMENTS[name]
        p = _validate({**_COMMON, **fields}, data)
        if one_of and sum(k in p for k in one_of) != 1:
            raise ConfigError(
                f"config must set exactly one of {', '.join(map(repr, one_of))}"
            )
        del p["experiment"]
        seed, output = p.pop("seed"), p.pop("output")
        cfg = cls(experiment=name, seed=seed, params=p, output=output, raw=data)
        # sample-haar alone writes a CSV, which its report must not overwrite
        if name == "sample-haar" and cfg.csv_name == cfg.report_name:
            raise ConfigError(
                f"the report and the CSV would both be written to {cfg.report_name!r}"
            )
        return cfg

    @property
    def report_name(self) -> str:
        return self.output.get("report", f"{self.experiment}-report.json")

    @property
    def csv_name(self) -> str:
        return self.output.get("csv", f"{self.experiment}-samples.csv")


# ---------------------------------------------------------------------------
# field checks: each takes (field name, JSON value), raises ConfigError or
# returns the value to store (numbers that are read as reals become floats)
# ---------------------------------------------------------------------------

#: Default of a field the config must set.  A default of ``None`` marks an
#: optional field without one: it is left out of ``params`` when not given.
REQUIRED = object()


def _validate(fields: dict, data: dict, prefix: str = "") -> dict:
    """Check ``data`` against ``{name: (default, check)}``; fill in defaults."""

    def fail(what, names):
        listed = ", ".join(repr(prefix + k) for k in names)
        raise ConfigError(f"{what} field{'s' if len(names) > 1 else ''} {listed}")

    unknown = [k for k in data if k not in fields]
    if unknown:
        fail("unknown", unknown)
    out, missing = {}, []
    for k, (default, check) in fields.items():
        if k in data:
            out[k] = check(prefix + k, data[k])
        elif default is REQUIRED:
            missing.append(k)
        elif default is not None:
            out[k] = default
    if missing:
        fail("missing required", missing)
    return out


def _rule(want: str, ok, convert=None):
    def check(name, value):
        if not ok(value):
            raise ConfigError(f"{name!r} must be {want}, got {value!r}")
        return value if convert is None else convert(value)

    return check


def _object(**fields):
    """A nested object, checked field by field like the config itself."""

    def check(name, value):
        return _validate(fields, _OBJECT(name, value), name + ".")

    return check


def _is_int(v) -> bool:
    return type(v) is int  # not bool, although bool subclasses int


def _is_real(v) -> bool:
    return type(v) in (int, float) and abs(v) <= sys.float_info.max  # not NaN/inf


def _is_ints(v) -> bool:
    return type(v) is list and all(map(_is_int, v))


def _is_reals(v) -> bool:
    return type(v) is list and all(map(_is_real, v))


def _floats(v) -> list:
    return [float(x) for x in v]


_INT = _rule("an integer", _is_int)
_NATURAL = _rule("an integer >= 0", lambda v: _is_int(v) and v >= 0)
_COUNT = _rule("an integer >= 1", lambda v: _is_int(v) and v >= 1)
_REAL = _rule("a finite number", _is_real, float)
_TOL = _rule("a finite number >= 0", lambda v: _is_real(v) and v >= 0, float)
_REALS = _rule("a list of finite numbers", _is_reals, _floats)
_EPSILONS = _rule(
    "a list of numbers in [0, 1], one > 0",
    lambda v: _is_reals(v) and all(0 <= e <= 1 for e in v) and max(v, default=0) > 0,
    _floats,
)
_WEIGHT = _rule("a number in [0, 1]", lambda v: _is_real(v) and 0 <= v <= 1, float)
_FLAG = _rule("true or false", lambda v: type(v) is bool)
_TEXT = _rule("a string", lambda v: type(v) is str)
_FILE = _rule(
    "a file name", lambda v: type(v) is str and v not in ("", ".", "..") and "/" not in v
)
_LIST = _rule("a list", lambda v: type(v) is list)
_OBJECT = _rule("an object", lambda v: type(v) is dict)
_SITES = _rule("a list of integers", _is_ints)
# one site has no bipartition to test
_DIMS = _rule("a list of at least 2 integers", lambda v: _is_ints(v) and len(v) >= 2)
_REGION = _rule(
    "a list of [t, x] integer pairs",
    lambda v: type(v) is list
    and all(type(p) is list and len(p) == 2 and type(p[0]) is type(p[1]) is int for p in v),
)


def _choice(*options):
    return _rule(" or ".join(map(repr, options)), lambda v: v in options)


#: The zoo channels a config may name, each with its own params table.
ZOO = {
    "identity": {},
    "cnot": {},
    "swap": {"d": (2, _rule("an integer >= 2", lambda v: _is_int(v) and v >= 2))},
    "depolarizing": {"lam": (REQUIRED, _WEIGHT)},
    "classical-one-way": {},
    "local-random": {},
}
_ZOO_SPEC = _object(name=(REQUIRED, _choice(*ZOO)), params=({}, _OBJECT))


def _zoo(name, value):
    """A zoo channel ``{"name", "params"}``, params checked against its entry."""
    spec = _ZOO_SPEC(name, value)
    spec["params"] = _validate(ZOO[spec["name"]], spec["params"], name + ".params.")
    return spec


# Fields every experiment takes ("experiment" is checked before the table).
_COMMON = {
    "experiment": (REQUIRED, _TEXT),
    "seed": (REQUIRED, _NATURAL),
    "output": ({}, _object(report=(None, _FILE), csv=(None, _FILE))),
}
# The channel inputs; the payloads are decoded (and checked) by the runner.
_CHANNEL = {
    "unitary": (None, _LIST),
    "channel": (None, _OBJECT),
    "zoo": (None, _zoo),
}


# ---------------------------------------------------------------------------
# small converters
# ---------------------------------------------------------------------------


def _channel_from(params, dims: SystemDims, rng) -> KrausChannel:
    if "unitary" in params:
        return from_unitary(from_re_im(params["unitary"]), dims)
    if "channel" in params:
        c = KrausChannel.from_json(params["channel"])
        if c.dims != dims:
            raise ConfigError("channel dims do not match config dims")
        return c
    spec = params["zoo"]
    extra = {"rng": rng} if spec["name"] == "local-random" else {}
    c = zoo(spec["name"], dims, **spec.get("params", {}), **extra)
    if c.dims != dims:
        raise ConfigError(
            f"zoo channel {spec['name']!r} has dims {c.dims.dims}, "
            f"config says {dims.dims}"
        )
    return c


def emit_csv(columns: dict, path: Path):
    """Write ``{column: values}`` as RFC-4180 CSV, one row per index.

    Columns of unequal length raise ``ValueError`` and write nothing.  Floats
    are printed with 17 significant digits so that reading them back with
    ``float`` reproduces the exact binary64 values.
    """
    # each row is encoded into the one buffer as it is written: no str copy
    with io.TextIOWrapper(io.BytesIO(), "utf-8", newline="", write_through=True) as text:
        writer = csv.writer(text)
        writer.writerow(columns)
        writer.writerows(
            [format(v, ".17g") if isinstance(v, float) else v for v in row]
            for row in zip(*columns.values(), strict=True)
        )
        with text.buffer.getbuffer() as data:  # released before the buffer closes
            _overwrite(path, data)


def _overwrite(path: Path, data: bytes | memoryview):
    """Make the file at ``path`` hold exactly ``data``, created with mode
    0o666 less the umask if it does not exist.

    The file is overwritten in place and then cut to length, not truncated
    first: on ext4, truncating a file to zero and rewriting it starts
    writeback on close, which made each report write take over ten times as
    long.  A path that cannot be written raises ``ConfigError``.
    """
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            # no view of data outlives the with, even when a write raises
            with memoryview(data) as whole:
                done = 0
                while done < len(whole):  # os.write may write less than it is given
                    done += os.write(fd, whole[done:])
            os.ftruncate(fd, done)
        finally:
            os.close(fd)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc


# ---------------------------------------------------------------------------
# the report writer
# ---------------------------------------------------------------------------

_escape = json.encoder.encode_basestring_ascii  # what json.dumps calls
# one line of JSON, by CPython's C encoder (any indent runs the Python one)
_line = json.JSONEncoder(sort_keys=True, allow_nan=False).encode
_NON_FINITE = "the report would hold a non-finite number"


def _finite(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(_NON_FINITE)
    return float.__repr__(x)


#: How the C encoder writes a leaf of exactly one of these types, without
#: the cost of starting it (a subclass such as ``np.float64`` still goes
#: through ``_line``).
_LEAVES = {
    float: _finite,
    int: int.__repr__,
    str: _escape,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _encode(v, nl: str) -> str:
    """``v`` as JSON, ``nl`` being a newline and the indent of its first line.

    A non-empty dict, or a list whose first item is a dict (a table), holds
    one entry per line, two spaces deeper, keys sorted; any other value is
    one line of ``json.dumps(v, sort_keys=True)``.  A non-finite float raises
    ``ValueError``; a type that ``json.dumps`` refuses, or a key of a dict
    over lines that is not a string, raises ``TypeError``.
    """
    leaf = _LEAVES.get(type(v))
    if leaf is not None:
        return leaf(v)
    inner = nl + "  "
    if isinstance(v, dict) and v:
        # _escape raises TypeError on a key that is not a string
        items = [_escape(k) + ": " + _encode(x, inner) for k, x in sorted(v.items())]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if isinstance(v, (list, tuple)) and v and isinstance(v[0], dict):
        return "[" + inner + ("," + inner).join([_encode(x, inner) for x in v]) + nl + "]"
    try:
        return _line(v)
    except ValueError as exc:
        if not str(exc).startswith("Out of range float"):
            raise
        raise ValueError(_NON_FINITE) from None


# ---------------------------------------------------------------------------
# experiment runners: each returns (results dict, passed flag)
# ---------------------------------------------------------------------------


def _run_check_causal(cfg: ExperimentConfig, out_dir: Path):
    p = cfg.params
    dims = SystemDims(p["dims"])
    tol, n_scenarios = p["tol"], p["n_scenarios"]
    rng = RngStream(cfg.seed).generator()
    channel = _channel_from(p, dims, rng)

    parts = all_bipartitions(dims)
    directions = [oriented for part in parts for oriented in (part, part.swapped())]
    # n_scenarios members per direction, in the order of single draws, one
    # stack per block of members across directions; each direction's defect
    # pass runs when a stack first reaches it
    passes = DefectPasses(channel, directions)
    sorkin_max = 0.0
    members = len(directions) * n_scenarios
    for start in range(0, members, SCENARIO_BLOCK):
        block = range(start, min(start + SCENARIO_BLOCK, members))
        s = random_sorkin_scenario(
            [directions[i // n_scenarios] for i in block], channel, rng
        )
        sorkin_max = max(sorkin_max, float(np.abs(passes.violations(s)).max()))
    strengths = passes.strengths()
    defects = []
    one_way = []
    schmidt = {}
    for part, left, right in zip(parts, strengths[::2], strengths[1::2]):
        blocks = {"left": list(part.left), "right": list(part.right)}
        for sender, strength in (("left", left), ("right", right)):
            defects.append({**blocks, "sender": sender, "strength": strength})
        if (left > tol) != (right > tol):
            one_way.append(blocks)
        if channel.nkraus == 1:
            values = operator_schmidt_values(channel.kraus[0], part)
            schmidt["-".join(map(str, part.left))] = values.tolist()
    defect_causal = all(s <= tol for s in strengths)
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
        product_verdict = all(v[1] <= tol for v in schmidt.values())
        results["schmidt_values_by_left_block"] = schmidt
        results["product_unitary"] = product_verdict
        verdicts.append(product_verdict)
    agree = len(set(verdicts)) == 1
    results["deciders_agree"] = agree
    return results, agree


def _run_sample_haar(cfg: ExperimentConfig, out_dir: Path):
    p = cfg.params
    dims = SystemDims(p["dims"])
    n_samples, tol, sampler = p["n_samples"], p["tol"], p["sampler"]
    offset = p["stream_offset"]
    if offset + n_samples > 2**64:
        # sample i draws from the 64-bit stream offset + i
        raise ConfigError(
            f"'stream_offset' + 'n_samples' must be at most 2**64, "
            f"got {offset} + {n_samples}"
        )
    auto_expect = "no-hits" if sampler == "global" else "all-hits"
    expect = p["expect"] if "expect" in p else auto_expect
    stats = measure_zero_experiment(
        dims, n_samples, tol, RngStream(cfg.seed, offset), sampler=sampler
    )
    columns = {
        "sample_id": range(n_samples),
        "second_schmidt": stats.second_schmidt,
        "product_distance": stats.product_distance,
        "seed": [cfg.seed] * n_samples,
    }
    emit_csv(columns, out_dir / cfg.csv_name)
    results = {
        "dims": list(dims.dims),
        "n_samples": n_samples,
        "tol": tol,
        "sampler": sampler,
        "stream_offset": offset,
        "count_product_within_tol": stats.count_product_within_tol,
        "min_second_schmidt": stats.min_second_schmidt,
        "min_product_distance": stats.min_product_distance,
        "histogram": {
            "edges": stats.histogram_edges,
            "counts": stats.histogram_counts,
        },
        "csv": cfg.csv_name,
        "expect": expect,
    }
    if expect == "no-hits":
        passed = stats.count_product_within_tol == 0
    elif expect == "all-hits":
        passed = stats.count_product_within_tol == n_samples
    else:
        passed = True
    return results, passed


def _run_nearest_product(cfg: ExperimentConfig, out_dir: Path):
    p = cfg.params
    dims = SystemDims(p["dims"])
    part = Bipartition.split(dims, p["left_sites"])
    rng = RngStream(cfg.seed).generator()
    if "n_samples" in p:
        d, n = dims.total, p["n_samples"]
        # drawn in order and optimized a block at a time, to bound memory
        blocks = (
            np.array([haar_unitary(d, rng) for _ in range(min(SAMPLE_BLOCK, n - i))])
            for i in range(0, n, SAMPLE_BLOCK)
        )
        labels = [f"haar-{i}" for i in range(n)]
    else:
        channel = _channel_from(p, dims, rng)
        if channel.nkraus != 1:
            raise ConfigError("nearest-product needs a unitary input")
        blocks, labels = [channel.kraus], ["input"]
    rows = []  # each block's results become rows before the next block is drawn
    for us in blocks:
        for res in nearest_product_unitaries(us, part, tol=p["tol"], max_iter=p["max_iter"]):
            row = {
                "label": labels[len(rows)],
                "overlap": res.overlap,
                "distance": res.distance,
                "iterations": res.iterations,
                "converged": res.converged,
            }
            if len(labels) == 1:
                row.update(u1=to_re_im(res.u1), u2=to_re_im(res.u2))
            rows.append(row)
    results = {
        "dims": list(dims.dims),
        "left_sites": list(part.left),
        "rows": rows,
    }
    return results, all(r["converged"] for r in rows)


#: The defect and the Choi distance round off by up to about ``D eps`` (1.0 and 0.02
#: D eps measured), so each ratio may pass ``linearity_rtol`` by this many D eps / epsilon,
#: and a defect no larger than this many D eps tells nothing about linearity.
_RATIO_ROUNDING = 8.0


def _run_perturb_ball(cfg: ExperimentConfig, out_dir: Path):
    p = cfg.params
    dims = SystemDims(p["dims"])
    part = Bipartition.split(dims, p["left_sites"])
    sender, rtol = p["sender"], p["linearity_rtol"]
    if sender == "right":
        part = part.swapped()
    rng = RngStream(cfg.seed).generator()
    causal = _channel_from({"zoo": p["causal"]}, dims, rng)
    acausal = _channel_from({"zoo": p["acausal"]}, dims, rng)
    rows = perturbation_probe(causal, acausal, p["epsilons"], part, tol=p["tol"])
    table = [
        {
            "epsilon": r.epsilon,
            "defect": r.defect,
            "defect_over_epsilon": r.defect / r.epsilon if r.epsilon else 0.0,
            "choi_distance": r.choi_distance,
            "choi_distance_over_epsilon": r.choi_distance / r.epsilon if r.epsilon else 0.0,
        }
        for r in rows
    ]

    def spread(key):
        vals = [row[key] for row in table if row["epsilon"] > 0]
        # mean > 0: two rows have a defect above the floor, so J_a != J_c too
        mean = sum(vals) / len(vals)
        return (max(vals) - min(vals)) / mean

    # a Python float: floor / epsilon at a subnormal epsilon is inf, silently
    floor = _RATIO_ROUNDING * dims.total * sys.float_info.epsilon
    if sum(row["epsilon"] > 0 and row["defect"] > floor for row in table) < 2:
        raise ConfigError(
            f"'epsilons' must give at least two rows whose defect exceeds the "
            f"rounding floor {floor:.3g}"
        )
    # each ratio against the one at the largest epsilon, the most accurate
    top = max(table, key=lambda row: row["epsilon"])
    linear = all(
        abs(row[key] - top[key]) <= rtol * abs(top[key]) + floor / row["epsilon"]
        for row in table if row["epsilon"] > 0
        for key in ("defect_over_epsilon", "choi_distance_over_epsilon")
    )
    results = {
        "dims": list(dims.dims),
        "sender": sender,
        "rows": table,
        "defect_ratio_spread": spread("defect_over_epsilon"),
        "choi_ratio_spread": spread("choi_distance_over_epsilon"),
        "linearity_rtol": rtol,
        "linear": linear,
    }
    return results, linear


def _run_lattice_sorkin(cfg: ExperimentConfig, out_dir: Path):
    p = cfg.params
    lattice = LatticeSpec(**p["lattice"])
    opts = BuildOptions(**p["build_opts"])
    atol = p["identity_atol"]

    f, g, h = build_scenario(lattice, Region(p["k_region"]), opts)
    dfg = pauli_jordan(lattice, f, g)
    dfh = pauli_jordan(lattice, f, h)
    dhg = pauli_jordan(lattice, h, g)
    deriv = signalling_derivative(lattice, f, g, h)

    rows = []
    # (got, expected) of every identity; each holds within atol relative to
    # max(1, |expected|), since the scalar grows with lambda
    identities = [(deriv, -2.0 * dfg * dfh)]
    for lam in p["lambdas"]:
        chain = sorkin_chain(lattice, f, g, h, lam)
        row = {
            "lam": lam,
            "coeff_g": chain.coefficient(g),
            "coeff_f": chain.coefficient(f),
            "scalar": chain.expectation,
            "expected_coeff_f": -2.0 * dfg,
            "expected_scalar": -2.0 * lam * dfg * dfh,
        }
        identities += [
            (row["coeff_g"], 1.0),
            (row["coeff_f"], row["expected_coeff_f"]),
            (row["scalar"], row["expected_scalar"]),
        ]
        rows.append(row)
    ok = dhg == 0.0 and all(
        abs(got - want) / max(1.0, abs(want)) <= atol for got, want in identities
    )
    if p["require_nonzero"]:
        ok = ok and deriv != 0.0

    def support_json(tf):  # [t, x, weight] in (t, x) order; no two share (t, x)
        return sorted(map(list, zip(tf.ts.tolist(), tf.xs.tolist(), tf.weights.tolist())))

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
    return results, ok


# ---------------------------------------------------------------------------
# the experiments: name -> (runner, fields of which a config must set exactly
# one, {field: (default, check)})
# ---------------------------------------------------------------------------

EXPERIMENTS = {
    "check-causal": (_run_check_causal, tuple(_CHANNEL), {
        "dims": (REQUIRED, _DIMS),
        "tol": (1e-8, _TOL),
        "n_scenarios": (20, _COUNT),
        **_CHANNEL,
    }),
    "sample-haar": (_run_sample_haar, (), {
        "dims": (REQUIRED, _DIMS),
        "n_samples": (1000, _COUNT),
        "tol": (1e-6, _TOL),
        "sampler": ("global", _choice("global", "local")),
        "stream_offset": (0, _NATURAL),
        # no default here: it follows the sampler
        "expect": (None, _choice("no-hits", "all-hits", "none")),
    }),
    "nearest-product": (_run_nearest_product, ("n_samples", *_CHANNEL), {
        "dims": (REQUIRED, _DIMS),
        "left_sites": ([0], _SITES),
        "tol": (1e-12, _TOL),
        "max_iter": (500, _COUNT),
        "n_samples": (None, _COUNT),
        **_CHANNEL,
    }),
    "perturb-ball": (_run_perturb_ball, (), {
        "dims": ([2, 2], _DIMS),
        "left_sites": ([0], _SITES),
        "sender": ("left", _choice("left", "right")),
        "epsilons": ([1e-1, 1e-2, 1e-3, 1e-4], _EPSILONS),
        "linearity_rtol": (1e-9, _TOL),
        "tol": (1e-10, _TOL),
        "causal": ({"name": "identity"}, _zoo),
        "acausal": ({"name": "classical-one-way"}, _zoo),
    }),
    "lattice-sorkin": (_run_lattice_sorkin, (), {
        # unset nested fields take the LatticeSpec and BuildOptions defaults
        "lattice": (REQUIRED, _object(
            n_sites=(REQUIRED, _INT), n_steps=(REQUIRED, _INT), mass=(None, _REAL)
        )),
        "k_region": (REQUIRED, _REGION),
        "build_opts": ({}, _object(
            time_gap=(None, _INT), bump_half_t=(None, _INT), bump_half_x=(None, _INT)
        )),
        "lambdas": ([0.0, 0.5, 1.0], _REALS),
        "identity_atol": (1e-12, _TOL),
        "require_nonzero": (False, _FLAG),
    }),
}


def run(cfg: ExperimentConfig, out_dir: Path):
    """Execute one experiment; returns (report dict, exit code).

    A report that would hold NaN or an infinity, which JSON cannot encode,
    raises ``ValueError`` and is not written; an output file that cannot be
    written raises ``ConfigError``.
    """
    start = time.perf_counter()
    runner = EXPERIMENTS[cfg.experiment][0]
    results, passed = runner(cfg, out_dir)
    report = {
        "schema_version": SCHEMA_VERSION,
        "experiment": cfg.experiment,
        "tool_version": __version__,
        "config": cfg.raw,
        "results": results,
        "passed": bool(passed),
        "wall_time_s": time.perf_counter() - start,
    }
    _overwrite(out_dir / cfg.report_name, (_encode(report, "\n") + "\n").encode())
    return report, (0 if passed else 2)


class _Parser(argparse.ArgumentParser):  # subparsers inherit the class
    def error(self, message):
        raise ConfigError(message)  # exit 1 through main, with no usage banner


def main(argv=None) -> int:
    parser = _Parser(
        prog="qcausal",
        description="Causality experiments for quantum channels and lattice fields.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument("--out-dir", default=".", help="directory for reports")
    try:
        args = parser.parse_args(argv)
        try:
            raw = json.loads(Path(args.config).read_text())
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {args.config}") from exc
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        except RecursionError as exc:
            raise ConfigError("config is nested too deeply to parse") from exc
        cfg = ExperimentConfig.from_dict(raw)
        if cfg.experiment != args.experiment:
            raise ConfigError(
                f"config is for {cfg.experiment!r} but the "
                f"{args.experiment!r} subcommand was invoked"
            )
        out_dir = Path(args.out_dir)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot use --out-dir {args.out_dir}: {exc}") from exc
        report, code = run(cfg, out_dir)
    except ValueError as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # e.g. a lattice table too large to allocate
        reason = str(exc) or "allocation failed"
        print(f"error: out of memory: {reason}", file=sys.stderr)
        return 1
    status = "PASS" if code == 0 else "FAIL"
    print(f"{args.experiment}: {status}")
    return code


if __name__ == "__main__":
    sys.exit(main())
