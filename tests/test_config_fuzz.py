"""Fuzz test over the config table: configs drawn from ``EXPERIMENTS``,
well-formed or broken, must run to PASS/FAIL with a report of plain JSON or
exit 1 with an ``error:`` line and no report; no exception may escape
``main``."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import event, given, settings
from hypothesis import strategies as st

from qcausal.cli import EXPERIMENTS, REQUIRED, ZOO, ExperimentConfig, main
from test_cli import assert_report_layout

_CNOT = [
    [[1, 0], [0, 0], [0, 0], [0, 0]],
    [[0, 0], [1, 0], [0, 0], [0, 0]],
    [[0, 0], [0, 0], [0, 0], [1, 0]],
    [[0, 0], [0, 0], [1, 0], [0, 0]],
]
_WIRE_CNOT = {"dims": [2, 2], "kraus": [_CNOT]}

# Small valid params for every zoo entry in ``ZOO``.
_TINY_ZOO = {
    "identity": {},
    "cnot": {},
    "swap": {"d": [2, 3]},
    "depolarizing": {"lam": [0.5, 0, 1]},
    "classical-one-way": {},
    "local-random": {},
}


@st.composite
def _zoo_specs(draw):
    """A zoo channel drawn from ``ZOO``: its required params, maybe the others."""
    name = draw(st.sampled_from(sorted(ZOO)))
    params = {
        k: draw(st.sampled_from(_TINY_ZOO[name][k]))
        for k, (default, _) in ZOO[name].items()
        if default is REQUIRED or draw(st.booleans())
    }
    return {"name": name, "params": params} if params or draw(st.booleans()) else {"name": name}


# Small valid values for every field of every experiment in the config table;
# any combination of them (with exactly one channel input where the table
# asks for one) is a config the table accepts and that runs in milliseconds.
_TINY = {
    "check-causal": {
        "seed": [3, 0],
        "output": [{}, {"report": "r.json"}],
        "dims": [[2, 2]],
        "tol": [1e-8, 1e-3, 0],
        "n_scenarios": [1, 2],
        "unitary": [_CNOT],
        "channel": [_WIRE_CNOT],
        "zoo": _zoo_specs(),
    },
    "sample-haar": {
        "seed": [77, 0],
        "output": [{}, {"report": "r.json", "csv": "s.csv"}],
        "dims": [[2, 2], [2, 3]],
        "n_samples": [1, 3],
        "tol": [1e-6, 0.5],
        "sampler": ["global", "local"],
        "stream_offset": [0, 4],
        "expect": ["no-hits", "all-hits", "none"],
    },
    "nearest-product": {
        "seed": [9, 0],
        "output": [{}],
        "dims": [[2, 2]],
        "left_sites": [[0], [1]],
        "tol": [1e-12, 1e-6],
        "max_iter": [1, 50],
        "n_samples": [1, 2],
        "unitary": [_CNOT],
        "channel": [_WIRE_CNOT],
        "zoo": _zoo_specs(),
    },
    "perturb-ball": {
        "seed": [4, 0],
        "output": [{}],
        "dims": [[2, 2]],
        "left_sites": [[0], [1]],
        "sender": ["left", "right"],
        "epsilons": [[0.1, 0.01], [1e-3]],
        "linearity_rtol": [1e-9, 0.5],
        "tol": [1e-10, 1e-6],
        "causal": _zoo_specs(),
        "acausal": _zoo_specs(),
    },
    "lattice-sorkin": {
        "seed": [0, 5],
        "output": [{}],
        "lattice": [
            {"n_sites": 64, "n_steps": 16},
            {"n_sites": 64, "n_steps": 16, "mass": 0.5},
            {"n_sites": 2**63, "n_steps": 16},  # wider than int64 site arithmetic
        ],
        "k_region": [[[6, 20], [6, 21]], [[t, x] for t in (6, 7) for x in range(20, 41)]],
        "build_opts": [{}, {"time_gap": 2, "bump_half_x": 1}],
        "lambdas": [[0.0, 1.0], [], [1e308]],
        "identity_atol": [1e-12, 1e-9],
        "require_nonzero": [False, True],
    },
}
_BAD_VALUES = [None, True, -1, 0, 2.5, "1", float("nan"), float("inf"), [], {}]
# Optional fields set in every drawn config: the default of 1000 draws is slow.
_ALWAYS_SET = {"sample-haar": {"n_samples"}}


@st.composite
def _configs(draw):
    """(experiment, config, well_formed): a config drawn from the table,
    maybe broken."""
    name = draw(st.sampled_from(sorted(EXPERIMENTS)))
    _, one_of, fields = EXPERIMENTS[name]
    required = {"seed"} | {k for k, (d, _) in fields.items() if d is REQUIRED}
    given = {draw(st.sampled_from(one_of))} if one_of else set()
    always = required | given | _ALWAYS_SET.get(name, set())
    cfg = {"experiment": name}
    for field, values in _TINY[name].items():
        if field in always or (field not in one_of and draw(st.booleans())):
            strategy = values if isinstance(values, st.SearchStrategy) else st.sampled_from(values)
            cfg[field] = draw(strategy)
    how = draw(st.sampled_from(["none", "drop", "add", "replace"]))
    if how == "drop":
        del cfg[draw(st.sampled_from(sorted((required | given) & cfg.keys())))]
    elif how == "add":
        cfg[draw(st.sampled_from(["n_scenario", "sample", "Dims", "extra"]))] = 1
    elif how == "replace":
        field = draw(st.sampled_from(sorted(cfg)))
        bad = draw(st.sampled_from(_BAD_VALUES))
        spec = cfg[field]
        if isinstance(spec, dict) and "name" in spec and draw(st.booleans()):
            # break one param of a zoo channel instead of the whole field
            param = draw(st.sampled_from(["d", "lam"]))
            cfg[field] = {"name": spec["name"], "params": {**spec.get("params", {}), param: bad}}
        else:
            cfg[field] = bad
    return name, cfg, how == "none"


def _refuse_constant(name):
    raise AssertionError(f"report holds {name}, which is not JSON")


class TestConfigTable:
    def test_tiny_values_cover_the_table(self):
        for name, (_, _, fields) in EXPERIMENTS.items():
            assert set(_TINY[name]) == {"seed", "output"} | set(fields)
        assert {n: set(p) for n, p in _TINY_ZOO.items()} == {n: set(p) for n, p in ZOO.items()}

    @settings(max_examples=500, derandomize=True, deadline=None, database=None)
    @given(_configs())
    def test_every_config_runs_or_exits_one(self, case):
        name, cfg, well_formed = case
        if well_formed:  # the table accepts it; the library may still refuse
            ExperimentConfig.from_dict(cfg)
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "c.json"
            path.write_text(json.dumps(cfg))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([name, "--config", str(path), "--out-dir", d])
            reports = [p for p in Path(d).glob("*.json") if p != path]
            for report in reports:
                text = report.read_text()
                parsed = json.loads(text, parse_constant=_refuse_constant)
                assert text.endswith("}\n")
                assert_report_layout(text[:-1], parsed)
        assert len(reports) == (code != 1)
        event(f"well-formed={well_formed}, exit {code}")
        out, err = out.getvalue(), err.getvalue()
        if code == 1:
            assert err.startswith("error: ") and err.count("\n") == 1
        else:
            assert code in (0, 2) and err == ""
            assert out.split()[-1] == ("PASS" if code == 0 else "FAIL")
