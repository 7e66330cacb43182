import csv
import errno
import json
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcausal import cli, lattice
from qcausal.cli import (
    EXPERIMENTS,
    REQUIRED,
    ZOO,
    ConfigError,
    ExperimentConfig,
    emit_csv,
    main,
)
from qcausal.sampling import (
    RngStream,
    haar_local_unitary,
    haar_unitary,
    measure_zero_experiment,
    random_kraus_channel,
)
from qcausal.tensor import SystemDims, from_re_im, to_re_im


_README = Path(__file__).resolve().parents[1] / "README.md"
# the README's example config of each experiment, by experiment name
_README_EXAMPLES = {
    b["experiment"]: b
    for b in map(json.loads, re.findall(r"```json\n(.*?)```", _README.read_text(), re.S))
}


_TOKEN = re.compile(r'"(?:\\.|[^"\\])*"|[][{}:,]|[^][{}:,\s"]+')
_KEY = re.compile(r'"(?:\\.|[^"\\])*": ')


def assert_report_layout(text, v):
    """``text`` holds the tokens of ``json.dumps(v, sort_keys=True)`` laid out
    by the report rule: a non-empty dict, or a list whose first item is a
    dict, opens a line per entry two spaces deeper; any other value is one
    line written as ``json.dumps`` writes it."""
    assert _TOKEN.findall(text) == _TOKEN.findall(
        json.dumps(v, sort_keys=True, allow_nan=False)
    )
    lines = text.split("\n")
    closers = []  # of the values laid out over lines, outermost first
    for i, line in enumerate(lines):
        entry = line.lstrip(" ")
        if entry.removesuffix(",") in ("}", "]"):
            assert closers.pop() == entry[0], line
            assert len(line) - len(entry) == 2 * len(closers), line
            continue
        assert len(line) - len(entry) == 2 * len(closers), line
        if closers and closers[-1] == "}":
            key = _KEY.match(entry)
            assert key, line
            entry = entry[key.end():]
        value = entry.removesuffix(",")
        if value in ("{", "["):
            following = lines[i + 1].lstrip(" ")
            assert following.removesuffix(",") not in ("}", "]"), "empty value over lines"
            assert value == "{" or following.startswith("{"), "list of values over lines"
            closers.append("}" if value == "{" else "]")
        else:
            parsed = json.loads(value)
            assert value == json.dumps(parsed, sort_keys=True), line
            assert not (type(parsed) is dict and parsed), "dict on one line"
            assert not (type(parsed) is list and parsed and type(parsed[0]) is dict), line
    assert not closers


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def _haar_cfg(n_samples=10, **extra):
    cfg = {
        "experiment": "sample-haar",
        "seed": 77,
        "dims": [2, 2],
        "n_samples": n_samples,
        "tol": 1e-6,
    }
    cfg.update(extra)
    return cfg


# rows 1..3 of the 4x4 identity as [re, im] pairs
_EYE3_ROWS = [[[float(i == j), 0.0] for j in range(4)] for i in range(1, 4)]

_CNOT = [
    [[1, 0], [0, 0], [0, 0], [0, 0]],
    [[0, 0], [1, 0], [0, 0], [0, 0]],
    [[0, 0], [0, 0], [0, 0], [1, 0]],
    [[0, 0], [0, 0], [1, 0], [0, 0]],
]

# A small valid config per experiment.
_TINY_BASE = {
    "check-causal": {
        "experiment": "check-causal",
        "seed": 3,
        "dims": [2, 2],
        "n_scenarios": 2,
        "zoo": {"name": "cnot"},
    },
    "sample-haar": _haar_cfg(n_samples=3),
    "nearest-product": {
        "experiment": "nearest-product",
        "seed": 9,
        "dims": [2, 2],
        "n_samples": 2,
    },
    "perturb-ball": {"experiment": "perturb-ball", "seed": 4},
    "lattice-sorkin": {
        "experiment": "lattice-sorkin",
        "seed": 0,
        "lattice": {"n_sites": 64, "n_steps": 16, "mass": 1.0},
        "k_region": [[6, 20], [6, 21]],
    },
}


class TestExperimentConfig:
    def test_valid_split(self):
        cfg = ExperimentConfig.from_dict(_haar_cfg())
        assert cfg.experiment == "sample-haar"
        assert cfg.seed == 77
        assert cfg.params["dims"] == [2, 2]
        assert "seed" not in cfg.params
        assert cfg.output == {}

    def test_rejects_non_object(self):
        with pytest.raises(ConfigError, match="object"):
            ExperimentConfig.from_dict([1, 2])

    def test_rejects_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            ExperimentConfig.from_dict({"experiment": "teleport", "seed": 1})

    def test_rejects_missing_or_bad_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig.from_dict({"experiment": "sample-haar"})
        for bad in (-1, 1.5, True, "7"):
            with pytest.raises(ConfigError, match="seed"):
                ExperimentConfig.from_dict({"experiment": "sample-haar", "seed": bad})

    def test_rejects_bad_output(self):
        with pytest.raises(ConfigError, match="output"):
            ExperimentConfig.from_dict(
                {"experiment": "sample-haar", "seed": 1, "output": "report.json"}
            )


class TestExitCodes:
    def test_success_is_zero(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.json", _haar_cfg(sampler="local"))
        code = main(["sample-haar", "--config", cfg, "--out-dir", str(tmp_path)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "sample-haar: PASS"

    @pytest.mark.parametrize(
        "args",
        [
            ["nonexistent", "--config", "c.json"],
            ["check-causal"],
            ["check-causal", "--config", "c.json", "--bogus"],
            ["check-causal", "--config", "c.json", "--verbose"],
        ],
        ids=["unknown-subcommand", "no-config", "unknown-flag", "verbose"],
    )
    def test_usage_error_is_one(self, tmp_path, capsys, args):
        # a usage error is a refusal, never the exit code 2 of a failed check
        cfg = _write(tmp_path, "c.json", _TINY_BASE["check-causal"])
        code = main([cfg if a == "c.json" else a for a in args])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_help_is_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check-causal", "--help"])
        assert exc.value.code == 0
        assert "--config" in capsys.readouterr().out

    def test_missing_config_is_one(self, tmp_path, capsys):
        code = main(
            ["sample-haar", "--config", str(tmp_path / "nope.json")]
        )
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_unreadable_config_is_one(self, tmp_path, capsys):
        code = main(["sample-haar", "--config", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config")
        assert err.count("\n") == 1

    def test_bad_json_is_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code = main(["sample-haar", "--config", str(path)])
        assert code == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_deeply_nested_config_is_one(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        deep = "[" * 100000 + "]" * 100000
        path.write_text(
            f'{{"experiment": "check-causal", "seed": 3, "dims": [2, 2], "unitary": {deep}}}'
        )
        code = main(["check-causal", "--config", str(path), "--out-dir", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == "error: config is nested too deeply to parse\n"

    def test_subcommand_mismatch_is_one(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.json", _haar_cfg())
        code = main(["check-causal", "--config", cfg, "--out-dir", str(tmp_path)])
        assert code == 1
        assert "subcommand" in capsys.readouterr().err

    def test_missing_dims_is_one(self, tmp_path, capsys):
        cfg = _write(
            tmp_path, "c.json", {"experiment": "check-causal", "seed": 3, "zoo": {"name": "cnot"}}
        )
        code = main(["check-causal", "--config", cfg, "--out-dir", str(tmp_path)])
        assert code == 1
        assert "dims" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "channel",
        [
            {"kraus": []},
            {"dims": [2, 2], "kraus": [[[1, 0]]]},
            [1, 2],
            {"dims": 4, "kraus": [[[[1, 0]]]]},
            {"dims": [2, 2], "kraus": [[[["1", 0]] + [[0, 0]] * 3] + _EYE3_ROWS]},
            {"dims": [2, 2], "kraus": [[[[float("nan"), 0]] + [[0, 0]] * 3] + _EYE3_ROWS]},
            {"dims": [2, 2], "kraus": [[_CNOT], [_CNOT]]},
            {"dims": ["2", 2], "kraus": [_CNOT]},
            {"dims": [2, 2], "kraus": [_CNOT], "note": "x"},
            {"dims": [4], "kraus": [_CNOT]},
        ],
        ids=[
            "no-dims", "flat-kraus", "not-an-object", "scalar-dims", "string-entry", "nan-entry",
            "stacked-kraus", "string-dims", "extra-key", "other-dims",
        ],
    )
    def test_malformed_channel_is_one(self, tmp_path, capsys, channel):
        cfg = _write(
            tmp_path,
            "c.json",
            {
                "experiment": "check-causal",
                "seed": 3,
                "dims": [2, 2],
                "channel": channel,
            },
        )
        code = main(["check-causal", "--config", cfg, "--out-dir", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "experiment, change, field",
        [
            # each of these ended in a traceback
            ("sample-haar", {"dims": [4]}, "dims"),
            ("lattice-sorkin", {"lattice": {"n_steps": 16}}, "lattice.n_sites"),
            ("lattice-sorkin", {"k_region": [5, 10]}, "k_region"),
            ("perturb-ball", {"epsilons": [0.0]}, "epsilons"),
            ("check-causal", {"output": {"report": 5}}, "output.report"),
            ("check-causal", {"output": {"report": ".."}}, "output.report"),
            ("sample-haar", {"output": {"csv": "."}}, "output.csv"),
            # each of these ran to a vacuous or silent PASS
            ("sample-haar", {"tol": "nan"}, "tol"),
            ("check-causal", {"tol": float("inf")}, "tol"),
            ("check-causal", {"dims": [4], "zoo": {"name": "identity"}}, "dims"),
            ("nearest-product", {"n_samples": 0}, "n_samples"),
            ("check-causal", {"n_scenario": 0}, "n_scenario"),
            ("check-causal", {"n_scenarios": 2.7}, "n_scenarios"),
            ("check-causal", {"tol": -1}, "tol"),
            ("lattice-sorkin", {"lattice": {"n_sites": 64.5, "n_steps": 16}}, "lattice.n_sites"),
            ("sample-haar", {"n_samples": True}, "n_samples"),
            ("nearest-product", {"unitary": _CNOT}, "n_samples"),
            ("check-causal", {"zoo": {"name": "swap", "params": {"d": 2.7}}}, "zoo.params.d"),
            (
                "check-causal",
                {"zoo": {"name": "depolarizing", "params": {"lam": True}}},
                "zoo.params.lam",
            ),
            (
                "check-causal",
                {"zoo": {"name": "depolarizing", "params": {"lam": "0.5"}}},
                "zoo.params.lam",
            ),
            ("check-causal", {"zoo": {"name": "cnot", "params": {"foo": 1}}}, "zoo.params.foo"),
            (
                "perturb-ball",
                {"acausal": {"name": "swap", "params": {"d": 2.0}}},
                "acausal.params.d",
            ),
            (
                "perturb-ball",
                {"causal": {"name": "identity", "params": {"foo": 1}}},
                "causal.params.foo",
            ),
            # exited 1 without naming the field
            ("perturb-ball", {"sender": "top"}, "sender"),
            ("perturb-ball", {"epsilons": [1.5]}, "epsilons"),
            ("perturb-ball", {"epsilons": [0.1, -0.1]}, "epsilons"),
            # each of these exited 2
            ("check-causal", {"n_scenarios": -3}, "n_scenarios"),
            ("nearest-product", {"max_iter": 0}, "max_iter"),
            # exited 1 only at the overflowing draw, without naming the field
            (
                "sample-haar",
                {"stream_offset": 2**64 - 2, "n_samples": 3},
                "stream_offset",
            ),
        ],
        ids=[
            "haar-one-site",
            "lattice-no-n-sites",
            "flat-k-region",
            "zero-epsilons",
            "report-not-a-name",
            "report-dot-dot",
            "csv-dot",
            "nan-string-tol",
            "infinite-tol",
            "causal-one-site",
            "zero-samples",
            "misspelled-field",
            "fractional-count",
            "negative-tol",
            "fractional-sites",
            "bool-count",
            "samples-and-unitary",
            "fractional-swap-d",
            "bool-lam",
            "string-lam",
            "unknown-zoo-param",
            "float-swap-d",
            "unknown-causal-param",
            "bad-sender",
            "epsilon-above-one",
            "negative-epsilon",
            "negative-count",
            "zero-max-iter",
            "stream-past-2-64",
        ],
    )
    def test_bad_config_is_one(self, tmp_path, capsys, experiment, change, field):
        cfg = _write(tmp_path, "c.json", dict(_TINY_BASE[experiment], **change))
        code = main([experiment, "--config", cfg, "--out-dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(field) in err

    @pytest.mark.parametrize(
        "cfg, message",
        [
            (
                dict(_TINY_BASE["check-causal"], dims=[2, 3]),
                "zoo channel 'cnot' has dims (2, 2), config says (2, 3)",
            ),
            (
                {
                    "experiment": "check-causal",
                    "seed": 3,
                    "dims": [2, 2],
                    "unitary": [[[1, 0], [0, 0]], [[0, 0]]],
                },
                "cannot parse [re, im] pairs",
            ),
            (
                # past int64, so the region is read through an object array
                dict(_TINY_BASE["lattice-sorkin"], k_region=[[6, 10**23]]),
                f"region point (6, {10**23}) outside the lattice window",
            ),
            (
                dict(
                    _TINY_BASE["lattice-sorkin"],
                    lattice={"n_sites": 64, "n_steps": 10**20},
                    k_region=[[10**19 + 3, 10], [10**19 + 3, 11]],
                ),
                "n_steps must be at most 2**63 - 1",
            ),
        ],
        ids=["zoo-on-other-dims", "ragged-unitary", "region-past-int64", "steps-past-int64"],
    )
    def test_refusal_past_the_config_table_is_one(self, tmp_path, capsys, cfg, message):
        path = _write(tmp_path, "c.json", cfg)
        code = main([cfg["experiment"], "--config", path, "--out-dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "experiment, name",
        [
            ("check-causal", "check-causal-report.json"),
            ("sample-haar", "sample-haar-report.json"),
            ("sample-haar", "sample-haar-samples.csv"),
        ],
    )
    def test_output_path_that_is_a_directory_is_one(self, tmp_path, capsys, experiment, name):
        # each ended in an IsADirectoryError traceback
        (tmp_path / name).mkdir()
        cfg = _write(tmp_path, "c.json", _TINY_BASE[experiment])
        code = main([experiment, "--config", cfg, "--out-dir", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr() == ("", f"error: cannot write {tmp_path / name}: Is a directory\n")

    @pytest.mark.parametrize(
        "output",
        [
            {"csv": "sample-haar-report.json"},
            {"report": "sample-haar-samples.csv"},
            {"report": "r", "csv": "r"},
        ],
    )
    def test_csv_named_like_the_report_is_one(self, tmp_path, capsys, output):
        # the first wrote the CSV, overwrote it with the report and passed
        cfg = _write(tmp_path, "c.json", _haar_cfg(n_samples=3, output=output))
        out = tmp_path / "out"
        code = main(["sample-haar", "--config", cfg, "--out-dir", str(out)])
        assert code == 1
        name = output.get("report", "sample-haar-report.json")
        assert capsys.readouterr() == (
            "",
            f"error: the report and the CSV would both be written to {name!r}\n",
        )
        assert not out.exists()

    @pytest.mark.parametrize("experiment", [e for e in _TINY_BASE if e != "sample-haar"])
    def test_report_named_like_the_default_csv_is_kept(self, tmp_path, capsys, experiment):
        # only sample-haar writes a CSV, so no other report can overwrite one
        name = f"{experiment}-samples.csv"
        config = {**_TINY_BASE[experiment], "output": {"report": name}}
        cfg = _write(tmp_path, "c.json", config)
        out = tmp_path / "out"
        assert main([experiment, "--config", cfg, "--out-dir", str(out)]) == 0
        assert capsys.readouterr() == (f"{experiment}: PASS\n", "")
        assert [p.name for p in out.iterdir()] == [name]
        assert json.loads((out / name).read_text())["experiment"] == experiment

    def test_out_dir_that_is_a_file_is_one(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.json", _haar_cfg(n_samples=3))
        code = main(["sample-haar", "--config", cfg, "--out-dir", cfg])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--out-dir" in err

    def test_out_of_memory_is_one(self, tmp_path, capsys, monkeypatch):
        # the kernel raises as numpy does for a table too large to allocate
        calls = []

        def no_memory(n_sites, n_steps, mass):
            calls.append((n_sites, n_steps, mass))
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(lattice, "impulse_response", no_memory)
        lattice._base_table.cache_clear()
        cfg = _write(tmp_path, "c.json", _TINY_BASE["lattice-sorkin"])
        code = main(["lattice-sorkin", "--config", cfg, "--out-dir", str(tmp_path)])
        assert calls and code == 1
        err = capsys.readouterr().err
        assert err == "error: out of memory: Unable to allocate 7.28 TiB for an array\n"

    def test_failed_expectation_is_two(self, tmp_path, capsys):
        # a global Haar draw essentially never lands on a product unitary
        cfg = _write(tmp_path, "c.json", _haar_cfg(n_samples=5, expect="all-hits"))
        code = main(["sample-haar", "--config", cfg, "--out-dir", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().out.strip() == "sample-haar: FAIL"
        report = json.loads((tmp_path / "sample-haar-report.json").read_text())
        assert report["passed"] is False

    def test_expect_none_passes_whatever_the_count(self, tmp_path):
        # every draw is within a tol above sqrt(D), which fails "no-hits"
        def run_haar(expect):
            cfg = _write(tmp_path, "c.json", _haar_cfg(n_samples=5, tol=3.0, expect=expect))
            code = main(["sample-haar", "--config", cfg, "--out-dir", str(tmp_path)])
            report = json.loads((tmp_path / "sample-haar-report.json").read_text())
            return code, report

        assert run_haar("no-hits")[0] == 2
        code, report = run_haar("none")
        assert code == 0 and report["passed"] is True
        assert report["results"]["expect"] == "none"
        assert report["results"]["count_product_within_tol"] == 5


class TestReports:
    def test_schema_fields(self, tmp_path):
        cfg = _write(tmp_path, "c.json", _haar_cfg())
        assert main(["sample-haar", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "sample-haar-report.json").read_text())
        assert report["schema_version"] == 1
        assert report["experiment"] == "sample-haar"
        assert report["tool_version"]
        assert report["config"] == _haar_cfg()
        assert report["passed"] is True
        assert report["wall_time_s"] > 0
        assert report["results"]["count_product_within_tol"] == 0

    @pytest.mark.parametrize("name", sorted(_README_EXAMPLES))
    def test_sorted_keys_and_trailing_newline(self, name, tmp_path):
        cfg = _write(tmp_path, "c.json", _README_EXAMPLES[name])
        assert main([name, "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        text = (tmp_path / f"{name}-report.json").read_text()
        assert text.endswith("}\n")
        assert_report_layout(text[:-1], json.loads(text))

    def test_custom_output_names(self, tmp_path):
        cfg = _write(
            tmp_path,
            "c.json",
            _haar_cfg(output={"report": "r.json", "csv": "s.csv"}),
        )
        main(["sample-haar", "--config", cfg, "--out-dir", str(tmp_path)])
        assert (tmp_path / "r.json").exists()
        assert (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("name", sorted(_README_EXAMPLES))
    def test_rerun_identical_up_to_wall_time(self, name, tmp_path):
        cfg = _write(tmp_path, "c.json", _README_EXAMPLES[name])
        runs = []
        for d in ("a", "b"):
            out = tmp_path / d
            assert main([name, "--config", cfg, "--out-dir", str(out)]) == 0
            text = (out / f"{name}-report.json").read_bytes()
            kept = [x for x in text.split(b"\n") if not x.startswith(b'  "wall_time_s": ')]
            assert len(kept) == text.count(b"\n")  # the wall time is one line
            runs.append((kept, {p.name: p.read_bytes() for p in out.glob("*.csv")}))
        assert runs[0] == runs[1]


# Values for the report writer.  Numbers cover both ends of the float range,
# signed zero and ints past 64 bits; strings hold what json must escape.
_NUMBERS = st.integers(-(2**70), 2**70) | st.floats(
    allow_nan=False, allow_infinity=False
) | st.sampled_from([-0.0, 5e-324, 1e16, 1.7976931348623157e308])
_SCALARS = (
    st.none()
    | st.booleans()
    | _NUMBERS
    | st.text()
    | st.sampled_from(['"', "\\", '", "', "\x00\x1f\n\t", "é☃\U0001f600", "[1, 2]"])
)
_NON_FINITE = st.sampled_from([float("nan"), float("inf"), -float("inf")])


@st.composite
def _number_arrays(draw, ragged=False):
    """A list of numbers 1-3 deep, all leaves equally deep; with ``ragged``
    the sublists of one level may differ in length."""
    shape = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))

    def build(level):
        if level == len(shape):
            return draw(_NUMBERS)
        n = draw(st.integers(1, 4)) if ragged else shape[level]
        return [build(level + 1) for _ in range(n)]

    return build(0)


_ARRAYS = (
    _number_arrays()
    | _number_arrays(ragged=True)
    | st.recursive(_NUMBERS, lambda c: st.lists(c, min_size=1, max_size=3), max_leaves=12)
    | st.sampled_from(
        [[], [[]], [[], [1]], [[1], []], [[1], [], [2]], [1, [2]], [1, True], [[1, 2], [3.5, None]]]
    )
)
_VALUES = st.recursive(
    _SCALARS | _ARRAYS,
    lambda c: st.lists(c, max_size=4)
    | st.lists(c, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=4), c, max_size=4),
    max_leaves=30,
)


def _dumps(v):
    return json.dumps(v, indent=2, sort_keys=True, allow_nan=False)


class TestReportWriter:
    """``cli._encode`` against its oracle: the tokens of ``json.dumps``, laid
    out by the report rule."""

    @settings(max_examples=400, derandomize=True, deadline=None, database=None)
    @given(_VALUES)
    def test_bytes_equal_json_dumps(self, v):
        assert_report_layout(cli._encode(v, "\n"), v)

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(_VALUES, _number_arrays(), _NON_FINITE, st.data())
    def test_non_finite_raises(self, v, array, bad, data):
        # bad at a drawn leaf of a number array, the array inside any value
        inner = array
        while type(inner[0]) is list:
            inner = inner[data.draw(st.integers(0, len(inner) - 1))]
        inner[data.draw(st.integers(0, len(inner) - 1))] = bad
        for poisoned in (array, [v, array], {"a": v, "b": {"c": array}}, bad):
            with pytest.raises(ValueError):
                _dumps(poisoned)
            with pytest.raises(ValueError, match="non-finite"):
                cli._encode(poisoned, "\n")

    # a report's keys are strings: the writer does not convert others, as
    # json.dumps would
    @pytest.mark.parametrize("v", [{1: 2}, {"a": {1, 2}}, [np.float32(1)], [np.int64(1)]])
    def test_refuses_other_types(self, v):
        with pytest.raises(TypeError):
            cli._encode(v, "\n")


class TestReportLeaves:
    """Leaves of exactly float, int, bool, None or str are written without
    the C encoder, and byte for byte as it writes them."""

    @pytest.mark.parametrize(
        "v",
        [True, False, 0, 1, -7, 2**70, None, 0.0, -0.0, 0.1, 1e300, 5e-324, -2.5,
         "", "plain", "é", "ü \n\t\"\\", "\U0001f600", "\x00"],
        ids=repr,
    )
    def test_leaf_is_the_encoders(self, v):
        one = json.dumps(v)
        assert cli._encode(v, "\n") == cli._line(v) == one
        table = {"k": v, "t": [{"v": v}]}
        text = cli._encode(table, "\n")
        assert text == f'{{\n  "k": {one},\n  "t": [\n    {{\n      "v": {one}\n    }}\n  ]\n}}'
        assert_report_layout(text, table)

    def test_bool_is_not_an_int(self):
        assert cli._encode([True, 1, False, 0], "\n") == "[true, 1, false, 0]"
        assert cli._encode({"a": True, "b": 1}, "\n") == '{\n  "a": true,\n  "b": 1\n}'

    def test_float_subclass_goes_through_the_encoder(self, monkeypatch):
        seen = []
        line = cli._line

        def spy(v):
            seen.append(v)
            return line(v)

        monkeypatch.setattr(cli, "_line", spy)
        assert cli._encode(np.float64(0.1), "\n") == "0.1"
        assert cli._encode(0.1, "\n") == "0.1"
        assert [type(v) for v in seen] == [np.float64]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")], ids=repr)
    def test_non_finite_leaf_raises_as_before(self, bad):
        for v in (bad, {"a": bad}, {"a": {"b": [1.0, bad]}}, np.float64(bad)):
            with pytest.raises(ValueError, match="^the report would hold a non-finite number$"):
                cli._encode(v, "\n")

    def test_non_ascii_is_escaped(self):
        text = cli._encode({"name": "Schrödinger ψ \U0001f600"}, "\n")
        assert text.isascii()
        assert text == '{\n  "name": "Schr\\u00f6dinger \\u03c8 \\ud83d\\ude00"\n}'
        assert json.loads(text) == {"name": "Schrödinger ψ \U0001f600"}


class TestCsv:
    def test_float_cells_roundtrip_exactly(self, tmp_path):
        cfg = _write(tmp_path, "c.json", _haar_cfg(n_samples=6))
        main(["sample-haar", "--config", cfg, "--out-dir", str(tmp_path)])
        stats = measure_zero_experiment(
            SystemDims((2, 2)), 6, 1e-6, RngStream(77), sampler="global"
        )
        with open(tmp_path / "sample-haar-samples.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(row["sample_id"]) for row in rows] == list(range(6))
        assert {row["seed"] for row in rows} == {"77"}
        # the lists equal the cells bit for bit
        for key in ("second_schmidt", "product_distance"):
            cells = [float(row[key]).hex() for row in rows]
            assert cells == [v.hex() for v in getattr(stats, key)]

    def test_header_plus_one_line_per_record(self, tmp_path):
        cfg = _write(tmp_path, "c.json", _haar_cfg(n_samples=6))
        main(["sample-haar", "--config", cfg, "--out-dir", str(tmp_path)])
        lines = (tmp_path / "sample-haar-samples.csv").read_text().splitlines()
        assert len(lines) == 7

    def test_emit_csv_refuses_unequal_columns(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv({"a": [1, 2, 3], "b": [0.5, 1.5]}, tmp_path / "bad.csv")
        assert not (tmp_path / "bad.csv").exists()

    def test_emit_csv_holds_the_text_once(self, tmp_path):
        n, g = 40000, np.random.default_rng(5)
        columns = {
            "sample_id": list(range(n)),
            "second_schmidt": g.random(n).tolist(),
            "product_distance": g.random(n).tolist(),
            "seed": [7] * n,
        }
        tracemalloc.start()
        try:
            emit_csv(columns, tmp_path / "s.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a str of the text beside its encoded bytes reads about 3x
        assert peak < 1.5 * (tmp_path / "s.csv").stat().st_size


def _csv_oracle(records, path):
    """The bytes of ``records`` written through a text file, as ``emit_csv``
    once wrote them."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(records[0].keys())
        writer.writerows(
            [format(v, ".17g") if isinstance(v, float) else v for v in rec.values()]
            for rec in records
        )
    return path.read_bytes()


class TestOutputFiles:
    """Reports and CSVs replace whatever their paths held."""

    NAMES = ("sample-haar-report.json", "sample-haar-samples.csv")

    @staticmethod
    def _run(out_dir, n_samples, **extra):
        """One sample-haar run; the report and CSV bytes it should leave."""
        report, code = cli.run(
            ExperimentConfig.from_dict(_haar_cfg(n_samples=n_samples, **extra)), out_dir
        )
        assert code == 0
        stats = measure_zero_experiment(
            SystemDims((2, 2)), n_samples, 1e-6, RngStream(77), sampler="global"
        )
        records = [
            {"sample_id": i, "second_schmidt": s, "product_distance": d, "seed": 77}
            for i, (s, d) in enumerate(zip(stats.second_schmidt, stats.product_distance))
        ]
        text = cli._encode(report, "\n")
        assert_report_layout(text, report)
        return (text + "\n").encode(), _csv_oracle(records, out_dir.parent / "oracle.csv")

    def test_longer_files_leave_no_tail(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        paths = [out / name for name in self.NAMES]
        for p in paths:
            p.write_bytes(b"\xff" * 2**20)
        # each run's report and CSV are shorter than what its paths held
        first = self._run(out, 8, stream_offset=0, expect="no-hits")
        assert [p.read_bytes() for p in paths] == list(first)
        second = self._run(out, 3)
        assert all(len(b) < len(a) for a, b in zip(first, second))
        assert [p.read_bytes() for p in paths] == list(second)

    def test_short_writes_are_resumed(self, tmp_path, monkeypatch):
        write = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: write(fd, data[:100]))
        cli._overwrite(tmp_path / "f", bytes(range(256)) * 40)
        assert (tmp_path / "f").read_bytes() == bytes(range(256)) * 40

    def test_failed_csv_write_is_a_config_error(self, tmp_path, monkeypatch):
        def full(fd, data):
            del data  # as os.write, keep no view of the buffer
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "write", full)
        # not BufferError from closing the CSV buffer while a view of it lives
        with pytest.raises(ConfigError, match="No space left"):
            emit_csv({"a": [0.5, 1.5]}, tmp_path / "s.csv")

    def test_csv_quoting_matches_a_text_file(self, tmp_path):
        records = [
            {"a": 'x,"y"\n', "b": 1.5, "c": None, "d": "\r"},
            {"a": "", "b": -0.0, "c": 2**70, "d": " q "},
        ]
        emit_csv({k: [rec[k] for rec in records] for k in records[0]}, tmp_path / "got.csv")
        assert (tmp_path / "got.csv").read_bytes() == _csv_oracle(
            records, tmp_path / "want.csv"
        )

    def test_new_files_follow_the_umask(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        old = os.umask(0o002)
        try:
            self._run(out, 2)
            open(tmp_path / "text.txt", "w").close()
        finally:
            os.umask(old)
        modes = {p.stat().st_mode & 0o777 for p in (*out.iterdir(), tmp_path / "text.txt")}
        assert modes == {0o664}


class TestCheckCausal:
    def _run(self, tmp_path, zoo_name, **extra):
        data = {
            "experiment": "check-causal",
            "seed": 11,
            "dims": [2, 2],
            "n_scenarios": 5,
            "zoo": {"name": zoo_name},
        }
        data.update(extra)
        cfg = _write(tmp_path, "c.json", data)
        code = main(["check-causal", "--config", cfg, "--out-dir", str(tmp_path)])
        report = json.loads((tmp_path / "check-causal-report.json").read_text())
        return code, report["results"]

    def test_cnot_fails_all_deciders(self, tmp_path):
        code, res = self._run(tmp_path, "cnot")
        assert code == 0  # deciders agree, so the consistency check passes
        assert res["causal"] is False
        assert res["product_unitary"] is False
        assert res["sorkin_max"] > 1e-3
        assert res["one_way_directions"] == []
        assert res["deciders_agree"] is True
        strengths = {d["sender"]: d["strength"] for d in res["defects"]}
        np.testing.assert_allclose(strengths["left"], np.sqrt(2.0), atol=1e-9)

    def test_one_way_channel_is_flagged(self, tmp_path):
        code, res = self._run(tmp_path, "classical-one-way")
        assert code == 0
        assert res["causal"] is False
        assert res["one_way_directions"] == [{"left": [0], "right": [1]}]
        by_sender = {d["sender"]: d["strength"] for d in res["defects"]}
        assert by_sender["left"] > 1.0 and by_sender["right"] < 1e-10

    def test_product_unitary_is_causal(self, tmp_path):
        code, res = self._run(tmp_path, "local-random")
        assert code == 0
        assert res["causal"] is True
        assert res["product_unitary"] is True
        assert res["sorkin_max"] < 1e-10
        assert res["one_way_directions"] == []

    def test_scenario_states_need_no_eigensolve(self, tmp_path, monkeypatch):
        # the (8, 8) Sorkin states pass the Cholesky test; only the defect
        # Grams of the 1- and 2-qubit receivers reach eigvalsh
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a)[-2:])
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        u = haar_unitary(8, np.random.default_rng(3))
        cfg = {"experiment": "check-causal", "seed": 1, "dims": [2, 2, 2],
               "unitary": to_re_im(u)}
        report, code = cli.run(ExperimentConfig.from_dict(cfg), tmp_path)
        assert code == 0 and report["results"]["causal"] is False
        assert report["results"]["sorkin_max"] > 1e-3
        assert set(shapes) == {(4, 4), (16, 16)}

    def test_peak_memory_does_not_grow_with_scenarios(self, tmp_path):
        # each run in a fresh interpreter, so that its peak RSS is its own
        script = textwrap.dedent(
            """
            import resource, sys
            from pathlib import Path
            from qcausal import cli
            cfg = cli.ExperimentConfig.from_dict({
                "experiment": "check-causal", "seed": 5, "dims": [2, 2, 2],
                "n_scenarios": int(sys.argv[1]), "zoo": {"name": "local-random"},
            })
            report, code = cli.run(cfg, Path(sys.argv[2]))
            assert code == 0 and report["results"]["causal"]
            print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
            """
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        peak_kib = {}
        for n in (200, 2000):
            out = subprocess.run(
                [sys.executable, "-c", script, str(n), str(tmp_path)],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert out.returncode == 0, out.stderr
            peak_kib[n] = int(out.stdout)
        assert peak_kib[2000] - peak_kib[200] <= 5 * 1024


class TestDecidersAgree:
    """Defect, Sorkin and (for unitaries) Schmidt deciders give one verdict."""

    @staticmethod
    def _input(kind, dims, rng):
        dims = SystemDims(dims)
        if kind == "haar":
            return {"unitary": to_re_im(haar_unitary(dims.total, rng))}, False
        if kind == "product":
            return {"unitary": to_re_im(haar_local_unitary(dims, rng))}, True
        if kind == "kraus":
            return {"channel": random_kraus_channel(dims, 2, rng).to_json()}, False
        if kind == "depolarizing":
            return {"zoo": {"name": kind, "params": {"lam": 0.4}}}, True
        return {"zoo": {"name": kind}}, False

    @pytest.mark.parametrize(
        "dims, kind",
        [
            (dims, kind)
            for dims in ((2, 2, 2), (3, 3), (2, 4), (2, 3, 2))
            for kind in ("haar", "product", "kraus", "depolarizing")
        ]
        + [((2, 2), "classical-one-way")],
    )
    def test_known_verdict_and_agreement(self, tmp_path, dims, kind):
        rng = RngStream(zlib.crc32(f"{dims}{kind}".encode())).generator()
        channel, causal = self._input(kind, dims, rng)
        cfg = {
            "experiment": "check-causal",
            "seed": 31,
            "dims": list(dims),
            **channel,
        }
        report, code = cli.run(ExperimentConfig.from_dict(cfg), tmp_path)
        res = report["results"]
        assert code == 0
        assert res["deciders_agree"] is True
        assert res["causal"] is causal
        assert (res["sorkin_max"] <= res["tol"]) is causal
        if "unitary" in channel:
            assert res["product_unitary"] is causal


class TestOtherRunners:
    def test_nearest_product_samples_mode(self, tmp_path):
        cfg = _write(
            tmp_path,
            "c.json",
            {
                "experiment": "nearest-product",
                "seed": 9,
                "dims": [2, 2],
                "n_samples": 4,
            },
        )
        assert main(["nearest-product", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        res = json.loads((tmp_path / "nearest-product-report.json").read_text())["results"]
        assert [r["label"] for r in res["rows"]] == [f"haar-{i}" for i in range(4)]
        assert all(r["converged"] for r in res["rows"])
        assert all("u1" not in r for r in res["rows"])

    def test_nearest_product_eight_by_eight_converges(self, tmp_path):
        # without the tail step, row haar-1 stops at max_iter = 500 and the run exits 2
        cfg = _write(
            tmp_path,
            "c.json",
            {"experiment": "nearest-product", "seed": 1, "dims": [8, 8], "n_samples": 4},
        )
        assert main(["nearest-product", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        res = json.loads((tmp_path / "nearest-product-report.json").read_text())["results"]
        assert len(res["rows"]) == 4
        assert all(r["converged"] for r in res["rows"])

    def test_nearest_product_blocks_do_not_change_rows(self, tmp_path, monkeypatch):
        cfg = _write(
            tmp_path,
            "c.json",
            {"experiment": "nearest-product", "seed": 9, "dims": [2, 3], "n_samples": 7},
        )

        def rows():
            assert main(["nearest-product", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
            report = json.loads((tmp_path / "nearest-product-report.json").read_text())
            return report["results"]["rows"]

        whole = rows()
        monkeypatch.setattr(cli, "SAMPLE_BLOCK", 3)
        assert rows() == whole

    def test_nearest_product_memory_does_not_grow_with_samples(self, monkeypatch):
        monkeypatch.setattr(cli, "SAMPLE_BLOCK", 4)

        def transient(n):
            """Traced peak of n (2, 3) draws less what the results keep."""
            cfg = ExperimentConfig.from_dict(
                {"experiment": "nearest-product", "seed": 9, "dims": [2, 3], "n_samples": n}
            )
            tracemalloc.start()
            try:
                results = cli._run_nearest_product(cfg, None)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(results[0]["rows"]) == n
            return peak - kept

        transient(16)  # warm-up
        # beyond its rows, 256 draws hold no more than four blocks do
        assert transient(256) <= 2 * transient(16)

    def test_nearest_product_explicit_unitary(self, tmp_path):
        cfg = _write(
            tmp_path,
            "c.json",
            {"experiment": "nearest-product", "seed": 9, "dims": [2, 2], "unitary": _CNOT},
        )
        assert main(["nearest-product", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        row = json.loads((tmp_path / "nearest-product-report.json").read_text())[
            "results"
        ]["rows"][0]
        np.testing.assert_allclose(row["distance"], np.sqrt(8 - 2 * row["overlap"]))
        assert len(row["u1"]) == 2 and len(row["u2"]) == 2

    @pytest.mark.parametrize("left", [[0], [0, 1, 2, 3, 4]])
    def test_nearest_product_six_qubits(self, tmp_path, left):
        base = {
            "experiment": "nearest-product",
            "seed": 9,
            "dims": [2] * 6,
            "left_sites": left,
        }

        def results(**extra):
            cfg = _write(tmp_path, "c.json", {**base, **extra})
            assert main(["nearest-product", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
            return json.loads((tmp_path / "nearest-product-report.json").read_text())["results"]

        rows = results(n_samples=2)["rows"]
        assert [r["label"] for r in rows] == ["haar-0", "haar-1"]
        assert all(r["converged"] for r in rows)
        u = haar_unitary(64, RngStream(10))
        (row,) = results(unitary=to_re_im(u))["rows"]
        assert row["converged"]
        # the prefix split makes u1 (x) u2 the kron product of the reported factors
        prod = np.kron(from_re_im(row["u1"]), from_re_im(row["u2"]))
        phase = np.trace(prod.conj().T @ u)
        distance = np.linalg.norm(u - phase / abs(phase) * prod)
        np.testing.assert_allclose(row["distance"], distance, rtol=1e-12)

    def test_nearest_product_rejects_noisy_channel(self, tmp_path, capsys):
        cfg = _write(
            tmp_path,
            "c.json",
            {
                "experiment": "nearest-product",
                "seed": 9,
                "dims": [2, 2],
                "zoo": {"name": "depolarizing", "params": {"lam": 0.5}},
            },
        )
        assert main(["nearest-product", "--config", cfg, "--out-dir", str(tmp_path)]) == 1
        assert "unitary" in capsys.readouterr().err

    def test_perturb_ball_defaults_pass(self, tmp_path):
        cfg = _write(tmp_path, "c.json", {"experiment": "perturb-ball", "seed": 4})
        assert main(["perturb-ball", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        res = json.loads((tmp_path / "perturb-ball-report.json").read_text())["results"]
        assert res["linear"] is True
        assert res["defect_ratio_spread"] < 1e-9
        np.testing.assert_allclose(
            res["rows"][0]["defect_over_epsilon"], np.sqrt(2.0), atol=1e-9
        )

    @pytest.mark.parametrize(
        "dims,causal,acausal",
        [
            ([2, 2], {"name": "identity"}, {"name": "classical-one-way"}),
            ([2, 2], {"name": "local-random"}, {"name": "cnot"}),
            (
                [3, 3],
                {"name": "depolarizing", "params": {"lam": 0.5}},
                {"name": "swap", "params": {"d": 3}},
            ),
        ],
    )
    def test_perturb_ball_small_epsilon_is_linear(self, dims, causal, acausal):
        # the defect's rounding, about D eps, is most of defect/eps at eps = 1e-8
        for seed in range(1, 21):
            cfg = ExperimentConfig.from_dict(
                {
                    "experiment": "perturb-ball",
                    "seed": seed,
                    "dims": dims,
                    "causal": causal,
                    "acausal": acausal,
                    "epsilons": [0.1, 1e-8],
                }
            )
            results, passed = cli._run_perturb_ball(cfg, None)
            assert passed and results["linear"] is True

    def test_perturb_ball_rounding_passes_at_zero_rtol(self):
        # the Choi ratios differ by rounding only, which a spread test without
        # the floor read against linearity_rtol; the README default, and (8,8)
        configs = [
            {"seed": seed, "linearity_rtol": rtol}
            for rtol in (0, 1e-16)
            for seed in range(1, 11)
        ]
        swap8 = {"name": "swap", "params": {"d": 8}}
        configs.append({"seed": 1, "linearity_rtol": 0, "dims": [8, 8], "acausal": swap8})
        for extra in configs:
            cfg = ExperimentConfig.from_dict({"experiment": "perturb-ball", **extra})
            results, passed = cli._run_perturb_ball(cfg, None)
            assert passed and results["linear"] is True

    _SWAP8 = {"dims": [8, 8], "acausal": {"name": "swap", "params": {"d": 8}}}

    @pytest.mark.parametrize(
        "extra, code",
        [
            ({"epsilons": [1e-200]}, 1),  # defect 0.0
            ({"epsilons": [1e-15]}, 1),  # one row, below the rounding floor
            ({"epsilons": [0.1, 5e-324]}, 1),  # one row above it
            ({}, 0),
            (_SWAP8, 0),
        ],
    )
    def test_perturb_ball_needs_two_rows_above_rounding(self, tmp_path, capsys, extra, code):
        cfg = _write(tmp_path, "c.json", {"experiment": "perturb-ball", "seed": 4, **extra})
        assert main(["perturb-ball", "--config", cfg, "--out-dir", str(tmp_path)]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("error: 'epsilons'") and err.count("\n") == 1

    def test_perturb_ball_subnormal_epsilon_prints_one_error_line(self, tmp_path, capsys):
        # the defect at 5e-324 is rounding, so its ratio to epsilon is inf
        data = {
            "experiment": "perturb-ball",
            "seed": 4,
            **self._SWAP8,
            "causal": {"name": "local-random"},
            "epsilons": [0.1, 0.01, 5e-324],
        }
        cfg = _write(tmp_path, "c.json", data)
        assert main(["perturb-ball", "--config", cfg, "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: the report would hold a non-finite number\n"

    @staticmethod
    def _bend_at_1e3(tmp_path, monkeypatch, field):
        probe = cli.perturbation_probe

        def bent(*args, **kwargs):
            rows = probe(*args, **kwargs)
            for r in rows:
                if r.epsilon == 1e-3:
                    setattr(r, field, getattr(r, field) * (1 + scale))
            return rows

        monkeypatch.setattr(cli, "perturbation_probe", bent)
        data = {"experiment": "perturb-ball", "seed": 4, "epsilons": [0.1, 1e-3]}
        cfg = _write(tmp_path, "c.json", data)
        for scale, code in [(0.0, 0), (1e-6, 2)]:
            assert main(["perturb-ball", "--config", cfg, "--out-dir", str(tmp_path)]) == code
            report = json.loads((tmp_path / "perturb-ball-report.json").read_text())
            assert report["results"]["linear"] is (code == 0)

    def test_perturb_ball_fails_a_nonlinear_defect(self, tmp_path, monkeypatch):
        self._bend_at_1e3(tmp_path, monkeypatch, "defect")

    def test_perturb_ball_fails_a_nonlinear_choi_distance(self, tmp_path, monkeypatch):
        self._bend_at_1e3(tmp_path, monkeypatch, "choi_distance")

    def test_perturb_ball_sender_orients_the_bipartition(self, tmp_path, capsys):
        def run_ball(**extra):
            data = {"experiment": "perturb-ball", "seed": 4, **extra}
            cfg = _write(tmp_path, "c.json", data)
            return main(["perturb-ball", "--config", cfg, "--out-dir", str(tmp_path)])

        def rows():
            report = json.loads((tmp_path / "perturb-ball-report.json").read_text())
            return report["results"]["rows"]

        assert run_ball() == 0
        default = rows()
        # sender right of the split {1} | {0} is the default direction 0 -> 1
        assert run_ball(sender="right", left_sites=[1]) == 0
        assert rows() == default
        # the one-way channel is silent from 1 to 0
        capsys.readouterr()
        assert run_ball(sender="right", left_sites=[0]) == 1
        err = capsys.readouterr().err
        assert "error: 'acausal' endpoint shows no defect" in err

    def test_lattice_sorkin_passes_and_is_nonzero(self, tmp_path):
        cfg = _write(
            tmp_path,
            "c.json",
            {
                "experiment": "lattice-sorkin",
                "seed": 0,
                "lattice": {"n_sites": 64, "n_steps": 16, "mass": 1.0},
                "k_region": [[t, x] for t in (6, 7) for x in range(20, 41)],
                "require_nonzero": True,
            },
        )
        assert main(["lattice-sorkin", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        res = json.loads((tmp_path / "lattice-sorkin-report.json").read_text())["results"]
        assert res["delta_hg"] == 0.0
        assert res["derivative"] != 0.0
        np.testing.assert_allclose(
            res["derivative"], res["expected_derivative"], atol=1e-12
        )

    def test_lattice_sorkin_requires_geometry(self, tmp_path, capsys):
        cfg = _write(
            tmp_path, "c.json", {"experiment": "lattice-sorkin", "seed": 0}
        )
        assert main(["lattice-sorkin", "--config", cfg, "--out-dir", str(tmp_path)]) == 1
        assert "k_region" in capsys.readouterr().err


def test_console_script_entry_point(tmp_path):
    cfg = _write(tmp_path, "c.json", _haar_cfg(n_samples=3))
    out = subprocess.run(
        ["qcausal", "sample-haar", "--config", cfg, "--out-dir", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "sample-haar: PASS"


def test_entry_module_runs_from_source(tmp_path):
    # the module's own `sys.exit(main())`, without an installed script
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    cfg = _write(tmp_path, "c.json", _README_EXAMPLES["perturb-ball"])

    def qcausal(*args):
        return subprocess.run(
            [sys.executable, "-m", "qcausal.cli", *args],
            capture_output=True, text=True, env=env, timeout=120,
        )

    out = qcausal("perturb-ball", "--config", cfg, "--out-dir", str(tmp_path), "--verbose")
    assert out.returncode == 1 and out.stdout == ""
    assert out.stderr == "error: unrecognized arguments: --verbose\n"
    out = qcausal("perturb-ball", "--config", cfg, "--out-dir", str(tmp_path))
    assert out.returncode == 0, out.stderr
    assert out.stdout == "perturb-ball: PASS\n" and out.stderr == ""


class TestReadme:
    def test_readme_examples_are_valid(self):
        blocks = re.findall(r"```json\n(.*?)```", _README.read_text(), re.S)
        assert len(blocks) == len(EXPERIMENTS)
        for block in blocks:
            ExperimentConfig.from_dict(json.loads(block))

    def test_readme_lists_every_field_and_default(self):
        text = _README.read_text()
        for name, (_, _, fields) in EXPERIMENTS.items():
            table = text.split(f"#### `{name}`\n", 1)[1].strip().split("\n\n")[0]
            rows = [line.split("|")[1:4] for line in table.splitlines()[2:]]
            listed = {f.strip(" `"): d.strip() for f, _, d in rows}
            assert listed.keys() == fields.keys(), name
            for field, cell in listed.items():
                default = fields[field][0]
                if default is REQUIRED:
                    assert cell == "required", field
                elif default is None:
                    assert cell == "—", field
                else:
                    assert json.loads(cell.strip("`")) == default, field
        table = text.split("#### Zoo channels\n", 1)[1]
        table = table.split("| entry |", 1)[1].split("\n\n")[0]
        listed = {}
        for line in table.splitlines()[2:]:
            entry, param, _, default = (c.strip(" `") for c in line.split("|")[1:5])
            params = listed.setdefault(entry, {})
            if param != "—":
                params[param] = REQUIRED if default == "required" else json.loads(default)
        assert listed == {n: {k: d for k, (d, _) in p.items()} for n, p in ZOO.items()}


class TestLatticeSorkinOp:
    """One ``lattice-sorkin`` op: its exact bits, and its Pauli-Jordan work."""

    # 4x12 K on 64x24: both probes see K, so Delta(f, g) and Delta(f, h) are
    # nonzero and the chain evaluates all four pairs (f,g), (f,h), (h,g), (h,f)
    WIDE = {
        "experiment": "lattice-sorkin",
        "seed": 0,
        "lattice": {"n_sites": 64, "n_steps": 24, "mass": 1.0},
        "k_region": [[t, x] for t in range(8, 12) for x in range(20, 32)],
        "lambdas": [-1.5, 0.0, 0.25, 1.0],
        "require_nonzero": True,
    }
    # float.hex of (delta_fg, delta_fh, delta_hg, derivative) and of each
    # row's (coeff_f, scalar), as the plain pair loop in pair order gives them
    PINS = {
        "readme": (
            ("0x0.0p+0",) * 4,
            [("0x0.0p+0", "0x0.0p+0")] * 3,
        ),
        "wide": (
            ("-0x1.2ef9a6e971c01p-3", "0x1.2ef9a6e971c06p-3", "0x0.0p+0",
             "0x1.6691f944e7541p-5"),
            [
                ("0x1.2ef9a6e971c01p-2", "-0x1.0ced7af3ad7f1p-4"),
                ("0x1.2ef9a6e971c01p-2", "0x0.0p+0"),
                ("0x1.2ef9a6e971c01p-2", "0x1.6691f944e7541p-7"),
                ("0x1.2ef9a6e971c01p-2", "0x1.6691f944e7541p-5"),
            ],
        ),
    }

    def _config(self, name):
        return self.WIDE if name == "wide" else _README_EXAMPLES["lattice-sorkin"]

    def _results(self, name, out_dir):
        report, code = cli.run(ExperimentConfig.from_dict(self._config(name)), out_dir)
        assert code == 0
        return report["results"]

    @pytest.mark.parametrize(
        "k_region, message",
        [
            ([[6, 20, 1]], "'k_region' must be a list of [t, x] integer pairs"),
            ([[6.0, 20]], "'k_region' must be a list of [t, x] integer pairs"),
            ([[True, 20]], "'k_region' must be a list of [t, x] integer pairs"),
            ([[6, "20"]], "'k_region' must be a list of [t, x] integer pairs"),
            ([[6]], "'k_region' must be a list of [t, x] integer pairs"),
            ("x", "'k_region' must be a list of [t, x] integer pairs"),
            ([], "a region needs at least one point"),
        ],
        ids=["triple", "float", "bool", "string", "single", "not-a-list", "empty"],
    )
    def test_k_region_refusals(self, k_region, message, tmp_path, capsys):
        cfg = _write(tmp_path, "c.json", dict(self.WIDE, k_region=k_region))
        assert main(["lattice-sorkin", "--config", cfg, "--out-dir", str(tmp_path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and message in err
        assert not (tmp_path / "lattice-sorkin-report.json").exists()

    def test_repeated_k_point_counts_once(self, tmp_path):
        # the config echo keeps the repeat; f and every Delta do not see it
        reports = []
        for k_region in ([[6, 20], [6, 20], [6, 21]], [[6, 20], [6, 21]]):
            cfg = dict(_README_EXAMPLES["lattice-sorkin"], k_region=k_region)
            report, code = cli.run(ExperimentConfig.from_dict(cfg), tmp_path)
            assert code == 0 and report["config"]["k_region"] == k_region
            reports.append(report["results"])
        assert reports[0] == reports[1]
        assert [p[:2] for p in reports[0]["supports"]["f"]] == [[6, 20], [6, 21]]

    @pytest.mark.parametrize("name", ["readme", "wide"])
    def test_exact_bits(self, name, tmp_path):
        res = self._results(name, tmp_path)
        deltas = tuple(
            res[k].hex() for k in ("delta_fg", "delta_fh", "delta_hg", "derivative")
        )
        rows = [(r["coeff_f"].hex(), r["scalar"].hex()) for r in res["rows"]]
        assert (deltas, rows) == self.PINS[name]

    # -2 lam overflows: an infinity, or NaN where Delta(f, g) Delta(f, h) = 0
    @pytest.mark.parametrize("name", ["readme", "wide"])
    def test_non_finite_report_is_one(self, name, tmp_path, capsys):
        cfg = dict(self._config(name), lambdas=[1e308, -1e308])
        path = _write(tmp_path, "c.json", cfg)
        code = main(["lattice-sorkin", "--config", path, "--out-dir", str(tmp_path)])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: the report would hold a non-finite number\n"
        assert not (tmp_path / "lattice-sorkin-report.json").exists()

    # the scalar grows with lambda, and -2 lam Delta(f,g) Delta(f,h) rounds
    # otherwise than the chain: an absolute 1e-12 fails these correct chains
    @pytest.mark.parametrize("lam", [12345.678, 1e8])
    def test_large_lambda_is_compared_relative_to_the_scalar(self, lam, tmp_path):
        cfg = dict(
            self.WIDE,
            k_region=[[t, x] for t in (8, 9) for x in range(20, 32)],
            lambdas=[lam],
        )
        path = _write(tmp_path, "c.json", cfg)
        assert main(["lattice-sorkin", "--config", path, "--out-dir", str(tmp_path)]) == 0
        res = json.loads((tmp_path / "lattice-sorkin-report.json").read_text())["results"]
        assert res["identity_ok"] is True
        (row,) = res["rows"]
        assert abs(row["scalar"] - row["expected_scalar"]) > 1e-12

    def test_spacelike_check_runs_once_per_placement(self, tmp_path, monkeypatch):
        # build_scenario checks each placement's fresh (g, h); the op's four
        # chains, one per lambda and the derivative's, find the verdict cached
        bumps, checks = [], []
        bump, check = lattice.triangular_bump, lattice.Region.spacelike_separated
        monkeypatch.setattr(lattice, "triangular_bump", lambda *a: bumps.append(a) or bump(*a))
        monkeypatch.setattr(
            lattice.Region, "spacelike_separated", lambda *a: checks.append(a) or check(*a)
        )
        lattice._spacelike_supports.cache_clear()
        self._results("readme", tmp_path)
        info = lattice._spacelike_supports.cache_info()
        assert len(checks) == info.misses == len(bumps) // 2
        assert info.hits == 4

    @pytest.mark.parametrize("name, pairs", [("readme", 3), ("wide", 4)])
    def test_each_pair_is_evaluated_once(self, name, pairs, tmp_path, monkeypatch):
        # every evaluation asks for its table once, cache hit or not; the
        # README example never asks for (h, f): Delta(f, g) = 0 keeps f out
        # of the chain's linear part
        asked = []
        table = lattice._base_table
        monkeypatch.setattr(
            lattice, "_base_table", lambda *key: asked.append(key) or table(*key)
        )
        self._results(name, tmp_path)
        assert len(asked) == pairs
