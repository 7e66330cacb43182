import csv
import json
import subprocess
from pathlib import Path

import numpy as np
import pytest

from qcausal.cli import ConfigError, ExperimentConfig, emit_csv, main
from qcausal.sampling import RngStream, measure_zero_experiment
from qcausal.tensor import SystemDims


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

    def test_missing_config_is_one(self, tmp_path, capsys):
        code = main(
            ["sample-haar", "--config", str(tmp_path / "nope.json")]
        )
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_bad_json_is_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code = main(["sample-haar", "--config", str(path)])
        assert code == 1
        assert "not valid JSON" in capsys.readouterr().err

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
        ],
        ids=["no-dims", "flat-kraus", "not-an-object", "scalar-dims", "string-entry"],
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

    def test_failed_expectation_is_two(self, tmp_path, capsys):
        # a global Haar draw essentially never lands on a product unitary
        cfg = _write(tmp_path, "c.json", _haar_cfg(n_samples=5, expect="all-hits"))
        code = main(["sample-haar", "--config", cfg, "--out-dir", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().out.strip() == "sample-haar: FAIL"
        report = json.loads((tmp_path / "sample-haar-report.json").read_text())
        assert report["passed"] is False


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

    def test_sorted_keys_and_trailing_newline(self, tmp_path):
        cfg = _write(tmp_path, "c.json", _haar_cfg(n_samples=4))
        main(["sample-haar", "--config", cfg, "--out-dir", str(tmp_path)])
        text = (tmp_path / "sample-haar-report.json").read_text()
        assert text.endswith("\n")
        parsed = json.loads(text)
        assert text == json.dumps(parsed, indent=2, sort_keys=True) + "\n"

    def test_custom_output_names(self, tmp_path):
        cfg = _write(
            tmp_path,
            "c.json",
            _haar_cfg(output={"report": "r.json", "csv": "s.csv"}),
        )
        main(["sample-haar", "--config", cfg, "--out-dir", str(tmp_path)])
        assert (tmp_path / "r.json").exists()
        assert (tmp_path / "s.csv").exists()

    def test_rerun_identical_up_to_wall_time(self, tmp_path):
        cfg = _write(tmp_path, "c.json", _haar_cfg(n_samples=8))
        for d in ("a", "b"):
            main(["sample-haar", "--config", cfg, "--out-dir", str(tmp_path / d)])
        ra = json.loads((tmp_path / "a" / "sample-haar-report.json").read_text())
        rb = json.loads((tmp_path / "b" / "sample-haar-report.json").read_text())
        ra.pop("wall_time_s"), rb.pop("wall_time_s")
        assert ra == rb
        assert (tmp_path / "a" / "sample-haar-samples.csv").read_bytes() == (
            tmp_path / "b" / "sample-haar-samples.csv"
        ).read_bytes()


class TestCsv:
    def test_float_cells_roundtrip_exactly(self, tmp_path):
        cfg = _write(tmp_path, "c.json", _haar_cfg(n_samples=6))
        main(["sample-haar", "--config", cfg, "--out-dir", str(tmp_path)])
        stats = measure_zero_experiment(
            SystemDims((2, 2)), 6, 1e-6, RngStream(77), sampler="global"
        )
        with open(tmp_path / "sample-haar-samples.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        for row, rec in zip(rows, stats.records):
            assert int(row["sample_id"]) == rec["sample_id"]
            assert float(row["second_schmidt"]) == rec["second_schmidt"]
            assert float(row["product_distance"]) == rec["product_distance"]

    def test_header_plus_one_line_per_record(self, tmp_path):
        cfg = _write(tmp_path, "c.json", _haar_cfg(n_samples=6))
        main(["sample-haar", "--config", cfg, "--out-dir", str(tmp_path)])
        lines = (tmp_path / "sample-haar-samples.csv").read_text().splitlines()
        assert len(lines) == 7

    def test_emit_csv_empty_needs_explicit_columns(self, tmp_path):
        with pytest.raises(ValueError, match="columns"):
            emit_csv([], tmp_path / "empty.csv")
        emit_csv([], tmp_path / "empty.csv", columns=["a", "b"])
        assert (tmp_path / "empty.csv").read_text().strip() == "a,b"


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

    def test_nearest_product_explicit_unitary(self, tmp_path):
        cnot = [
            [[1, 0], [0, 0], [0, 0], [0, 0]],
            [[0, 0], [1, 0], [0, 0], [0, 0]],
            [[0, 0], [0, 0], [0, 0], [1, 0]],
            [[0, 0], [0, 0], [1, 0], [0, 0]],
        ]
        cfg = _write(
            tmp_path,
            "c.json",
            {"experiment": "nearest-product", "seed": 9, "dims": [2, 2], "unitary": cnot},
        )
        assert main(["nearest-product", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        row = json.loads((tmp_path / "nearest-product-report.json").read_text())[
            "results"
        ]["rows"][0]
        np.testing.assert_allclose(row["distance"], np.sqrt(8 - 2 * row["overlap"]))
        assert len(row["u1"]) == 2 and len(row["u2"]) == 2

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
