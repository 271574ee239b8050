import json
from pathlib import Path

import pytest

from switchbsde.cli import run


def write_config(tmp_path: Path, payload: dict, name: str = "config.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def solve_config(**updates) -> dict:
    cfg = {
        "schema_version": 1,
        "problem": {"name": "bm1", "overrides": {}},
        "scheme": {"h": 0.25, "n": 0, "paths": 400, "basis": {"degree": 2}},
        "outputs": {"dir": "out"},
        "seed": 7,
    }
    cfg.update(updates)
    return cfg


class TestConfigErrors:
    def test_missing_file(self, tmp_path):
        assert run("solve", str(tmp_path / "none.json"), out=str(tmp_path)) == 3

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert run("solve", str(path), out=str(tmp_path)) == 3

    def test_unknown_command(self, tmp_path):
        cfg = write_config(tmp_path, solve_config())
        assert run("frobnicate", cfg, out=str(tmp_path)) == 3

    def test_unknown_catalog_name(self, tmp_path):
        cfg = write_config(tmp_path, solve_config(problem={"name": "nope", "overrides": {}}))
        assert run("solve", cfg, out=str(tmp_path)) == 3

    def test_seed_mandatory(self, tmp_path):
        payload = solve_config()
        del payload["seed"]
        cfg = write_config(tmp_path, payload)
        assert run("solve", cfg, out=str(tmp_path)) == 3
        # but a CLI override suffices
        assert run("solve", cfg, seed=5, out=str(tmp_path)) == 0

    def test_bad_override_key(self, tmp_path):
        cfg = write_config(tmp_path, solve_config(problem={"name": "bm1", "overrides": {"zeta": 1}}))
        assert run("solve", cfg, out=str(tmp_path)) == 3

    @pytest.mark.parametrize(
        "command, section, value",
        [
            ("compare", "oracle", {"fd": [1, 2]}),
            ("ladder", "ladder", [1, 2]),
            ("validate", "outputs", ["dir"]),
            ("validate", "validate", ["samples"]),
        ],
    )
    def test_section_must_be_an_object(self, tmp_path, command, section, value):
        cfg = write_config(tmp_path, solve_config(**{section: value}))
        assert run(command, cfg, out=None if section == "outputs" else str(tmp_path)) == 3

    @pytest.mark.parametrize(
        "fd", [{"mode": "penalized", "n": "256"}, {"n": -1}, {"M": 40.0}, {"facelift": True}, {"theta": 0.5}]
    )
    def test_fd_keys_checked(self, tmp_path, fd):
        payload = solve_config(problem={"name": "switch2-linear", "overrides": {}}, oracle={"fd": fd})
        assert run("oracle", write_config(tmp_path, payload), out=str(tmp_path)) == 3

    @pytest.mark.parametrize(
        "scheme",
        [
            {"ridge": "abc"},
            {"ridge": float("inf")},
            {"basis": {"stratify_by_regime": "false"}},
            {"clip_to_growth_bound": "false"},
            {"n": 2.7},
            {"basis": {"degree": 1.5}},
            {"basis": [2]},
            {"basis": {"degre": 5}},
            {"clip": True},
        ],
    )
    def test_scheme_keys_checked(self, tmp_path, scheme):
        payload = solve_config()
        payload["scheme"].update(scheme)
        assert run("solve", write_config(tmp_path, payload), out=str(tmp_path)) == 3
        assert not (tmp_path / "result.json").exists()

    @pytest.mark.parametrize("samples", ["many", 2.7, 0])
    def test_validate_samples_checked(self, tmp_path, samples):
        cfg = write_config(tmp_path, solve_config(validate={"samples": samples}))
        assert run("validate", cfg, out=str(tmp_path)) == 3
        assert not (tmp_path / "validation.json").exists()

    @pytest.mark.parametrize("schedule", [[1.5, 2], "1, 2"])
    def test_ladder_schedule_checked(self, tmp_path, schedule):
        payload = solve_config(problem={"name": "switch2-linear", "overrides": {}}, ladder={"n_schedule": schedule})
        assert run("ladder", write_config(tmp_path, payload), out=str(tmp_path)) == 3
        assert not (tmp_path / "ladder.json").exists()


class TestValidateCommand:
    def test_negative_intensity_exits_one(self, tmp_path):
        cfg = write_config(
            tmp_path,
            solve_config(problem={"name": "bm1", "overrides": {"intensity": [-0.5]}}),
        )
        assert run("validate", cfg, out=str(tmp_path)) == 1
        report = json.loads((tmp_path / "validation.json").read_text())
        assert report["passed"] is False

    def test_clean_problem_exits_zero(self, tmp_path):
        cfg = write_config(tmp_path, solve_config(problem={"name": "switch2-linear", "overrides": {}}))
        assert run("validate", cfg, out=str(tmp_path)) == 0
        report = json.loads((tmp_path / "validation.json").read_text())
        assert report["passed"] is True
        assert report["schema_version"] == 1


class TestSolveCommand:
    def test_artifacts_and_reproducibility(self, tmp_path):
        cfg = write_config(tmp_path, solve_config())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run("solve", cfg, out=str(out_a)) == 0
        assert run("solve", cfg, out=str(out_b)) == 0
        bytes_a = (out_a / "result.json").read_bytes()
        bytes_b = (out_b / "result.json").read_bytes()
        assert bytes_a == bytes_b
        payload = json.loads(bytes_a)
        assert payload["schema_version"] == 1
        assert "y0" in payload and "diagnostics" in payload
        assert "skorohod_residual" in payload["diagnostics"]

    def test_seed_changes_artifact(self, tmp_path):
        cfg = write_config(tmp_path, solve_config())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run("solve", cfg, out=str(out_a))
        run("solve", cfg, seed=8, out=str(out_b))
        assert (out_a / "result.json").read_bytes() != (out_b / "result.json").read_bytes()

    def test_dumps_written_when_flagged(self, tmp_path):
        cfg = write_config(tmp_path, solve_config())
        assert (
            run(
                "solve",
                cfg,
                out=str(tmp_path / "o"),
                dump_paths=True,
                dump_steps=True,
                dump_regression=True,
            )
            == 0
        )
        for name in ("result.json", "paths.csv", "steps.csv", "regression.csv"):
            assert (tmp_path / "o" / name).exists()
        lines = (tmp_path / "o" / "paths.csv").read_text().splitlines()
        assert lines[0] == "path,s,regime,x_1"
        first = lines[1].split(",")
        assert [float(v) for v in first]  # plain decimal fields, '.' separator
        header = (tmp_path / "o" / "regression.csv").read_text().splitlines()[0]
        assert header.startswith("step,family,stratum")
        steps_row = (tmp_path / "o" / "steps.csv").read_text().splitlines()[1]
        assert all(v == repr(float(v)) or v.isdigit() for v in steps_row.split(","))

    def test_divergence_exit_code(self, tmp_path):
        cfg = write_config(
            tmp_path,
            solve_config(problem={"name": "bm1", "overrides": {"growth_bound": [0.001, 0.0]}}),
        )
        assert run("solve", cfg, out=str(tmp_path)) == 2


class TestOtherCommands:
    def test_simulate_writes_paths(self, tmp_path):
        cfg = write_config(tmp_path, solve_config())
        assert run("simulate", cfg, out=str(tmp_path / "s")) == 0
        assert (tmp_path / "s" / "paths.csv").exists()

    def test_oracle_penalized_requires_level(self, tmp_path):
        payload = solve_config(problem={"name": "switch2-linear", "overrides": {}})
        payload["oracle"] = {"fd": {"M": 60, "dt": 0.005, "mode": "penalized"}}
        cfg = write_config(tmp_path, payload)
        assert run("oracle", cfg, out=str(tmp_path / "p")) == 3

    def test_oracle_writes_grid(self, tmp_path):
        payload = solve_config(problem={"name": "switch2-linear", "overrides": {}})
        payload["oracle"] = {"fd": {"M": 80, "dt": 0.005}}
        cfg = write_config(tmp_path, payload)
        assert run("oracle", cfg, out=str(tmp_path / "g")) == 0
        assert (tmp_path / "g" / "grid.csv").exists()
        meta = json.loads((tmp_path / "g" / "grid.json").read_text())
        assert meta["schema_version"] == 1
        assert meta["mode"] == "projection"
        assert meta["value_at_start"] == pytest.approx(0.15, abs=2e-3)

    def test_ladder_artifact(self, tmp_path):
        payload = solve_config(problem={"name": "switch2-linear", "overrides": {}})
        payload["scheme"] = {"h": 0.05, "paths": 300, "basis": {"degree": 1}}
        payload["ladder"] = {"n_schedule": [1, 2, 4]}
        cfg = write_config(tmp_path, payload)
        assert run("ladder", cfg, out=str(tmp_path / "l")) == 0
        report = json.loads((tmp_path / "l" / "ladder.json").read_text())
        assert report["schema_version"] == 1
        assert report["n_schedule"] == [1, 2, 4]
        assert len(report["y0"]) == 3
        assert len(report["mean_violation"]) == 3
        assert isinstance(report["monotone"], bool)

    def test_compare_artifact(self, tmp_path):
        payload = solve_config(problem={"name": "switch2-linear", "overrides": {}})
        payload["scheme"] = {"h": 0.05, "n": 16, "paths": 4000, "clip_to_growth_bound": True}
        payload["oracle"] = {"fd": {"M": 200, "dt": 0.002}}
        cfg = write_config(tmp_path, payload)
        assert run("compare", cfg, out=str(tmp_path / "c")) == 0
        report = json.loads((tmp_path / "c" / "compare.json").read_text())
        assert report["schema_version"] == 1
        assert {"value", "oracle_value", "abs_gap", "rel_gap"} <= report.keys()
        assert report["abs_gap"] < 0.25

    def test_workers_do_not_change_bytes(self, tmp_path):
        cfg = write_config(tmp_path, solve_config())
        outs = []
        for w in (1, 2):
            out = tmp_path / f"w{w}"
            assert run("solve", cfg, workers=w, out=str(out)) == 0
            outs.append((out / "result.json").read_bytes())
        assert outs[0] == outs[1]
