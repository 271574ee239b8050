import hashlib
import json
import multiprocessing
import os
from pathlib import Path

import numpy as np
import pytest

from switchbsde import (
    BasisSpec,
    SchemeConfig,
    build_problem,
    default_grid,
    fd_solve,
    simulate_paths,
    solve_backward,
)
from switchbsde.cli import COMMANDS, main, run


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
        # but a CLI override suffices, a numpy integer too
        assert run("solve", cfg, seed=5, out=str(tmp_path / "a")) == 0
        assert run("solve", cfg, seed=np.int64(5), out=str(tmp_path / "b")) == 0
        assert (tmp_path / "a" / "result.json").read_bytes() == (tmp_path / "b" / "result.json").read_bytes()

    @pytest.mark.parametrize("seed", [2.7, 2.0, True, False, "5"])
    def test_non_integer_seed_override_refused(self, tmp_path, capsys, seed):
        # refused as the config's own non-integer seed is, not truncated to an integer
        out = tmp_path / "out"
        assert run("solve", write_config(tmp_path, solve_config()), seed=seed, out=str(out)) == 3
        assert "seed must be a nonnegative integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_negative_seed_refused(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert run(command, write_config(tmp_path, solve_config(seed=-1)), out=str(out)) == 3
        assert "seed must be a nonnegative integer" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", write_config(tmp_path, solve_config()), "--seed", "-1", "--out", str(out)])
        assert exc.value.code == 3
        assert "seed must be a nonnegative integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-5"])
    def test_workers_below_one_refused(self, tmp_path, capsys, workers):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--config", write_config(tmp_path, solve_config()), "--workers", workers, "--out", str(out)])
        assert exc.value.code == 3
        assert "--workers must be an integer >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["2", 2.5, 2.0, True])
    def test_non_integer_workers_refused(self, tmp_path, capsys, workers):
        # a string used to escape as a TypeError, and 2.5 to run as the cpu cap allowed
        out = tmp_path / "out"
        assert run("solve", write_config(tmp_path, solve_config()), workers=workers, out=str(out)) == 3
        assert "--workers must be an integer" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_override_key(self, tmp_path):
        cfg = write_config(tmp_path, solve_config(problem={"name": "bm1", "overrides": {"zeta": 1}}))
        assert run("solve", cfg, out=str(tmp_path)) == 3

    def test_scalar_sigma_override_refused(self, tmp_path, capsys):
        # len() of the scalar used to escape as a TypeError, exit 1
        cfg = write_config(tmp_path, solve_config(problem={"name": "bm1", "overrides": {"sigma": 1.0}}))
        assert run("solve", cfg, out=str(tmp_path)) == 3
        assert "'sigma' of problem 'bm1' must have shape" in capsys.readouterr().err

    def test_non_numeric_growth_bound_refused(self, tmp_path, capsys):
        # a scalar growth bound used to escape as a TypeError, exit 1
        cfg = write_config(tmp_path, solve_config(problem={"name": "bm1", "overrides": {"growth_bound": 5.0}}))
        assert run("solve", cfg, out=str(tmp_path)) == 3
        assert "'growth_bound' of problem 'bm1' must be null or [c0, c1], got 5.0" in capsys.readouterr().err
        assert not (tmp_path / "result.json").exists()

    def test_bad_override_value(self, tmp_path, capsys):
        cfg = write_config(tmp_path, solve_config(problem={"name": "bm1", "overrides": {"terminal": "lineer"}}))
        assert run("solve", cfg, out=str(tmp_path)) == 3
        assert "unknown terminal 'lineer'" in capsys.readouterr().err

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
        "command, section, value",
        [
            ("ladder", "ladder", {"n_shedule": [1, 2]}),
            ("validate", "validate", {"sampels": 5}),
            ("solve", "outputs", {"dir": "out", "format": "csv"}),
            ("compare", "oracle", {"fd": {"M": 80}, "grid": {"M": 80}}),
        ],
    )
    def test_unknown_section_keys_refused(self, tmp_path, monkeypatch, capsys, command, section, value):
        # a misspelt key must not run on its default
        def no_work(*args, **kwargs):
            raise AssertionError("started work before checking the config")

        monkeypatch.setattr("switchbsde.cli.simulate_paths", no_work)
        monkeypatch.setattr("switchbsde.cli.validate_problem", no_work)
        out = tmp_path / "out"
        payload = solve_config(problem={"name": "switch2-linear", "overrides": {}}, **{section: value})
        assert run(command, write_config(tmp_path, payload), out=str(out)) == 3
        assert f"unknown {section} keys" in capsys.readouterr().err
        assert list(out.glob("*")) == []

    def test_outputs_dir_must_be_a_string(self, tmp_path, capsys):
        # a configuration error, not a TypeError from pathlib
        assert run("solve", write_config(tmp_path, solve_config(outputs={"dir": 5}))) == 3
        assert "outputs.dir has the wrong type" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fd", [{"mode": "penalized", "n": "256"}, {"n": -1}, {"M": 40.0}, {"facelift": True}, {"theta": 0.5}]
    )
    def test_fd_keys_checked(self, tmp_path, fd):
        payload = solve_config(problem={"name": "switch2-linear", "overrides": {}}, oracle={"fd": fd})
        assert run("oracle", write_config(tmp_path, payload), out=str(tmp_path)) == 3

    @pytest.mark.parametrize(
        "fd, message",
        [
            # the case keeps the name its former message gave it
            pytest.param(
                {"mode": "penalized"}, "penalization level must be a nonnegative integer",
                id="fd0-n is required in penalized mode",
            ),
            ({"mode": "implicit"}, "unknown fd mode"),
            ({"dt": 0.3}, "does not divide horizon"),
            ({"dt": 0.0}, "time step must be finite and positive"),
            ({"M": 3}, "at least 5 nodes"),
            ({"x_min": 1.0, "x_max": -1.0}, "x_min < x_max"),
            # a level in projection mode used to be accepted and dropped
            ({"mode": "projection", "n": 7}, "projection mode takes no penalization level"),
        ],
    )
    @pytest.mark.parametrize("command", ["oracle", "compare"])
    def test_bad_fd_refused_before_simulation(self, tmp_path, monkeypatch, capsys, fd, message, command):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated paths before checking oracle.fd")

        monkeypatch.setattr("switchbsde.cli.simulate_paths", no_simulation)
        monkeypatch.setattr("switchbsde.cli.fd_solve", no_simulation)
        payload = solve_config(problem={"name": "switch2-linear", "overrides": {}}, oracle={"fd": fd})
        assert run(command, write_config(tmp_path, payload), out=str(tmp_path)) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scheme, message",
        [
            ({"ridge": "abc"}, "unknown scheme keys ['ridge']"),
            ({"ridge": float("inf")}, "unknown scheme keys ['ridge']"),
            ({"basis": {"stratify_by_regime": "false"}}, "unknown scheme.basis keys ['stratify_by_regime']"),
            ({"clip_to_growth_bound": "false"}, "scheme.clip_to_growth_bound has the wrong type"),
            ({"n": 2.7}, "scheme.n must be an integer"),
            ({"basis": {"degree": 1.5}}, "scheme.basis.degree must be an integer"),
            ({"basis": [2]}, "scheme.basis must be an object"),
            ({"basis": {"degre": 5}}, "unknown scheme.basis keys ['degre']"),
            ({"clip": True}, "unknown scheme keys ['clip']"),
            # the regression always fits per regime under the automatic ridge: neither is a setting
            ({"ridge": None}, "unknown scheme keys ['ridge']"),
            ({"basis": {"stratify_by_regime": True}}, "unknown scheme.basis keys ['stratify_by_regime']"),
        ],
        ids=[f"scheme{i}" for i in range(11)],  # the case names the one-argument form gave
    )
    def test_scheme_keys_checked(self, tmp_path, capsys, scheme, message):
        payload = solve_config()
        payload["scheme"].update(scheme)
        assert run("solve", write_config(tmp_path, payload), out=str(tmp_path)) == 3
        assert message in capsys.readouterr().err
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

    @pytest.mark.parametrize(
        "schedule, message",
        [
            ([4, 2], "n_schedule must be strictly increasing"),
            ([2, 2], "n_schedule must be strictly increasing"),
            ([], "n_schedule must have at least one entry"),
            ([-1, 2], "penalization level must be a nonnegative integer"),
        ],
    )
    def test_bad_schedule_refused_before_simulation(self, tmp_path, monkeypatch, capsys, schedule, message):
        # these used to be refused only after the paths were simulated
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated paths before checking ladder.n_schedule")

        monkeypatch.setattr("switchbsde.cli.simulate_paths", no_simulation)
        payload = solve_config(problem={"name": "switch2-linear", "overrides": {}}, ladder={"n_schedule": schedule})
        assert run("ladder", write_config(tmp_path, payload), out=str(tmp_path)) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, message",
        [
            # an infinite horizon used to escape as an OverflowError, exit 1
            ({"T": float("inf")}, "'T' of problem 'switch2-linear' must be finite and positive, got inf"),
            ({"T": float("nan")}, "'T' of problem 'switch2-linear' must be finite and positive, got nan"),
            # a NaN bound used to switch the divergence guard off and run to exit 0
            (
                {"growth_bound": [float("nan"), 1.0]},
                "'growth_bound' of problem 'switch2-linear' must be null or [c0, c1], got [nan, 1.0]",
            ),
        ],
        ids=["T-inf", "T-nan", "growth_bound-nan"],
    )
    def test_non_finite_overrides_refused(self, tmp_path, capsys, overrides, message):
        payload = solve_config(problem={"name": "switch2-linear", "overrides": overrides})
        assert run("solve", write_config(tmp_path, payload), out=str(tmp_path)) == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "result.json").exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[1, 2]", "config root must be a JSON object"),
            (json.dumps(solve_config(problem="bm1")), "config needs a 'problem' object"),
            (json.dumps(solve_config(problem={"overrides": {}})), "missing required key 'name' in problem"),
            (json.dumps(solve_config(scheme={"h": "0.25", "paths": 400})), "scheme.h must be a number"),
        ],
        ids=["root", "problem", "missing-key", "number"],
    )
    def test_malformed_config_refused(self, tmp_path, capsys, text, message):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert run("solve", str(path), out=str(tmp_path)) == 3
        assert message in capsys.readouterr().err


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

    @pytest.mark.parametrize("command", ["solve", "compare"])
    def test_dump_steps_changes_no_other_artifact(self, tmp_path, command):
        payload = solve_config(problem={"name": "switch2-linear", "overrides": {}})
        payload["scheme"] = {"h": 0.125, "n": 4, "paths": 300}
        payload["oracle"] = {"fd": {"M": 80, "dt": 0.005}}
        cfg = write_config(tmp_path, payload)
        plain, dumped = tmp_path / "plain", tmp_path / "dumped"
        assert run(command, cfg, out=str(plain), dump_regression=True) == 0
        assert run(command, cfg, out=str(dumped), dump_regression=True, dump_steps=True) == 0
        assert not (plain / "steps.csv").exists() and (dumped / "steps.csv").exists()
        names = ["result.json", "regression.csv"] + (["compare.json"] if command == "compare" else [])
        for name in names:
            assert (plain / name).read_bytes() == (dumped / name).read_bytes(), name

    def test_steps_csv_holds_the_kept_arrays(self, tmp_path):
        payload = solve_config(problem={"name": "switch2-linear", "overrides": {}})
        payload["scheme"] = {"h": 0.125, "n": 4, "paths": 300}
        assert run("solve", write_config(tmp_path, payload), out=str(tmp_path), dump_steps=True) == 0
        spec = build_problem("switch2-linear")
        scheme = SchemeConfig(h=0.125, n=4, paths=300, basis=BasisSpec(degree=2), seed=7)
        kept = solve_backward(spec, scheme, simulate_paths(spec, 300, 0.125, seed=7), keep_steps=True)
        paths = np.arange(300)
        expected = [
            np.column_stack([np.full(300, k), paths, kept.ys[k], kept.zs[k], kept.us[k], kept.penalty_mass[k]])
            for k in range(len(kept.zs))
        ]
        rows = np.loadtxt(tmp_path / "steps.csv", delimiter=",", skiprows=1)
        np.testing.assert_array_equal(rows, np.concatenate(expected))

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

    def test_simulate_paths_csv_pinned(self, tmp_path):
        """The bytes of paths.csv on a switch3 run with several atoms per step, for any worker count.

        The digest was recorded when the draws moved to one substream per
        block of paths; the step-major layout that came before gave the same
        bytes as the padded per-path one on the per-path stream.
        """
        payload = {
            "problem": {"name": "switch3", "overrides": {"intensity": [6.0, 4.0, 2.0]}},
            "scheme": {"h": 0.125, "paths": 40},
            "seed": 19,
        }
        cfg = write_config(tmp_path, payload)
        for w in (1, 2):
            assert run("simulate", cfg, workers=w, out=str(tmp_path / f"w{w}")) == 0
            data = (tmp_path / f"w{w}" / "paths.csv").read_bytes()
            assert hashlib.sha256(data).hexdigest() == "a3faff828f305265017035355029ac5275f88eb431eefcb9885f464d21dc1c5b"

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
        lines = (tmp_path / "g" / "grid.csv").read_text().splitlines()
        assert lines[0] == "t,x,regime,value"
        table = np.array([[float(field) for field in line.split(",")] for line in lines[1:]])
        spec = build_problem("switch2-linear")
        sol = fd_solve(spec, default_grid(spec, 80), 0.005)
        m, n_times, n_x = sol.values.shape
        # rows in (regime, time, x) order, every value the solver's bit for bit
        np.testing.assert_array_equal(table[:, 2], np.repeat(np.arange(1, m + 1), n_times * n_x))
        np.testing.assert_array_equal(table[:, 0], np.tile(np.repeat(sol.times, n_x), m))
        np.testing.assert_array_equal(table[:, 1], np.tile(sol.xs, m * n_times))
        np.testing.assert_array_equal(table[:, 3], sol.values.ravel())
        meta = json.loads((tmp_path / "g" / "grid.json").read_text())
        assert meta["schema_version"] == 1
        assert meta["mode"] == "projection"
        assert meta["value_at_start"] == pytest.approx(0.15, abs=2e-3)

    @pytest.mark.parametrize("mode, level", [("projection", None), ("penalized", 7)])
    def test_fd_artifacts_echo_the_level_solved(self, tmp_path, mode, level):
        # a projection solve used to echo the configured n, and compare.json echoed none;
        # projection mode now takes no n (test_bad_fd_refused_before_simulation)
        payload = solve_config(problem={"name": "switch2-linear", "overrides": {}})
        payload["scheme"] = {"h": 0.05, "n": 4, "paths": 200}
        payload["oracle"] = {"fd": {"M": 40, "dt": 0.01, "mode": mode, **({} if level is None else {"n": level})}}
        cfg = write_config(tmp_path, payload)
        assert run("oracle", cfg, out=str(tmp_path / "g")) == 0
        assert run("compare", cfg, out=str(tmp_path / "c")) == 0
        grid = json.loads((tmp_path / "g" / "grid.json").read_text())
        fd = json.loads((tmp_path / "c" / "compare.json").read_text())["fd"]
        assert grid["mode"] == fd["mode"] == mode
        assert grid["penalization"] == fd["n"] == level

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

    def test_workers_do_not_change_bytes(self, tmp_path, monkeypatch):
        """``--workers`` is an accepted bound: the run stays in this process and the bytes stay put."""

        def refuse_start(process):
            raise AssertionError("a child process was started")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse_start)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)  # a pool would have room on any host
        cfg = write_config(tmp_path, solve_config())
        outs = []
        for w in (1, 2, 8):
            out = tmp_path / f"w{w}"
            assert run("solve", cfg, workers=w, out=str(out)) == 0
            outs.append((out / "result.json").read_bytes())
        assert len(set(outs)) == 1
