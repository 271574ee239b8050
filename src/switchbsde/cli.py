"""Batch entry point: run solver commands from a JSON config.

Commands: ``simulate``, ``solve``, ``ladder``, ``oracle``, ``compare``,
``validate``. Artifacts are plain JSON/CSV with no timestamps or host
information, so identical config and seed reproduce byte-identical files.
Simulation runs in this process; ``--workers`` is checked and accepted for
compatibility and changes no output.

Exit codes: 0 success, 1 validation hard-failure, 2 numerical abort,
3 configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .backward import (
    DivergenceError,
    SchemeConfig,
    _check_schedule,
    penalization_ladder,
    skorohod_residual,
    solve_backward,
)
from .catalog import build_problem, list_catalog
from .forward import dump_paths_csv, simulate_paths
from .oracles import GridSolution, check_fd_inputs, default_grid, fd_solve, oracle_compare
from .problem import _finite, _integer, validate_problem
from .regression import BasisSpec

SCHEMA_VERSION = 1
COMMANDS = ("simulate", "solve", "ladder", "oracle", "compare", "validate")
FD_KEYS = ("M", "x_min", "x_max", "dt", "mode", "n")
ORACLE_KEYS = ("fd",)
LADDER_KEYS = ("n_schedule",)
OUTPUTS_KEYS = ("dir",)
VALIDATE_KEYS = ("samples",)
SCHEME_KEYS = ("h", "n", "paths", "basis", "clip_to_growth_bound")
BASIS_KEYS = ("kind", "degree")


class ConfigError(ValueError):
    """Malformed run configuration."""


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _require(cfg: dict, key: str, kind, where: str):
    if key not in cfg:
        raise ConfigError(f"missing required key {key!r} in {where}")
    value = cfg[key]
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"{where}.{key} must be a number")
        if isinstance(value, int) and not _finite(value):
            raise ConfigError(f"{where}.{key} must be a finite number, got an integer too large for a float")
        return float(value)
    if kind is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{where}.{key} must be an integer")
        return value
    if not isinstance(value, kind):
        raise ConfigError(f"{where}.{key} has the wrong type")
    return value


def _optional(cfg: dict, key: str, kind, where: str, default):
    return _require(cfg, key, kind, where) if key in cfg else default


def _section(cfg: dict, key: str, parent: str = "", accepted: tuple[str, ...] | None = None) -> dict:
    where = f"{parent + '.' if parent else ''}{key}"
    value = cfg.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object")
    if accepted is not None and set(value) - set(accepted):
        raise ConfigError(f"unknown {where} keys {sorted(set(value) - set(accepted))}; accepted: {list(accepted)}")
    return value


def _scheme_from(cfg: dict, seed: int) -> SchemeConfig:
    scheme = _section(cfg, "scheme", accepted=SCHEME_KEYS)
    basis = _section(scheme, "basis", "scheme", accepted=BASIS_KEYS)
    try:
        return SchemeConfig(
            h=_require(scheme, "h", float, "scheme"),
            n=_optional(scheme, "n", int, "scheme", 0),
            paths=_require(scheme, "paths", int, "scheme"),
            basis=BasisSpec(
                kind=_optional(basis, "kind", str, "scheme.basis", "global-polynomial"),
                degree=_optional(basis, "degree", int, "scheme.basis", 2),
            ),
            clip_to_growth_bound=_optional(scheme, "clip_to_growth_bound", bool, "scheme", False),
            seed=seed,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _resolve_seed(cfg: dict, override) -> int:
    if override is None and "seed" not in cfg:
        raise ConfigError("seed is mandatory: set it in the config or pass --seed")
    return _integer(cfg["seed"] if override is None else override, "seed")


def _json_dump(obj: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _grid_csv(sol: GridSolution, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,x,regime,value\n")
        xs = list(map(repr, sol.xs.tolist()))
        for i in range(sol.values.shape[0]):
            middles = [f",{x},{i + 1}," for x in xs]
            # one tolist() per (regime, time) row: repr of a Python float is the text repr(float(v)) gives
            for t, row in zip(sol.times.tolist(), sol.values[i]):
                head = repr(t)
                fh.writelines(f"{head}{mid}{v}\n" for mid, v in zip(middles, map(repr, row.tolist())))


def _steps_csv(result, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        d = result.zs[0].shape[1]
        mm = result.us[0].shape[1]
        zcols = ",".join(f"z_{c+1}" for c in range(d))
        ucols = ",".join(f"u_{c+1}" for c in range(mm))
        fh.write(f"step,path,y,{zcols},{ucols},penalty_mass\n")
        for k in range(len(result.zs)):
            # one tolist() per step: repr of a Python float is the text repr(float(v)) gives
            columns = np.column_stack((result.ys[k], result.zs[k], result.us[k], result.penalty_mass[k]))
            fh.writelines(f"{k},{p},{','.join(map(repr, row))}\n" for p, row in enumerate(columns.tolist()))


def _regression_csv(result, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,family,stratum,sample_count,gram_condition,residual_mse,rank_deficient\n")
        for r in result.fit_records:
            fh.write(
                f"{r.step},{r.family},{r.stratum},{r.sample_count},"
                f"{r.gram_condition!r},{r.residual_mse!r},{int(r.rank_deficient)}\n"
            )


def _problem_from(cfg: dict):
    problem_cfg = cfg.get("problem")
    if not isinstance(problem_cfg, dict):
        raise ConfigError("config needs a 'problem' object")
    name = _require(problem_cfg, "name", str, "problem")
    overrides = _section(problem_cfg, "overrides", "problem")
    known = {entry for entry, _ in list_catalog()}
    if name not in known:
        raise ConfigError(f"unknown catalog problem {name!r}; known: {sorted(known)}")
    try:
        spec = build_problem(name, overrides)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return spec, name, overrides


def _fd_settings(cfg: dict, spec):
    """The ``oracle.fd`` grid, time step, mode and level, refused (by ``check_fd_inputs``) before any work."""
    fd_cfg = _section(_section(cfg, "oracle", accepted=ORACLE_KEYS), "fd", "oracle", accepted=FD_KEYS)

    def get(key, kind, default):
        return _optional(fd_cfg, key, kind, "oracle.fd", default)

    M = get("M", int, 400)
    _, x_lo, x_hi = default_grid(spec, M)
    grid = (M, float(get("x_min", float, x_lo)), float(get("x_max", float, x_hi)))
    dt, mode, penalization = get("dt", float, 1e-3), get("mode", str, "projection"), get("n", int, None)
    try:
        check_fd_inputs(spec, grid, dt, mode, penalization)
    except ValueError as exc:
        raise ConfigError(f"oracle.fd: {exc}") from exc
    return grid, dt, mode, penalization


def _fd_solve(spec, fd) -> tuple[GridSolution, dict]:
    """The solve of the ``oracle.fd`` settings, and their grid and time step as the artifacts echo them."""
    grid, dt, mode, penalization = fd
    sol = fd_solve(spec, grid, dt, mode=mode, penalization=penalization)
    return sol, {"M": grid[0], "x_min": grid[1], "x_max": grid[2], "dt": dt}


def _start(spec) -> tuple[float, int, float]:
    """The point ``(0, i0, x0)`` where the artifacts read the value."""
    return 0.0, spec.initial_regime, float(spec.initial_state[0])


def run(
    command: str,
    config_path: str,
    *,
    seed=None,
    workers: int = 1,
    out=None,
    dump_paths: bool = False,
    dump_steps: bool = False,
    dump_regression: bool = False,
) -> int:
    """Execute one command; returns the process exit status.

    Every setting the command reads is refused before any work; ``ladder``
    ignores the dump flags, and ``solve`` and ``compare`` write nothing of a
    solve that does not finish.
    """
    try:
        cfg = _load_config(config_path)
        if command not in COMMANDS:
            raise ConfigError(f"unknown command {command!r}; valid: {COMMANDS}")
        seed_val = _resolve_seed(cfg, seed)
        _integer(workers, "--workers", 1)
        outputs = _section(cfg, "outputs", accepted=OUTPUTS_KEYS)
        out_dir = Path(out if out is not None else _optional(outputs, "dir", str, "outputs", "."))
        out_dir.mkdir(parents=True, exist_ok=True)

        if command == "validate":
            return _cmd_validate(cfg, out_dir)

        spec, name, overrides = _problem_from(cfg)
        header = {"schema_version": SCHEMA_VERSION, "problem": {"name": name, "overrides": overrides}}
        if command == "oracle":
            return _cmd_oracle(spec, header, _fd_settings(cfg, spec), out_dir)

        scheme = _scheme_from(cfg, seed_val)
        fd = _fd_settings(cfg, spec) if command == "compare" else None
        if command == "ladder":
            ladder = _section(cfg, "ladder", accepted=LADDER_KEYS)
            schedule = _check_schedule(_optional(ladder, "n_schedule", list, "ladder", [1, 2, 4, 8, 16, 32, 64]))
        bundle = simulate_paths(spec, scheme.paths, scheme.h, seed_val)

        if command == "simulate":
            dump_paths_csv(bundle, out_dir / "paths.csv")
            return 0
        if command == "ladder":
            report = penalization_ladder(spec, scheme, schedule, bundle)
            _json_dump({**header, "scheme": scheme.echo(), **report.to_dict()}, out_dir / "ladder.json")
            return 0

        # solve / compare
        result = solve_backward(spec, scheme, bundle, keep_steps=dump_steps)
        header["scheme"] = scheme.echo()
        diagnostics = {**result.diagnostics_dict(), "skorohod_residual": skorohod_residual(result)}
        payload = {**header, "mode": result.mode, "y0": result.y0, "diagnostics": diagnostics}
        if dump_paths:
            dump_paths_csv(bundle, out_dir / "paths.csv")
        if dump_steps:
            _steps_csv(result, out_dir / "steps.csv")
        if dump_regression:
            _regression_csv(result, out_dir / "regression.csv")
        del bundle  # the grid oracle does not need the paths: freed before its solve

        if fd is not None:
            sol, grid = _fd_solve(spec, fd)
            report = oracle_compare(result, sol, _start(spec))
        _json_dump(payload, out_dir / "result.json")
        if fd is not None:
            fd_echo = {**grid, "mode": sol.mode, "n": sol.penalization}
            _json_dump({**header, "fd": fd_echo, **report.to_dict()}, out_dir / "compare.json")
        return 0

    except DivergenceError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3


def _cmd_oracle(spec, header: dict, fd, out_dir: Path) -> int:
    sol, grid = _fd_solve(spec, fd)
    _grid_csv(sol, out_dir / "grid.csv")
    echo = {"grid": grid, "mode": sol.mode, "penalization": sol.penalization}
    _json_dump({**header, **echo, "value_at_start": sol.value_at(*_start(spec))}, out_dir / "grid.json")
    return 0


def _cmd_validate(cfg: dict, out_dir: Path) -> int:
    # refused here, outside the try below: a bad setting exits 3, not as a failed validation
    samples = _integer(_section(cfg, "validate", accepted=VALIDATE_KEYS).get("samples", 200), "validate.samples", 1)
    try:
        spec, name, _ = _problem_from(cfg)
        report = validate_problem(spec, sample_count=samples, rng_seed=0)
    except (ConfigError, ValueError) as exc:
        _json_dump(
            {"schema_version": SCHEMA_VERSION, "passed": False, "error": str(exc)},
            out_dir / "validation.json",
        )
        print(f"validation failed: {exc}", file=sys.stderr)
        return 1
    _json_dump(
        {"schema_version": SCHEMA_VERSION, "problem": name, **report.to_dict()},
        out_dir / "validation.json",
    )
    return 0 if report.passed else 1


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(prog="switchbsde", description=__doc__)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="accepted for compatibility (an integer >= 1); simulation runs in one process",
    )
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--dump-paths", action="store_true")
    parser.add_argument("--dump-steps", action="store_true")
    parser.add_argument("--dump-regression", action="store_true")
    args = parser.parse_args(argv)
    sys.exit(
        run(
            args.command,
            args.config,
            seed=args.seed,
            workers=args.workers,
            out=args.out,
            dump_paths=args.dump_paths,
            dump_steps=args.dump_steps,
            dump_regression=args.dump_regression,
        )
    )


if __name__ == "__main__":
    main()
