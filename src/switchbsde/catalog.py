"""Built-in benchmark problems.

Every catalog entry is a name and a flat parameter dict, so a run is fully
reproducible from a config file: the CLI selects a problem by name and
overrides scalar parameters, never shipping code. Regime-dependent
parameters are lists indexed by regime (1-based regime ``i`` reads entry
``i-1``). One builder serves every entry through
:func:`~switchbsde.problem.make_switching_problem`: a single regime is a
switching problem with nothing to switch to (cost matrix ``[[0]]``).
"""

from __future__ import annotations

import copy
import math
import numbers
from typing import Mapping, Sequence

import numpy as np

from .problem import ProblemSpec, _integer, _positive, make_switching_problem

Array = np.ndarray

__all__ = ["list_catalog", "catalog_defaults", "build_problem"]


def _const_drift(levels: Sequence[float]):
    levels = [float(v) for v in levels]

    def drift(i: int, x: Array) -> Array:
        return np.full_like(np.asarray(x, dtype=float), levels[i - 1])

    return drift


def _const_vol(levels: Sequence[float]):
    levels = [float(v) for v in levels]

    def vol(i: int, x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        n, d = x.shape
        out = np.zeros((n, d, d))
        idx = np.arange(d)
        out[:, idx, idx] = levels[i - 1]
        return out

    return vol


def _const_reward(levels: Sequence[float]):
    levels = [float(v) for v in levels]

    def reward(i: int, x: Array) -> Array:
        return np.full(np.asarray(x).shape[0], levels[i - 1])

    return reward


def _linear_terminal(i: int, x: Array) -> Array:
    return np.asarray(x, dtype=float)[:, 0]


def _square_terminal(i: int, x: Array) -> Array:
    return np.asarray(x, dtype=float)[:, 0] ** 2


def _numbers(value, shape=None) -> bool:
    """Finite real numbers only (no bool, no str), in an array of ``shape`` unless it is ``None``."""
    array = np.asarray(value, dtype=object)  # a ragged nested list gives an array of lists
    return (shape is None or array.shape == shape) and all(
        isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v) for v in array.flat
    )


def _build(name: str, params: Mapping) -> ProblemSpec:
    """One switching problem from an entry's parameters; ``sigma`` sets the regime count."""
    i0 = _integer(params["i0"], f"'i0' of problem {name!r}", 1)
    _positive(params["T"], f"'T' of problem {name!r}")
    for key, shape, what in (("x0", None, "finite numbers"), ("growth_bound", (2,), "null or [c0, c1]")):
        value = params[key]
        if not ((key == "growth_bound" and value is None) or _numbers(value, shape)):
            raise ValueError(f"{key!r} of problem {name!r} must be {what}, got {value!r}")
    sigma_shape = np.asarray(params["sigma"], dtype=object).shape
    m = sigma_shape[0] if len(sigma_shape) == 1 else 0
    if m == 0:
        raise ValueError(f"'sigma' of problem {name!r} must have shape (m,), one volatility per regime")
    costs = params.get("costs", [[0.0]])
    for key, value, shape in (
        ("sigma", params["sigma"], (m,)),
        ("drift", params["drift"], (m,)),
        ("rewards", params["rewards"], (m,)),
        ("intensity", params["intensity"], (m,)),
        ("costs", costs, (m, m)),
    ):
        if not _numbers(value, shape):
            raise ValueError(
                f"{key!r} of problem {name!r} must have shape {shape}, one finite number per regime of 'sigma'"
            )
    terminal = params.get("terminal", "linear")
    if terminal not in ("linear", "square"):
        raise ValueError(f"unknown terminal {terminal!r} for problem {name!r}: accepted values are 'linear' and 'square'")
    return make_switching_problem(
        m=m,
        d=1,
        costs=costs,
        drift=_const_drift(params["drift"]),
        vol=_const_vol(params["sigma"]),
        running_reward=_const_reward(params["rewards"]),
        terminal=_linear_terminal if terminal == "linear" else _square_terminal,
        intensity=params["intensity"],
        horizon=params["T"],
        initial_regime=i0,
        initial_state=params["x0"],
        growth_bound=params["growth_bound"],
        name=name,
    )


# name -> (description, default parameters)
_CATALOG: dict[str, tuple[str, dict]] = {
    "bm1": (
        "single regime, zero drift, unit vol, identity payoff (martingale benchmark)",
        {
            "T": 1.0,
            "x0": [0.7],
            "i0": 1,
            "drift": [0.0],
            "sigma": [1.0],
            "rewards": [0.0],
            "intensity": [0.5],
            "terminal": "linear",
            "growth_bound": [1.0, 1.0],
        },
    ),
    "bm1-quad": (
        "single regime, zero drift, unit vol, squared payoff (variance benchmark)",
        {
            "T": 1.0,
            "x0": [0.0],
            "i0": 1,
            "drift": [0.0],
            "sigma": [1.0],
            "rewards": [0.0],
            "intensity": [0.5],
            "terminal": "square",
            "growth_bound": None,
        },
    ),
    "switch2-linear": (
        "two-regime switching, constant regime rewards, linear payoff, distinct vols",
        {
            "T": 0.5,
            "x0": [0.0],
            "i0": 2,
            "drift": [0.0, 0.0],
            "sigma": [0.2, 0.3],
            "rewards": [0.5, -0.5],
            "costs": [[0.0, 0.1], [0.1, 0.0]],
            "intensity": [1.5, 1.5],
            "growth_bound": [0.3, 1.0],
        },
    ),
    "switch3": (
        "three-regime switching, constant regime rewards, linear payoff",
        {
            "T": 1.0,
            "x0": [0.0],
            "i0": 1,
            "drift": [0.0, 0.0, 0.0],
            "sigma": [0.2, 0.25, 0.3],
            "rewards": [1.0, 0.55, 0.1],
            "costs": [
                [0.0, 0.12, 0.2],
                [0.12, 0.0, 0.15],
                [0.2, 0.15, 0.0],
            ],
            "intensity": [1.0, 0.8, 0.6],
            "growth_bound": [1.1, 1.0],
        },
    ),
}


def list_catalog() -> list[tuple[str, str]]:
    """Names and one-line descriptions of the shipped benchmark problems."""
    return [(name, description) for name, (description, _) in _CATALOG.items()]


def catalog_defaults(name: str) -> dict:
    """A copy of the default parameter dict for one catalog entry."""
    if name not in _CATALOG:
        raise ValueError(f"unknown catalog problem {name!r}")
    return copy.deepcopy(_CATALOG[name][1])


def build_problem(name: str, overrides: Mapping | None = None) -> ProblemSpec:
    """Instantiate a catalog problem, optionally overriding its parameters.

    Unknown override keys are rejected so config typos fail loudly.
    """
    params = catalog_defaults(name)
    if overrides:
        for key, value in overrides.items():
            if key not in params:
                raise ValueError(f"unknown parameter override {key!r} for problem {name!r}")
            params[key] = value
    return _build(name, params)
