"""In-memory spans and counters around the public switchbsde API.

The benchmark never edits the package. A :class:`Tracer` replaces a
function at the name its caller looks it up under (for example
``switchbsde.backward.ols_fit``, which ``MonteCarloEnsemble.condexp``
resolves through the ``backward`` module globals) with a wrapper that
records a span: name, start, end and the index of the enclosing span.
:meth:`Tracer.uninstall` puts every original back.

:meth:`Tracer.metrics` folds the spans into the per-layer metrics named
in ``BENCHMARK.json``. A span's self time is its duration minus the
durations of its direct children; spans nest strictly because every
workload runs single-threaded (``workers=1``).
"""

from __future__ import annotations

import functools
from time import perf_counter

# (module, attribute, span name): each attribute is the name the caller
# resolves at call time, so the wrapper sees every call the workloads make
PATCHES = (
    ("cli", "run", "cli.run"),
    ("cli", "simulate_paths", "forward.simulate"),
    ("forward", "simulate_paths", "forward.simulate"),
    ("forward.PathBundle", "step_segments", "forward.step_segments"),
    ("backward", "build_design", "regression.design"),
    ("backward", "ols_fit", "regression.fit"),
    ("cli", "solve_backward", "backward.solve"),
    ("backward", "solve_backward", "backward.solve"),
    ("backward", "penalization_ladder", "backward.ladder"),
    ("backward", "estimate_z", "backward.z"),
    ("backward", "estimate_u", "backward.u"),
    ("backward", "step_y", "backward.y"),
    ("cli", "skorohod_residual", "backward.skorohod"),
    ("backward", "skorohod_residual", "backward.skorohod"),
    ("lattice", "build_lattice_chain", "lattice.build"),
    ("oracles", "lattice_dp_solve", "oracles.dp"),
    ("cli", "fd_solve", "oracles.fd"),
    ("oracles", "fd_solve", "oracles.fd"),
    ("cli", "oracle_compare", "oracles.compare"),
)

# span name -> metric holding the summed duration of those spans
TOTAL_METRICS = {
    "forward.simulate": "forward.simulate_s",
    "forward.step_segments": "forward.step_segments_s",
    "regression.design": "regression.design_s",
    "regression.fit": "regression.fit_s",
    "backward.solve": "backward.solve_s",
    "backward.skorohod": "backward.skorohod_s",
    "lattice.build": "lattice.build_s",
    "oracles.dp": "oracles.dp_s",
    "oracles.fd": "oracles.fd_s",
}
# span name -> metric holding the summed self time of those spans
SELF_METRICS = {
    "cli.run": "cli.self_s",
    "backward.z": "backward.z_self_s",
    "backward.u": "backward.u_self_s",
    "backward.y": "backward.y_self_s",
}
# span name -> metric holding the number of those spans
CALL_METRICS = {
    "regression.design": "regression.design_calls",
    "regression.fit": "regression.fit_calls",
}
# metrics the return-value hooks and the problem counters fill in
VALUE_METRICS = (
    "forward.subintervals",
    "forward.pad_fill",
    "forward.bundle_mb",
    "regression.rank_deficient",
    "regression.max_gram_condition",
    "backward.clipped_fraction",
    "problem.driver_calls",
    "problem.constraint_calls",
    "problem.constraint_rows",
    "lattice.nodes",
    "lattice.edges",
    "oracles.fd_cells",
)


def _bundle_stats(values: dict, bundle) -> None:
    real = int((bundle.dt > 0).sum())
    arrays = [v for v in vars(bundle).values() if hasattr(v, "nbytes")]
    values["forward.subintervals"] += real
    values["forward.pad_fill"] = real / bundle.dt.size
    values["forward.bundle_mb"] = sum(a.nbytes for a in arrays) / 2**20


def _solve_stats(values: dict, result) -> None:
    records = result.fit_records
    values["regression.rank_deficient"] += sum(bool(r.rank_deficient) for r in records)
    worst = max((r.gram_condition for r in records), default=0.0)
    values["regression.max_gram_condition"] = max(values["regression.max_gram_condition"], worst)
    # the last solve is the highest penalization level of a ladder
    values["backward.clipped_fraction"] = result.clipped_fraction


def _chain_stats(values: dict, chain) -> None:
    values["lattice.nodes"] += chain.size()
    values["lattice.edges"] += sum(es.tail.size for es in chain.edges)


def _grid_stats(values: dict, sol) -> None:
    m, times, nodes = sol.values.shape
    values["oracles.fd_cells"] += m * (times - 1) * nodes


HOOKS = {
    "forward.simulate": _bundle_stats,
    "backward.solve": _solve_stats,
    "lattice.build": _chain_stats,
    "oracles.fd": _grid_stats,
}


class Tracer:
    """Spans and counters recorded while installed on the switchbsde modules."""

    def __init__(self, api):
        self.api = api
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.values = dict.fromkeys(VALUE_METRICS, 0)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for owner_path, attr, name in PATCHES:
            owner = self._resolve(owner_path)
            self._replace(owner, attr, self._spanned(name, owner.__dict__[attr]))
        spec_cls = self.api.problem.ProblemSpec
        self._replace(spec_cls, "driver", self._counted(spec_cls.driver, "problem.driver_calls", None))
        self._replace(
            spec_cls, "constraint", self._counted(spec_cls.constraint, "problem.constraint_calls", "problem.constraint_rows")
        )

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _resolve(self, path: str):
        owner = self.api
        for part in path.split("."):
            owner = getattr(owner, part)
        return owner

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _spanned(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, perf_counter(), None, self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = perf_counter()
            if hook is not None:
                hook(self.values, result)
            return result

        return wrapper

    def _counted(self, fn, calls: str, rows):
        @functools.wraps(fn)
        def wrapper(spec, i, *args):
            self.values[calls] += 1
            if rows is not None:
                self.values[rows] += len(args[1])  # the x argument of constraint(i, j, x, ...)
            return fn(spec, i, *args)

        return wrapper

    def root_time(self) -> float:
        """Summed duration of the outermost spans."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def metrics(self) -> dict:
        """Every per-layer metric this tracer can fill, zero where unused."""
        out = dict.fromkeys([*TOTAL_METRICS.values(), *SELF_METRICS.values(), *CALL_METRICS.values()], 0)
        out["regression.fits_per_design"] = 0.0
        out.update(self.values)
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _), children in zip(self.spans, child_time):
            if name in TOTAL_METRICS:
                out[TOTAL_METRICS[name]] += end - start
            if name in SELF_METRICS:
                out[SELF_METRICS[name]] += end - start - children
            if name in CALL_METRICS:
                out[CALL_METRICS[name]] += 1
        if out["regression.design_calls"]:
            out["regression.fits_per_design"] = out["regression.fit_calls"] / out["regression.design_calls"]
        return out
