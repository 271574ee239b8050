"""Finite-state chain surrogate for the forward simulation.

The chain replaces each Brownian increment by a symmetric two-point draw
``+-sqrt(h)`` (matching mean and variance per step) and the marked jump
stream by at most one atom per step, arriving at the step's right endpoint
with ``P(mark j) = lambda_j * h``. That law matches the compensator's first
moment exactly (``E[count_j] = lambda_j h``), which is what makes the
jump-measure estimator identities hold exactly node by node; it requires
``total_intensity * h <= 1``.

Because atoms sit at step ends, each step is a single sub-interval in the
current regime and the state update never depends on the mark, so states
recombine. States are deduplicated per step on (regime, rounded x) by one
lexicographic sort, and each step's nodes are stored in that order.

Every node has the same ``P = 2 (m + 1)`` outcomes, in one fixed order
(sign x {no atom, mark 1..m}), with the same probability, increment and
counts. So the chain stores those once, in one :class:`OutcomeTable`, and
per edge only its head: node ``t``'s out-edges are rows ``t P .. t P + P - 1``
of its step. A step of ``E`` edges keeps ``4 E`` bytes (an int32 head) and a
node 18 (an int16 regime, x and mass) in d = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problem import ProblemSpec, _integer, _step_count

Array = np.ndarray

__all__ = ["LatticeSpec", "NodeSet", "OutcomeTable", "EdgeSet", "LatticeChain", "build_lattice_chain"]

_ROUND_DECIMALS = 10


@dataclass(frozen=True)
class LatticeSpec:
    """Chain resolution: time step plus an enumeration-size cap, an integer >= 1."""

    h: float
    node_cap: int = 2_000_000


@dataclass
class NodeSet:
    regime: Array  # (n,) int16
    x: Array       # (n, d)
    mass: Array    # (n,) occupation probability


@dataclass(frozen=True)
class OutcomeTable:
    """One node's ``P = 2 (m + 1)`` out-edges in edge order, the same at every node of a chain.

    Outcome ``o`` moves by sign ``o // (m + 1)`` (0: ``+sqrt(h)``, 1:
    ``-sqrt(h)``) with atom ``o % (m + 1)`` (0: none, ``j``: mark ``j``).
    The arrays are read-only: every step of the chain shares them.
    """

    prob: Array    # (P,) conditional probability given the tail
    dw: Array      # (P, d) Brownian surrogate increment
    counts: Array  # (P, m) int16 atom counts per mark

    def __post_init__(self) -> None:
        for a in (self.prob, self.dw, self.counts):
            a.flags.writeable = False


@dataclass(frozen=True)
class EdgeSet:
    """One step's transitions, node-major: node ``t``'s out-edges are rows ``t P .. t P + P - 1``.

    Only ``head`` is stored per edge. ``tail``, ``prob``, ``dw`` and
    ``counts`` expand the chain's shared :class:`OutcomeTable` into new
    (E, ...) arrays on every access, so a reader that needs one twice reads
    it once. The step keeps ``4 E`` bytes, against ``8 + 8 + 8 + 8 d + 2 m``
    per edge for the five arrays expanded.
    """

    head: Array  # (E,) int32 node index at step k+1
    outcomes: OutcomeTable

    def _per_edge(self, per_node: Array) -> Array:
        """``per_node`` (P, ...) laid out once per tail node, as (E, ...)."""
        out = np.empty((self.head.size // per_node.shape[0],) + per_node.shape, per_node.dtype)
        out[...] = per_node
        return out.reshape((-1,) + per_node.shape[1:])

    @property
    def tail(self) -> Array:
        """(E,) node index at step k."""
        per = self.outcomes.prob.size
        return np.repeat(np.arange(self.head.size // per), per)

    @property
    def prob(self) -> Array:
        """(E,) conditional probability given the tail."""
        return self._per_edge(self.outcomes.prob)

    @property
    def dw(self) -> Array:
        """(E, d) Brownian surrogate increment."""
        return self._per_edge(self.outcomes.dw)

    @property
    def counts(self) -> Array:
        """(E, m) int16 atom counts per mark."""
        return self._per_edge(self.outcomes.counts)


@dataclass
class LatticeChain:
    """Enumerated chain: nodes per step and transitions between steps."""

    h: float
    K: int
    d: int
    m: int
    T: float
    nodes: list[NodeSet]
    edges: list[EdgeSet]

    def size(self) -> int:
        return sum(ns.regime.size for ns in self.nodes)


def build_lattice_chain(spec: ProblemSpec, lattice: LatticeSpec) -> LatticeChain:
    """Enumerate the chain started at the problem's initial condition.

    Refuses a ``lattice.node_cap`` that is not an integer >= 1, and refuses
    with a size report when the accumulated state count would exceed it.
    """
    if spec.d != 1:
        raise ValueError("lattice chain supports d = 1 only")
    cap = _integer(lattice.node_cap, "lattice node_cap", 1)
    T, h = spec.horizon, lattice.h
    K = _step_count(T, h, "lattice step")
    h = T / K
    lam = spec.intensity.weights
    total = float(lam.sum())
    if total * h > 1.0 + 1e-12:
        raise ValueError(
            f"total intensity * step = {total * h:.4f} > 1; refine the lattice step"
        )
    p_none = 1.0 - total * h
    m = spec.m
    sqrt_h = np.sqrt(h)

    # one node's out-edges, in edge order: 2 signs x (no atom | mark 1..m)
    sign = np.repeat([0, 1], m + 1)         # column into x_next
    outcome = np.tile(np.arange(m + 1), 2)  # 0 = no atom, j = mark j
    counts = np.zeros((outcome.size, m), dtype=np.int16)
    counts[np.flatnonzero(outcome), outcome[outcome > 0] - 1] = 1
    table = OutcomeTable(
        prob=np.where(outcome == 0, p_none, lam[np.maximum(outcome - 1, 0)] * h) * 0.5,
        dw=np.where(sign == 0, sqrt_h, -sqrt_h)[:, None],
        counts=counts,
    )

    nodes = [NodeSet(np.array([spec.initial_regime], dtype=np.int16), spec.initial_state[None, :], np.array([1.0]))]
    edges: list[EdgeSet] = []
    size = 1

    for k in range(K):
        cur = nodes[k]
        n = cur.regime.size
        # state moves under the current regime, independent of the atom
        x_next = np.empty((n, 2))  # columns: +sqrt(h), -sqrt(h)
        for i in np.unique(cur.regime):
            rows = np.flatnonzero(cur.regime == i)
            xi = cur.x[rows]
            b = np.asarray(spec.drift(int(i), xi), dtype=float)[:, 0]
            s = np.asarray(spec.vol(int(i), xi), dtype=float)[:, 0, 0]
            base = xi[:, 0] + b * h
            x_next[rows, 0] = base + s * sqrt_h
            x_next[rows, 1] = base - s * sqrt_h

        # children node-major: (n, P) laid out as the step's edges
        child_x = x_next[:, sign].ravel()
        child_regime = np.where(outcome == 0, cur.regime[:, None], outcome).ravel()

        # dedupe on (regime, rounded x), nodes in that order; + 0.0 turns -0.0 into 0.0
        key_x = np.round(child_x, _ROUND_DECIMALS) + 0.0
        order = np.lexsort((key_x, child_regime))
        sorted_regime, sorted_x = child_regime[order], key_x[order]
        starts = np.empty(order.size, dtype=bool)
        starts[0] = True
        starts[1:] = (sorted_regime[1:] != sorted_regime[:-1]) | (sorted_x[1:] != sorted_x[:-1])
        run = np.cumsum(starts) - 1
        head = np.empty(order.size, dtype=np.int32)
        head[order] = run
        n_new = int(run[-1]) + 1

        # bincount adds in edge order, as np.add.at does
        mass = np.bincount(head, (cur.mass[:, None] * table.prob).ravel(), n_new)

        size += n_new
        if size > cap:
            raise ValueError(
                f"lattice enumeration exceeds the cap: {size} states after "
                f"step {k + 1} of {K} (cap {cap})"
            )

        nodes.append(NodeSet(regime=sorted_regime[starts].astype(np.int16), x=sorted_x[starts][:, None], mass=mass))
        edges.append(EdgeSet(head=head, outcomes=table))

    return LatticeChain(h=h, K=K, d=1, m=m, T=T, nodes=nodes, edges=edges)
