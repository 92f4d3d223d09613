"""Random-walk controversy scoring on a bipartitioned endorsement graph.

The score contrasts absorption probabilities of restarting random walks:
walks start uniformly inside one side, restart to that start distribution
with probability alpha, otherwise step to a uniform random neighbor, and
terminate on entering any of the two sides' high-degree absorbing sets.
With p_ab the probability that a walk started in side a is absorbed in
side b's set,

    score = p_xx * p_yy - p_xy * p_yx

which lies in [-1, 1] and approaches 1 when walkers almost never cross.

The exact figures come from the absorbing-chain linear system on the
transient nodes. The restart couples every node to the start distribution,
a rank-one term, so it is kept out of the system: one batched Jacobi
iteration solves (I - (1-alpha) M) Z = [(1-alpha) b_x, (1-alpha) b_y,
alpha 1] for both sides at once, and the Sherman-Morrison identity recovers
each side's probabilities from Z (see _solve). The iteration contracts by
1-alpha per sweep, so it stops once an a-posteriori bound puts every
reported probability within solver_tol of the exact value. A Monte Carlo
simulator provides an independent estimate of the same quantity for
cross-checking. rwc_score and rwc_monte_carlo are the two walk entries. Both
build one _WalkChain, which alone checks that the graph is connected and
that every node has a side.

M is read straight off the graph's own CSR (EndorsementGraph.csr) as flat
(row, column, probability) arrays over the transient nodes, built once per
solve, and each sweep's product M z is one np.bincount per column of Z.
The sum order is part of the result: floating-point sums depend on it, and
the solver's last bits reach the report. bincount adds each row's entries
one after another in ascending column order, starting from zero, the
order of a sequential CSR product. b_x and b_y are NumPy's add.reduceat
over each row's absorbing entries in ascending column order, which is how
a CSR row sum adds them. Both are pinned against per-row loops in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import EndorsementGraph, is_connected
from .partition import SIDE_X, SIDE_Y, Bipartition, _require_assigned


class RwcError(Exception):
    """Base class for controversy-scoring failures."""


class SideTooSmall(RwcError):
    """A side must hold more than k_top nodes to leave non-absorbing starters."""


class DegenerateStart(RwcError):
    """Every node of the start side is absorbing; no start distribution exists."""


class NoConvergence(RwcError):
    """The iterative solve missed the tolerance within max_iter sweeps."""


@dataclass(frozen=True)
class RwcConfig:
    """Walk parameters: absorbing-set size, restart probability, solver limits.

    solver_tol bounds the error of each reported absorption probability
    against the exact solution of the linear system. max_iter only caps the
    number of solver sweeps; reaching it raises NoConvergence. The sweeps
    needed grow like log(solver_tol) / log(1 - restart_prob), about 150 at
    the defaults.
    """

    k_top: int = 10
    restart_prob: float = 0.15
    solver_tol: float = 1e-10
    max_iter: int = 100_000
    weighted_walk: bool = False

    def __post_init__(self) -> None:
        if self.k_top < 1:
            raise ValueError(f"k_top must be >= 1, got {self.k_top}")
        if not 0.0 < self.restart_prob < 1.0:
            raise ValueError(f"restart_prob must be in (0,1), got {self.restart_prob}")
        if self.solver_tol <= 0:
            raise ValueError("solver_tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True)
class RwcResult:
    """The four absorption probabilities and the combined score."""

    p_xx: float
    p_xy: float
    p_yy: float
    p_yx: float
    score: float


def high_degree_nodes(
    g: EndorsementGraph, side: str, p: Bipartition, k_top: int
) -> frozenset[str]:
    """The k_top nodes of a side with the highest full-graph degree.

    Ties break toward the lexicographically smaller node id, so the set is
    deterministic.
    """
    nodes, indptr, _, _ = g.csr
    members = np.fromiter((p.side_of.get(n) == side for n in nodes), dtype=bool,
                          count=len(nodes))
    return frozenset(nodes[i] for i in _top_degree(members, np.diff(indptr), k_top, side))


def _top_degree(members: np.ndarray, degree: np.ndarray, k_top: int, side: str) -> np.ndarray:
    """Indices of the k_top highest-degree members.

    Ties go to the smaller index, which in sorted-id order is the smaller id.
    """
    candidates = np.flatnonzero(members)
    if candidates.size <= k_top:
        raise SideTooSmall(
            f"side {side} has {candidates.size} nodes, need more than k_top={k_top}"
        )
    order = np.argsort(-degree[candidates], kind="stable")
    return candidates[order[:k_top]]


class _WalkChain:
    """Index-space view of the absorbing walk shared by solver and simulator."""

    def __init__(self, g: EndorsementGraph, p: Bipartition, cfg: RwcConfig):
        if not is_connected(g):
            raise RwcError("controversy scoring requires a connected graph")
        _require_assigned(g, p.side_of)
        self.cfg = cfg
        self.nodes, self.indptr, self.indices, weights = g.csr
        n = len(self.nodes)
        degree = np.diff(self.indptr)
        if cfg.weighted_walk:
            self.step_w = weights.astype(np.float64)
        else:
            self.step_w = np.ones(weights.size, dtype=np.float64)
        self.out_total = np.bincount(
            np.repeat(np.arange(n), degree), weights=self.step_w, minlength=n
        )

        labels = [p.side_of[node] for node in self.nodes]
        in_x = np.fromiter((s == SIDE_X for s in labels), dtype=bool, count=n)
        in_y = np.fromiter((s == SIDE_Y for s in labels), dtype=bool, count=n)
        self.absorb_x = _top_degree(in_x, degree, cfg.k_top, SIDE_X)
        self.absorb_y = _top_degree(in_y, degree, cfg.k_top, SIDE_Y)
        self.absorb_label = np.zeros(n, dtype=np.int8)  # 0 transient, 1 in X+, 2 in Y+
        self.absorb_label[self.absorb_x] = 1
        self.absorb_label[self.absorb_y] = 2

        transient = self.absorb_label == 0
        self.start_x = np.flatnonzero(in_x & transient)
        self.start_y = np.flatnonzero(in_y & transient)
        if self.start_x.size == 0 or self.start_y.size == 0:
            raise DegenerateStart("a side consists solely of absorbing nodes")

        self.transient = np.flatnonzero(transient)
        self.t_index = np.full(n, -1, dtype=np.int64)
        self.t_index[self.transient] = np.arange(self.transient.size)

    def transient_system(self) -> tuple[np.ndarray, ...]:
        """The walk's step from transient rows, in transient numbering.

        Returns (rows, cols, prob, b_x, b_y). The first three list M, the
        transient-to-transient block, entry by entry in CSR order: by row,
        then by ascending column. b_x and b_y hold each transient row's
        one-step chance of entering X+ and Y+.
        """
        degree = np.diff(self.indptr)
        prob = self.step_w / np.repeat(self.out_total, degree)
        row = np.repeat(self.t_index, degree)  # -1 on entries of absorbing rows
        target = self.absorb_label[self.indices]
        into = np.where(row >= 0, target, -1)  # 0 transient, 1 X+, 2 Y+, -1 not a row of M
        to_transient = into == 0
        size = self.transient.size
        return (row[to_transient], self.t_index[self.indices[to_transient]],
                prob[to_transient], _row_sums(row, prob, into == 1, size),
                _row_sums(row, prob, into == 2, size))


def _row_sums(row: np.ndarray, values: np.ndarray, mask: np.ndarray, size: int) -> np.ndarray:
    """Per-row sums of values[mask], one add.reduceat run per row in CSR order."""
    row, values = row[mask], values[mask]
    sums = np.zeros(size)
    if row.size:
        starts = np.flatnonzero(np.concatenate(([True], row[1:] != row[:-1])))
        sums[row[starts]] = np.add.reduceat(values, starts)
    return sums


def _times(rows: np.ndarray, cols: np.ndarray, prob: np.ndarray, z: np.ndarray) -> np.ndarray:
    """M @ z from M's flat entries: each row's terms added in CSR order, from zero."""
    return np.bincount(rows, weights=prob * z[cols], minlength=z.size)


def _solve(chain: _WalkChain) -> tuple[float, float, float, float]:
    """(p_xx, p_xy, p_yy, p_yx) from one batched solve of (I - (1-alpha) M) Z = R.

    R's columns are (1-alpha) b_x, (1-alpha) b_y and alpha * 1, so row v of Z
    holds the chances that a walk from v is absorbed in X+, is absorbed in
    Y+, or restarts, whichever comes first. Sherman-Morrison folds the restart
    back in: p_s. = mean(Z[start_s, .]) / (1 - mean(Z[start_s, restart])).
    Jacobi sweeps contract by 1-alpha in the max norm, so after a sweep that
    moved Z by `step`, Z is within e = (1-alpha)/alpha * step of the fixed
    point, and a ratio a / (1 - d) with a, d each off by at most e is off
    by at most e (1 + p) / (1 - d - e). The loop stops once that bound is
    within solver_tol for all four probabilities.
    """
    cfg = chain.cfg
    alpha = cfg.restart_prob
    keep = 1.0 - alpha
    rows, cols, prob, b_x, b_y = chain.transient_system()
    size = b_x.size
    rhs = (keep * b_x, keep * b_y, np.full(size, alpha))
    starts = (chain.t_index[chain.start_x], chain.t_index[chain.start_y])
    z = [np.zeros(size)] * 3
    for _ in range(cfg.max_iter):
        z_next = [keep * _times(rows, cols, prob, col) + r for col, r in zip(z, rhs)]
        error = keep / alpha * max(float(np.max(np.abs(a - b))) for a, b in zip(z_next, z))
        z = z_next
        if error > cfg.solver_tol:  # the bound below cannot hold yet
            continue
        # a (size, 3) array's column means add row by row; a 1-D mean adds pairwise
        stacked = np.column_stack(z)
        means = np.stack([stacked[start].mean(axis=0) for start in starts])
        absorbed = 1.0 - means[:, 2:]  # absorbed before the first restart
        probs = means[:, :2] / absorbed
        if np.all(error * (1.0 + probs) <= cfg.solver_tol * (absorbed - error)):
            (p_xx, p_xy), (p_yx, p_yy) = probs.tolist()
            return p_xx, p_xy, p_yy, p_yx
    raise NoConvergence(f"no convergence within {cfg.max_iter} iterations")


def rwc_score(g: EndorsementGraph, p: Bipartition, cfg: RwcConfig | None = None) -> RwcResult:
    """Exact controversy score of a partitioned connected graph."""
    cfg = cfg or RwcConfig()
    p_xx, p_xy, p_yy, p_yx = _solve(_WalkChain(g, p, cfg))
    return RwcResult(p_xx, p_xy, p_yy, p_yx, p_xx * p_yy - p_xy * p_yx)


_SHARD_WALKS = 25_000


def _simulate_side(
    chain: _WalkChain, start: np.ndarray, n_walks: int, seed_key: tuple[int, int]
) -> tuple[int, int]:
    """Count absorptions (same-as-X+, same-as-Y+) over n_walks simulated walks."""
    alpha = chain.cfg.restart_prob
    weighted = chain.cfg.weighted_walk
    indptr, indices = chain.indptr, chain.indices
    degree = (indptr[1:] - indptr[:-1]).astype(np.int64)
    if weighted:
        cum_w = np.cumsum(chain.step_w)
        base_w = np.concatenate(([0.0], cum_w))[indptr[:-1]]
    label = chain.absorb_label
    hit_x = 0
    hit_y = 0
    remaining = n_walks
    shard_index = 0
    while remaining > 0:
        count = min(_SHARD_WALKS, remaining)
        remaining -= count
        rng = np.random.default_rng((*seed_key, shard_index))
        shard_index += 1
        pos = start[rng.integers(0, start.size, count)]
        while pos.size:
            restart = rng.random(pos.size) < alpha
            n_restart = int(restart.sum())
            if n_restart:
                pos[restart] = start[rng.integers(0, start.size, n_restart)]
            movers = np.flatnonzero(~restart)
            if movers.size:
                at = pos[movers]
                if weighted:
                    targets = base_w[at] + rng.random(movers.size) * chain.out_total[at]
                    picked = np.searchsorted(cum_w, targets, side="right")
                else:
                    picked = indptr[at] + rng.integers(0, degree[at])
                pos[movers] = indices[picked]
            absorbed = label[pos]
            hit_x += int((absorbed == 1).sum())
            hit_y += int((absorbed == 2).sum())
            pos = pos[absorbed == 0]
    return hit_x, hit_y


def rwc_monte_carlo(
    g: EndorsementGraph,
    p: Bipartition,
    cfg: RwcConfig | None = None,
    n_walks: int = 100_000,
    seed: int = 0,
) -> RwcResult:
    """Monte Carlo estimate of the controversy score (n_walks per start side).

    Walk semantics match the exact solver; shards use substreams derived
    from (seed, side, shard), so a fixed seed reproduces bit-identical
    estimates regardless of shard merging order.
    """
    cfg = cfg or RwcConfig()
    if n_walks < 1:
        raise ValueError(f"n_walks must be >= 1, got {n_walks}")
    chain = _WalkChain(g, p, cfg)
    x_same, x_cross = _simulate_side(chain, chain.start_x, n_walks, (seed, 0))
    y_cross, y_same = _simulate_side(chain, chain.start_y, n_walks, (seed, 1))
    p_xx = x_same / n_walks
    p_xy = x_cross / n_walks
    p_yy = y_same / n_walks
    p_yx = y_cross / n_walks
    return RwcResult(p_xx, p_xy, p_yy, p_yx, p_xx * p_yy - p_xy * p_yx)
