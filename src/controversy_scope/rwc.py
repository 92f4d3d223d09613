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
a rank-one term, so it is kept out of the system: one batched Chebyshev
semi-iteration solves (I - (1-alpha) M) Z = [(1-alpha) b_x, (1-alpha) b_y,
alpha 1] for both sides at once, and the Sherman-Morrison identity recovers
each side's probabilities from Z (see _solve). The system's spectrum lies
in [alpha, 2 - alpha], so Chebyshev with centre 1 and half-width 1-alpha
gains a factor of about 0.56 a product at alpha = 0.15, where a Jacobi
sweep gains 0.85. Each stop test reads the Jacobi step from the current
iterate, which is within (1-alpha)/alpha times its change of the fixed
point, and stops once that bound puts every reported probability within
solver_tol of the exact value. A Monte Carlo
simulator provides an independent estimate of the same quantity for
cross-checking. rwc_score and rwc_monte_carlo are the two walk entries. Both
build one _WalkChain, which alone checks that the graph is connected and
that the partition splits that graph, then reads its side array as is.

A check against the exact score (rwc_monte_carlo's settle) runs its walks
as a cap: it stops at the first shard pair whose empirical Bernstein
confidence interval for the score, valid at every check at once with
probability 1 - _SETTLE_DELTA, lies inside the tolerance or wholly
outside it (_settled). Every walk ends absorbed (p_xx + p_xy = 1), so the
score is p_xx + p_yy - 1, the mean of D = A + B - 1 over pairs of walks.

The simulator moves every live walker with one uniform draw u per step
(_pick): u < alpha restarts it, to a start slot scaled from u / alpha, and
otherwise u, rescaled past alpha, picks the neighbor, along the row's
cumulative weights on a weighted walk. Float rounding can carry either
index one past its range for u just below alpha or 1, so both are clipped
into range. X's shard j and Y's shard j step in lockstep (_walk_pair), the
live X walkers held before the live Y walkers, each side drawing from its
own generator: the counts are those of each side's walks run alone, and
the two sides' tails share one run of iterations. Each side counts only
the walks that end on its own side; every walk ends absorbed, so the rest
ended across. Estimates reach a report only through a failed check.

M is the graph's own CSR (EndorsementGraph.csr) masked to transient rows
and columns, as flat (row, column, probability) arrays in the graph's node
numbering, built once per solve; b_x and b_y are 0 on absorbing rows. Each
product M z is one np.bincount per column of Z.
The sum order is part of the result: floating-point sums depend on it, and
the solver's last bits reach the report. bincount adds each row's entries
one after another in ascending column order, starting from zero, the
order of a sequential CSR product. b_x and b_y are NumPy's add.reduceat
over each row's absorbing entries in ascending column order, which is how
a CSR row sum adds them. Both are pinned against per-row loops in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph import EndorsementGraph, is_connected
from .partition import SIDE_X, SIDE_Y, Bipartition, PartitionError


class RwcError(Exception):
    """Base class for controversy-scoring failures."""


class SideTooSmall(RwcError):
    """A side must hold more than k_top nodes to leave non-absorbing starters."""


class NoConvergence(RwcError):
    """The iterative solve missed the tolerance within max_iter products."""


@dataclass(frozen=True)
class RwcConfig:
    """Walk parameters: absorbing-set size, restart probability, solver limits.

    solver_tol bounds the error of each reported absorption probability
    against the exact solution of the linear system. max_iter only caps the
    number of the solver's matrix products (one per iteration); reaching it
    raises NoConvergence. The products needed grow like log(solver_tol) /
    log(rate), with rate = (sqrt(k) - 1) / (sqrt(k) + 1) and k = (2 -
    restart_prob) / restart_prob: about 50 at the defaults, where Jacobi
    sweeps would take about 150.
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
        if not 0 < self.solver_tol < math.inf:
            raise ValueError(f"solver_tol must be positive and finite, got {self.solver_tol}")
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
    members = _sides(g, p)[side]
    return frozenset(g.nodes[i] for i in _top_degree(members, np.diff(g.indptr), k_top, side))


def _sides(g: EndorsementGraph, p: Bipartition) -> dict[str, np.ndarray]:
    """Each side's members as a bool array over g's indices; PartitionError when
    p splits another graph."""
    if p.nodes != g.nodes:
        raise PartitionError("the partition is not of the graph being scored")
    return {SIDE_X: p.in_x, SIDE_Y: ~p.in_x}


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
        self.cfg = cfg
        self.nodes, self.indptr, self.indices, weights = g.csr
        n = len(self.nodes)
        degree = np.diff(self.indptr)
        self.row = np.repeat(np.arange(n), degree)  # each CSR entry's row
        if cfg.weighted_walk:
            self.step_w = weights.astype(np.float64)
        else:
            self.step_w = np.ones(weights.size, dtype=np.float64)
        self.out_total = np.bincount(self.row, weights=self.step_w, minlength=n)

        in_x, in_y = _sides(g, p).values()
        self.absorb_x = _top_degree(in_x, degree, cfg.k_top, SIDE_X)
        self.absorb_y = _top_degree(in_y, degree, cfg.k_top, SIDE_Y)
        self.absorb_label = np.zeros(n, dtype=np.int8)  # 0 transient, 1 in X+, 2 in Y+
        self.absorb_label[self.absorb_x] = 1
        self.absorb_label[self.absorb_y] = 2

        transient = self.absorb_label == 0
        # _top_degree left each side more than k_top members, so neither start set is empty
        self.start_x = np.flatnonzero(in_x & transient)
        self.start_y = np.flatnonzero(in_y & transient)

    @cached_property
    def walk_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
        """Per-node (first, last, scale, cum0) for _pick: the simulator's view.

        first and last are each row's first and last edge, scale its
        out_total (total weight, or the degree as a float) over (1 - alpha),
        and cum0 the cumulative edge weights from 0 on a weighted walk, else None.
        """
        cum0 = None
        if self.cfg.weighted_walk:
            cum0 = np.concatenate(([0.0], np.cumsum(self.step_w)))
        scale = self.out_total / (1.0 - self.cfg.restart_prob)
        return self.indptr[:-1], self.indptr[1:] - 1, scale, cum0

    def transient_system(self) -> tuple[np.ndarray, ...]:
        """The walk's step from transient rows, in the graph's node numbering.

        Returns (rows, cols, prob, b_x, b_y). The first three list M, the
        CSR's entries with a transient row and column, in CSR order: by row,
        then by ascending column. b_x and b_y hold each row's one-step
        chance of entering X+ and Y+, 0 on absorbing rows.
        """
        prob = self.step_w / self.out_total[self.row]
        target = self.absorb_label[self.indices]
        # 0 transient, 1 X+, 2 Y+, -1 on the entries of absorbing rows
        into = np.where(self.absorb_label[self.row] == 0, target, -1)
        to_transient = into == 0
        n = self.out_total.size
        return (self.row[to_transient], self.indices[to_transient], prob[to_transient],
                _row_sums(self.row, prob, into == 1, n), _row_sums(self.row, prob, into == 2, n))


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
    holds the chances that a walk from transient v is absorbed in X+, is
    absorbed in Y+, or restarts, whichever comes first. Sherman-Morrison
    folds the restart back in:
    p_s. = mean(Z[start_s, .]) / (1 - mean(Z[start_s, restart])).

    The iterate V runs Chebyshev semi-iteration on the spectrum's interval
    [alpha, 2 - alpha], with centre 1 and half-width 1-alpha (Golub & Varga
    1961; Saad 2003, Alg. 12.1): V += s, where the step is
    s = rho_k rho_{k-1} s + 2 rho_k / (1-alpha) r, r = R - (I - (1-alpha) M) V,
    rho_0 = 1-alpha and rho_k = 1 / (2 / (1-alpha) - rho_{k-1}); the first
    step is r. The one product M V of an iteration also gives the Jacobi
    step J = V + r, the point every stop test reads. Jacobi steps contract
    by 1-alpha in the max norm, so J is within e = (1-alpha)/alpha * max|r|
    of the fixed point, and a ratio a / (1 - d) with a, d each off by at
    most e is off by at most e (1 + p) / (1 - d - e). The loop stops once
    that bound is within solver_tol for all four probabilities.
    """
    cfg = chain.cfg
    alpha = cfg.restart_prob
    keep = 1.0 - alpha
    rows, cols, prob, b_x, b_y = chain.transient_system()
    rhs = (keep * b_x, keep * b_y, np.full(b_x.size, alpha))
    starts = (chain.start_x, chain.start_y)
    v = [np.zeros(b_x.size) for _ in rhs]
    steps = [np.zeros(b_x.size) for _ in rhs]
    rho, carry, gain = keep, 0.0, 1.0  # the first step is r itself
    for _ in range(cfg.max_iter):
        jacobi = [keep * _times(rows, cols, prob, col) + r for col, r in zip(v, rhs)]
        residual = [j - col for j, col in zip(jacobi, v)]
        error = keep / alpha * max(float(np.max(np.abs(r))) for r in residual)
        if error <= cfg.solver_tol:  # else the bound below cannot hold yet
            # a (size, 3) array's column means add row by row; a 1-D mean adds pairwise
            stacked = np.column_stack(jacobi)
            means = np.stack([stacked[start].mean(axis=0) for start in starts])
            absorbed = 1.0 - means[:, 2:]  # absorbed before the first restart
            probs = means[:, :2] / absorbed
            if np.all(error * (1.0 + probs) <= cfg.solver_tol * (absorbed - error)):
                (p_xx, p_xy), (p_yx, p_yy) = probs.tolist()
                return p_xx, p_xy, p_yy, p_yx
        for col, step, r in zip(v, steps, residual):
            step *= carry
            r *= gain
            step += r
            col += step
        rho_next = 1.0 / (2.0 / keep - rho)
        rho, carry, gain = rho_next, rho_next * rho, 2.0 * rho_next / keep
    raise NoConvergence(f"no convergence within {cfg.max_iter} products")


def rwc_score(g: EndorsementGraph, p: Bipartition, cfg: RwcConfig | None = None) -> RwcResult:
    """Exact controversy score of a partitioned connected graph."""
    cfg = cfg or RwcConfig()
    p_xx, p_xy, p_yy, p_yx = _solve(_WalkChain(g, p, cfg))
    return RwcResult(p_xx, p_xy, p_yy, p_yx, p_xx * p_yy - p_xy * p_yx)


_SHARD_WALKS = 25_000
# The sequential Monte Carlo check's error level: the chance that any of a
# run's confidence intervals for the score misses the true score
_SETTLE_DELTA = 1e-6


def _pick(
    u: np.ndarray, n_x: int, alpha: float, sizes: tuple[int, int], first: np.ndarray,
    last: np.ndarray, scale: np.ndarray, cum0: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One step's move for each walker of a pair, from its one uniform draw u in [0, 1).

    The first n_x walkers start in X and the rest in Y; sizes holds the two
    start sets' sizes. first and last are each walker's row's first and last
    edge, and scale is the row's width over (1 - alpha): its degree, or on a
    weighted walk (cum0 holds the cumulative edge weights from 0) its total
    weight. Returns (restart, slot, edge). restart lists, ascending, the
    walkers with u < alpha, and slot the place each restarts to in X's start
    set followed by Y's: floor(u * size / alpha) into its own side's set.
    edge is every walker's move, (u - alpha) * scale into its row: edge
    first + floor of that, or the edge whose cumulative-weight interval
    holds it. Rounding carries u * size / alpha up to size for u just below
    alpha, and the row offset up to the width for u just below 1, so both
    are clipped: every slot lies in its side's set and every edge in its
    walker's row, that of a restarting walker included.
    """
    restart = np.flatnonzero(u < alpha)
    k = int(restart.searchsorted(n_x))  # the restarting X walkers come first
    scaled = u[restart]
    scaled[:k] *= sizes[0] / alpha
    scaled[k:] *= sizes[1] / alpha
    slot = scaled.astype(np.intp)
    np.minimum(slot[:k], sizes[0] - 1, out=slot[:k])
    np.minimum(slot[k:], sizes[1] - 1, out=slot[k:])
    slot[k:] += sizes[0]
    offset = u - alpha
    offset *= scale
    if cum0 is None:
        edge = offset.astype(np.intp)
        edge += first
    else:
        offset += cum0[first]
        edge = np.searchsorted(cum0, offset, side="right")
        edge -= 1
    np.minimum(edge, last, out=edge)
    return restart, slot, np.maximum(edge, first, out=edge)


def _walk_pair(
    chain: _WalkChain, count: int, rng_x: np.random.Generator, rng_y: np.random.Generator
) -> tuple[int, int]:
    """(X walks that end in X+, Y walks that end in Y+) of count walks from
    uniform starts in each side, stepped together; every other walk ended across.

    The live X walkers are held before the live Y walkers. Each side draws
    from its own generator, as many values per step as it has live walkers,
    and compaction keeps their order, so each side's count is that of its
    walks run alone on its generator.
    """
    alpha = chain.cfg.restart_prob
    first, last, scale, cum0 = chain.walk_rows
    label = chain.absorb_label
    start_x, start_y = chain.start_x, chain.start_y
    starts = np.concatenate((start_x, start_y))
    sizes = (start_x.size, start_y.size)
    pos = np.concatenate((start_x[rng_x.integers(0, start_x.size, count)],
                          start_y[rng_y.integers(0, start_y.size, count)]))
    n_x = count
    draws = np.empty(pos.size)
    x_in_x = y_in_y = 0
    while pos.size:
        u = draws[:pos.size]
        rng_x.random(out=u[:n_x])
        rng_y.random(out=u[n_x:])
        restart, slot, edge = _pick(u, n_x, alpha, sizes, first[pos], last[pos], scale[pos],
                                    cum0)
        pos = chain.indices[edge]
        pos[restart] = starts[slot]
        absorbed = label[pos]
        live = absorbed == 0
        if np.count_nonzero(live) < pos.size:
            x_in_x += np.count_nonzero(absorbed[:n_x] == 1)
            y_in_y += np.count_nonzero(absorbed[n_x:] == 2)
            n_x = np.count_nonzero(live[:n_x])
            pos = pos[live]
    return x_in_x, y_in_y


def _settled(sum_d: int, sum_d2: int, n: int, cap: int, exact: float, tol: float,
             delta: float = _SETTLE_DELTA) -> str | None:
    """The check's verdict against exact +- tol: "pass" or "fail" once a
    confidence interval for the score settles it, None while it straddles
    either edge.

    sum_d and sum_d2 are the sums of D and D**2 over n pairs of walks, where
    D = A + B - 1 in {-1, 0, 1} and A, B flag a walk from X and one from Y
    that end on their own side; D's mean is the score. X = (D + 1) / 2
    lies in [0, 1], and Maurer & Pontil's empirical Bernstein bound (COLT
    2009, Theorem 4), applied to X and to 1 - X, puts its mean within
        sqrt(2 V ln(4K / delta) / n) + 7 ln(4K / delta) / (3 (n - 1))
    of the sample mean with probability 1 - delta / K, V being X's sample
    variance. A run checks at most K = ceil(cap / _SHARD_WALKS) times, so by
    the union bound every one of its intervals holds at once with
    probability 1 - delta. The score's half-width is twice X's. "pass" needs
    the interval inside [exact - tol, exact + tol], "fail" wholly outside
    it; the bound needs n >= 2.
    """
    if n < 2:
        return None
    log_term = math.log(4 * -(-cap // _SHARD_WALKS) / delta)
    mean = sum_d / n
    var_x = (sum_d2 - sum_d * mean) / (n - 1) / 4
    half = 2 * (math.sqrt(2 * var_x * log_term / n) + 7 * log_term / (3 * (n - 1)))
    gap = abs(mean - exact)
    if gap + half <= tol:
        return "pass"
    if gap - half > tol:
        return "fail"
    return None


@dataclass
class Settle:
    """The target of a sequential check, and how the run that checked it ended.

    rwc_monte_carlo(settle=...) fills in walks, the walks it ran per side,
    and verdict, "pass" or "fail" when a confidence interval settled the
    check before the cap (see _settled). verdict stays None when the run
    reached the cap, where the caller's point rule decides.
    """

    exact: float
    tol: float
    walks: int = 0
    verdict: str | None = None


def rwc_monte_carlo(
    g: EndorsementGraph,
    p: Bipartition,
    cfg: RwcConfig | None = None,
    n_walks: int = 100_000,
    seed: int = 0,
    *,
    settle: Settle | None = None,
) -> RwcResult:
    """Monte Carlo estimate of the controversy score (at most n_walks per side).

    Walk semantics match the exact solver. Each walker step takes one
    uniform draw, which picks both a restart and the neighbor; the restart
    slot and the neighbor are clipped into range against float rounding.
    Each side runs its walks in shards of up to 25 000, and shard j of side
    s (0 for X, 1 for Y) draws from the substream (seed, s, j), so a fixed
    seed gives bit-identical estimates, and the counts of a run are the
    sums of its shards' counts. Shards run in pairs: X shard j and Y shard
    j step together, each on its own substream.

    Without settle, each side runs exactly n_walks walks. With it, the run
    stops after the first shard pair, short of n_walks, whose confidence
    interval (_settled) lies inside settle.exact +- settle.tol or wholly
    outside it, and the estimate is that of the walks run so far: the same
    figures as an unsettled run of that many walks.

    A shard pair returns two counts: a and b of its c walks from X and from
    Y end on their own side. Every walk ends absorbed, so the other c - a
    and c - b end across. The interval needs the walks paired, but the walks
    of a side are i.i.d., so given a, which a of them end there is a
    uniformly random subset. Pairing X's walk i with Y's walk i then meets
    the b own-side Y walks with a uniformly random b-subset of the X walks,
    and the number k11 of pairs where both end on their own side is
    Hypergeometric(a, c - a, b). It is drawn from a third substream,
    (seed, 2, j), which leaves the walks' own draws untouched. D = 1 on the
    k11 pairs and -1 on the c - a - b + k11 pairs where neither does, so the
    shard adds a + b - c to the sum of D and c - a - b + 2 k11 to the sum of
    D**2.
    """
    cfg = cfg or RwcConfig()
    if n_walks < 1:
        raise ValueError(f"n_walks must be >= 1, got {n_walks}")
    chain = _WalkChain(g, p, cfg)
    x_same = y_same = walks = sum_d2 = 0
    verdict = None
    for shard in range(-(-n_walks // _SHARD_WALKS)):
        count = min(_SHARD_WALKS, n_walks - walks)
        a, b = _walk_pair(chain, count, np.random.default_rng((seed, 0, shard)),
                          np.random.default_rng((seed, 1, shard)))
        x_same, y_same, walks = x_same + a, y_same + b, walks + count
        if settle is None or walks == n_walks:  # at the cap the caller's point rule decides
            continue
        k11 = int(np.random.default_rng((seed, 2, shard)).hypergeometric(a, count - a, b))
        sum_d2 += count - a - b + 2 * k11
        verdict = _settled(x_same + y_same - walks, sum_d2, walks, n_walks,
                           settle.exact, settle.tol)
        if verdict is not None:
            break
    if settle is not None:
        settle.walks, settle.verdict = walks, verdict
    p_xx, p_xy = x_same / walks, (walks - x_same) / walks
    p_yy, p_yx = y_same / walks, (walks - y_same) / walks
    return RwcResult(p_xx, p_xy, p_yy, p_yx, p_xx * p_yy - p_xy * p_yx)
