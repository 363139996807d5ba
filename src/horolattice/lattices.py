"""Lattice geometry of unimodular lattices g Z^d.

Shortest vectors, successive minima, duals, the height (inverse sup-norm
first minimum), cusp membership, and the Siegel transform of compactly
supported radial step functions.

Two enumeration engines drive everything exhaustive here:

* `constrained_shortest`: Schnorr-Euchner search (zig-zag around the
  Babai center per level, radius shrinking to the running best, and an
  O(1) skip of the subtree spanned by a coordinate prefix).  This is
  what keeps deep-cusp lattices cheap; a fixed-radius walk would visit
  ~lambda_d^d nodes there.
* `enumerate_ball`: fixed-radius Fincke-Pohst walk yielding every
  lattice vector in a Euclidean ball, used where the full list is the
  point (Siegel transforms, candidate bases, sup-norm certification).

Budgets are hard errors, never silent truncation.  Sup-norm questions
are certified by enumerating the Euclidean ball of radius sqrt(d) times
the best sup length, since ||v||_inf <= ||v||_2 <= sqrt(d) ||v||_inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Literal, Optional, Sequence

import numpy as np

from .core import SpecialLinearMatrix, _bezout, _cross
from .errors import BudgetExceededError, PrecisionError, _failure_site

__all__ = [
    "DEFAULT_BUDGET",
    "LatticeDescriptor",
    "RadialStepFunction",
    "lll_reduce",
    "lll_reduce_batch",
    "enumerate_ball",
    "constrained_shortest",
    "shortest_vector",
    "successive_minima",
    "height",
    "dual_basis",
    "siegel_transform",
    "siegel_values",
]

DEFAULT_BUDGET = 10_000_000

_LLL_DELTA = 0.99
_LLL_MAX_ROUNDS = 10_000


def lll_reduce(basis: np.ndarray):
    """Column LLL reduction with exact integer transform.

    Returns (B, U): B is the reduced float basis maintained incrementally
    (the numerically stable way to get it) and U is the exact unimodular
    transform as nested Python ints with det +1, so B tracks basis @ U.
    Swaps are swap-with-sign to keep the determinant +1 throughout.  The
    Lovasz parameter is _LLL_DELTA; a run past _LLL_MAX_ROUNDS rounds is
    a BudgetExceededError.  `lll_reduce_batch` reads the same two.

    Gram-Schmidt rows are computed lazily: row j of (Q, mu, norms2)
    reads only columns <= j of B and rows < j of itself, so a change to
    column k (a size reduction of k, or a swap of k - 1 and k, which
    touches k - 1) invalidates rows >= that column only, and a row is
    recomputed when the loop next reads it.  Each row is then the value
    a full recompute of the current basis gives, by the same operations
    in the same order, so the result equals the full-recompute
    algorithm bit for bit while most rows are never recomputed.
    """
    B = np.array(basis, dtype=float)
    d = B.shape[0]
    U = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    Q = np.zeros_like(B)
    mu = np.zeros((d, d))
    norms2 = np.zeros(d)
    valid = 0  # rows < valid match the current B

    def gram_schmidt(upto: int):
        nonlocal valid
        for j in range(valid, upto + 1):
            v = B[:, j].copy()
            for i in range(j):
                mu[j, i] = 0.0 if norms2[i] == 0 else float(B[:, j] @ Q[:, i]) / norms2[i]
                v -= mu[j, i] * Q[:, i]
            Q[:, j] = v
            norms2[j] = float(v @ v)
        valid = max(valid, upto + 1)

    rounds = 0
    k = 1
    while k < d:
        rounds += 1
        if rounds > _LLL_MAX_ROUNDS:
            raise BudgetExceededError("LLL failed to converge within the round budget")
        gram_schmidt(k)
        for i in range(k - 1, -1, -1):
            r = round(mu[k, i])
            if r != 0:
                B[:, k] -= r * B[:, i]
                for row in range(d):
                    U[row][k] -= r * U[row][i]
                valid = k
                gram_schmidt(k)
        if norms2[k] >= (_LLL_DELTA - mu[k, k - 1] ** 2) * norms2[k - 1]:
            k += 1
        else:
            tmp = B[:, k - 1].copy()
            B[:, k - 1] = B[:, k]
            B[:, k] = -tmp
            for row in range(d):
                U[row][k - 1], U[row][k] = U[row][k], -U[row][k - 1]
            valid = k - 1
            k = max(k - 1, 1)
    return B, U


def lll_reduce_batch(bases: np.ndarray, stage: Optional[str] = "LLL", t: Optional[float] = None):
    """`lll_reduce` of every basis of a stack (N, d, d), all rows at once.

    Returns (B, U): the reduced bases and the unimodular transforms as an
    (N, d, d) int64 stack.  Each row takes the steps `lll_reduce` takes on
    it, and every number is computed by the same operation: the
    Gram-Schmidt dot products by the same BLAS dot (a stacked (1, d) @ (d, 1)
    matmul calls it once per row), rounding half to even, the squared mu of
    the Lovasz test by the same libm pow, and the basis updates elementwise.
    So B and U equal `lll_reduce`'s bit for bit, row by row.  One step moves
    every row still reducing: k, the valid Gram-Schmidt rows and the round
    count are kept per row.

    For a single matrix `lll_reduce` is faster; this pays off on stacks.
    A failure names the lowest failing row as a sample of `stage` at flow
    time t (stage None names no site, for a stack of one that its caller
    names): the round budget `_LLL_MAX_ROUNDS` (BudgetExceededError), and
    a size-reduction step that is not finite or would take U beyond int64,
    which `lll_reduce` carries in Python ints (PrecisionError).
    """
    B = np.array(bases, dtype=float)
    n, d = B.shape[0], B.shape[-1]
    U = np.zeros(B.shape, dtype=np.int64)
    U[:, range(d), range(d)] = 1
    Q = np.zeros_like(B)
    mu = np.zeros(B.shape)
    norms2 = np.zeros((n, d))
    valid = np.zeros(n, dtype=np.intp)  # per row: Gram-Schmidt rows < valid match B
    k = np.ones(n, dtype=np.intp)

    def dots(x, y):
        return (x[:, None, :] @ y[:, :, None])[:, 0, 0]

    def gram_schmidt(rows, upto):
        for j in range(d):
            sel = rows[(valid[rows] <= j) & (j <= upto)]
            if not sel.size:
                continue
            bj = B[sel, :, j]
            v = bj.copy()
            for i in range(j):
                qi = Q[sel, :, i]
                n2 = norms2[sel, i]
                with np.errstate(divide="ignore", invalid="ignore"):
                    m = np.where(n2 == 0, 0.0, dots(bj, qi) / n2)
                mu[sel, j, i] = m
                v -= m[:, None] * qi
            Q[sel, :, j] = v
            norms2[sel, j] = dots(v, v)
        valid[rows] = np.maximum(valid[rows], upto + 1)

    def fail(error, rows, what):
        raise error(what if stage is None else f"{_failure_site(stage, int(rows.min()), t)}: {what}")

    rounds = 0
    while True:
        live = np.nonzero(k < d)[0]
        if not live.size:
            return B, U
        rounds += 1
        if rounds > _LLL_MAX_ROUNDS:
            fail(BudgetExceededError, live, "LLL failed to converge within the round budget")
        kk = k[live]
        gram_schmidt(live, kk)
        for s in range(1, d):
            rows, kr, ir = live[kk >= s], kk[kk >= s], kk[kk >= s] - s
            r = np.rint(mu[rows, kr, ir])
            step = r != 0
            if not step.any():
                continue
            rows, kr, ir, r = rows[step], kr[step], ir[step], r[step]
            if not np.all(np.isfinite(r)):
                fail(PrecisionError, rows[~np.isfinite(r)], "LLL size-reduction step is not finite")
            reach = np.abs(r) * np.abs(U[rows, :, ir]).max(axis=1) + np.abs(U[rows, :, kr]).max(axis=1)
            if not np.all(reach < 2.0**62):
                fail(PrecisionError, rows[reach >= 2.0**62], "LLL transform leaves int64")
            B[rows, :, kr] -= r[:, None] * B[rows, :, ir]
            U[rows, :, kr] -= r.astype(np.int64)[:, None] * U[rows, :, ir]
            valid[rows] = kr
            gram_schmidt(rows, kr)
        # Python's float pow is the libm pow that `lll_reduce`'s numpy scalar ** 2 calls
        musq = np.array([x**2 for x in mu[live, kk, kk - 1].tolist()])
        lovasz = norms2[live, kk] >= (_LLL_DELTA - musq) * norms2[live, kk - 1]
        k[live[lovasz]] += 1
        rows, kr = live[~lovasz], kk[~lovasz]
        for M in (B, U):
            tmp = M[rows, :, kr - 1]
            M[rows, :, kr - 1] = M[rows, :, kr]
            M[rows, :, kr] = -tmp
        valid[rows] = kr - 1
        k[rows] = np.maximum(kr - 1, 1)


def _qr_positive(B: np.ndarray) -> np.ndarray:
    # mode "r" returns the R of the same factorization without forming Q
    R = np.linalg.qr(B, mode="r")
    for i in range(B.shape[0]):
        if R[i, i] < 0:
            R[i, :] *= -1.0
    return R


class _ZigZag:
    """Distance-ordered integer walk around a real center."""

    __slots__ = ("base", "sign", "count", "value")

    def __init__(self, center: float):
        self.base = round(center)
        self.sign = 1 if center >= self.base else -1
        self.count = 0
        self.value = self.base

    def advance(self):
        self.count += 1
        n = self.count
        off = (n + 1) // 2
        self.value = self.base + self.sign * off * (1 if n % 2 == 1 else -1)


def constrained_shortest(
    B: np.ndarray,
    span_exclude: int = 0,
    budget: int = DEFAULT_BUDGET,
):
    """Shortest vector outside the span of the first `span_exclude` columns.

    Returns (coefficient tuple, squared length, nodes visited).  With
    span_exclude = 0 only the zero vector is excluded.  The walk is
    Schnorr-Euchner: per-level zig-zag around the Babai center (so the
    per-level cost sequence is nondecreasing and a failed value ends the
    level), with the radius shrinking to every new best.
    """
    B = np.asarray(B, dtype=float)
    d = B.shape[0]
    k = span_exclude
    # Python floats round like numpy scalars and cost less in the walk
    R = _qr_positive(B).tolist()

    best_c = None
    best2 = math.inf
    for j in range(k, d):
        n2 = float(B[:, j] @ B[:, j])
        if n2 < best2:
            best2 = n2
            best_c = tuple(1 if i == j else 0 for i in range(d))
    bound = best2 * (1.0 + 1e-12)

    c = [0] * d
    centers = [0.0] * d
    dist = [0.0] * (d + 1)
    walks: list = [None] * d
    nodes = 0

    def outer_zero(i: int) -> bool:
        return all(c[j] == 0 for j in range(i + 1, d))

    def enter(i: int):
        s = 0.0
        for j in range(i + 1, d):
            s += R[i][j] * c[j]
        mu = -s / R[i][i]
        centers[i] = mu
        w = _ZigZag(mu)
        walks[i] = w
        c[i] = w.value
        if i == k and c[i] == 0 and outer_zero(i):
            w.advance()
            c[i] = w.value

    def advance(i: int):
        w = walks[i]
        w.advance()
        c[i] = w.value
        if i == k and c[i] == 0 and outer_zero(i):
            w.advance()
            c[i] = w.value

    i = d - 1
    enter(i)
    while True:
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError("shortest-vector search budget exceeded", nodes=nodes)
        y = dist[i + 1] + (R[i][i] * (c[i] - centers[i])) ** 2
        if y <= bound:
            if i == 0:
                if y < best2:
                    best2 = y
                    best_c = tuple(c)
                    bound = best2
                advance(0)
            else:
                dist[i] = y
                i -= 1
                enter(i)
        else:
            i += 1
            if i == d:
                return best_c, best2, nodes
            advance(i)


def enumerate_ball(
    basis: np.ndarray,
    radius: float,
    budget: int = DEFAULT_BUDGET,
    primitive: bool = False,
) -> Iterator[tuple]:
    """Yield every nonzero integer c with ||basis c||_2 <= radius.

    One representative per {c, -c} pair (last nonzero coefficient
    positive); callers needing both signs mirror.  Every visited
    coefficient tuple costs one unit of budget.

    With `primitive`, only tuples with gcd 1 are visited: at the
    innermost level, c_0 must be coprime to the gcd g of the outer
    coefficients (c_0 = +-1 when g = 0).  The walk, its order and its
    float tests are otherwise unchanged, so the output is exactly the
    gcd-filtered output of the full walk; skipped tuples cost no budget.
    """
    B = np.asarray(basis, dtype=float)
    d = B.shape[0]
    # Python floats round like numpy scalars and cost less in the walk
    R = _qr_positive(B).tolist()
    rad2 = radius * radius * (1.0 + 1e-12) + 1e-300
    coeff = [0] * d
    nodes = 0

    def walk(level: int, partial: float) -> Iterator[tuple]:
        nonlocal nodes
        center = 0.0
        for j in range(level + 1, d):
            center -= R[level][j] * coeff[j]
        center /= R[level][level]
        room = rad2 - partial
        if room < 0:
            return
        span = math.sqrt(room) / R[level][level]
        lo = math.ceil(center - span - 1e-12)
        hi = math.floor(center + span + 1e-12)
        cvals = range(lo, hi + 1)
        if primitive and level == 0:
            g = math.gcd(*coeff[1:])
            if g == 0:
                cvals = [c for c in (-1, 1) if lo <= c <= hi]
            elif g > 1:
                cvals = [c for c in cvals if math.gcd(c, g) == 1]
        for cval in cvals:
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError("enumeration node budget exceeded", nodes=nodes)
            coeff[level] = cval
            resid = R[level][level] * cval
            for j in range(level + 1, d):
                resid += R[level][j] * coeff[j]
            new_partial = partial + resid * resid
            if new_partial > rad2:
                continue
            if level == 0:
                tup = tuple(coeff)
                for x in reversed(tup):
                    if x != 0:
                        if x > 0:
                            yield tup
                        break
            else:
                yield from walk(level - 1, new_partial)
        coeff[level] = 0

    yield from walk(d - 1, 0.0)


@dataclass
class RadialStepFunction:
    """A compactly supported radial step function.

    `breaks` is a sorted list of (radius, value) pairs; the function
    takes the value of the first break whose radius is >= ||v||, and 0
    beyond the largest radius.  The indicator of the closed ball of
    radius R is the single pair (R, 1.0).
    """

    breaks: Sequence[tuple]
    norm: Literal["sup", "euclidean"] = "euclidean"

    def __post_init__(self):
        radii = [r for r, _ in self.breaks]
        if not radii or any(r <= 0 for r in radii):
            raise ValueError("breaks need positive radii")
        if sorted(radii) != radii:
            raise ValueError("breaks must be sorted by radius")

    @property
    def support_radius(self) -> float:
        return float(self.breaks[-1][0])

    def __call__(self, v) -> float:
        vec = np.asarray(v, dtype=float)
        r = float(np.abs(vec).max()) if self.norm == "sup" else float(np.linalg.norm(vec))
        for radius, value in self.breaks:
            if r <= radius + 1e-12:
                return float(value)
        return 0.0


@dataclass
class LatticeDescriptor:
    """A unimodular lattice with a write-once LLL reduction (given, or made on first use)."""

    basis: SpecialLinearMatrix
    _reduced: Optional[tuple] = field(default=None, repr=False)

    @classmethod
    def from_matrix(cls, entries) -> "LatticeDescriptor":
        if isinstance(entries, SpecialLinearMatrix):
            return cls(entries)
        return cls(SpecialLinearMatrix.from_entries(entries))

    @property
    def dim(self) -> int:
        return self.basis.dim

    def reduced(self):
        if self._reduced is None:
            self._reduced = lll_reduce(self.basis.entries)
        return self._reduced


def _map_coeff(U, c):
    """Original-basis coefficients of the reduced-coordinate vector c."""
    d = len(c)
    return tuple(sum(U[i][j] * c[j] for j in range(d)) for i in range(d))


def shortest_vector(L: LatticeDescriptor, budget: int = DEFAULT_BUDGET):
    """Certified shortest nonzero vector in the sup norm.

    Returns (coefficients in the original basis, length).  Tie-break is
    deterministic: smallest (length, coefficient tuple).  The Euclidean
    first minimum is `successive_minima(L)[0]`.
    """
    B, U = L.reduced()
    d = L.dim
    s0 = float(min(np.abs(B[:, j]).max() for j in range(d)))
    best = None
    for cc in enumerate_ball(B, math.sqrt(d) * s0 * (1 + 1e-12), budget):
        v = B @ np.array(cc, dtype=float)
        ln = float(np.abs(v).max())
        for cand in ((ln, cc), (ln, tuple(-x for x in cc))):
            if best is None or cand < best:
                best = cand
    length, c = best
    return _map_coeff(U, c), length


def _complete_to_unimodular(tail: Sequence[int]) -> list:
    """Columns completing a primitive vector to a det +1 integer matrix.

    Supports lengths 2 and 3: `successive_minima` completes the tail of
    each minimum but the last.  Raises if the vector is not primitive.
    """
    t = [int(x) for x in tail]
    if math.gcd(*t) != 1:
        raise ValueError("completion requires a primitive vector")
    if len(t) == 2:
        a, b = t
        u, v = _bezout(t)
        # det [[a, -v], [b, u]] = a u + b v = 1
        return [[a, -v], [b, u]]
    a, b, c = t
    if a == 0 and b == 0:
        # c = +-1
        return [[0, 1, 0], [0, 0, c], [c, 0, 0]]
    g1 = math.gcd(a, b)
    v2 = [-b // g1, a // g1, 0]
    # third column solves det = 1: Bezout coefficients of the cross product
    nvec = _cross(t, v2)
    if math.gcd(*nvec) != 1:
        # not rare (396 of the 1,730 primitive vectors with entries in
        # [-6, 6]): step the second column by a unit vector
        for e in ([1, 0, 0], [0, 1, 0], [0, 0, 1]):
            w = [v2[i] + e[i] for i in range(3)]
            nv = _cross(t, w)
            if math.gcd(*nv) == 1:
                v2, nvec = w, nv
                break
        else:
            raise ValueError("no unimodular completion found")
    v3 = _bezout(nvec)
    return [[t[0], v2[0], v3[0]], [t[1], v2[1], v3[1]], [t[2], v2[2], v3[2]]]


def successive_minima(L: LatticeDescriptor, budget: int = DEFAULT_BUDGET) -> list:
    """Euclidean successive minima [lambda_1, ..., lambda_d], certified.

    Greedy: the j-th search excludes the span of the j-1 vectors found
    so far by a coordinate change putting them first (for d <= 3 greedy
    realizers always extend to a basis, so the completion exists).
    """
    B, _ = L.reduced()
    d = L.dim
    cur = B.copy()
    minima = []
    for j in range(d):
        c, l2, _ = constrained_shortest(cur, j, budget)
        minima.append(math.sqrt(l2))
        if j == d - 1:
            break
        # rebase: found vector becomes column j; columns < j stay put
        tail = list(c[j:])
        comp = _complete_to_unimodular(tail)
        T = [[1 if i == jj else 0 for jj in range(d)] for i in range(d)]
        for i in range(d):
            for jj in range(j, d):
                if i < j:
                    T[i][jj] = c[i] if jj == j else 0
                else:
                    T[i][jj] = comp[i - j][jj - j]
        cur = cur @ np.array(T, dtype=float)
    return minima


def height(L: LatticeDescriptor, budget: int = DEFAULT_BUDGET) -> float:
    """1 / (sup-norm length of the shortest nonzero vector); always >= 1."""
    _, length = shortest_vector(L, budget)
    return 1.0 / length


def dual_basis(L: LatticeDescriptor) -> LatticeDescriptor:
    """The dual lattice, with basis (g^{-1})^T."""
    return LatticeDescriptor(SpecialLinearMatrix.from_entries(L.basis.inverse.T))


def siegel_transform(
    f: RadialStepFunction,
    L: LatticeDescriptor,
    budget: int = DEFAULT_BUDGET,
) -> float:
    """Sum of f over the nonzero lattice points, by exhaustive enumeration."""
    B, _ = L.reduced()
    d = L.dim
    reach = f.support_radius
    if f.norm == "sup":
        reach *= math.sqrt(d)
    total = 0.0
    for c in enumerate_ball(B, reach * (1 + 1e-12), budget):
        v = B @ np.array(c, dtype=float)
        total += f(v) + f(-v)
    return total


def siegel_values(xis, radius: float, budget: int = DEFAULT_BUDGET, oracle_stride: int = 0) -> np.ndarray:
    """Per-sample Siegel transforms of the indicator of the Euclidean ball of the radius.

    xis is an (N, d, d) stack of bases.  For d = 2 a closed form: for
    radius below 1 only integer multiples of the shortest vector fit in
    the ball (two independent vectors would force covolume below 1), so
    the count is 2 floor(radius / lambda_1) per sample, and with
    oracle_stride > 0 every stride-th sample is cross-checked against
    `siegel_transform`.  Otherwise `siegel_transform` of each basis.
    """
    f = RadialStepFunction([(radius, 1.0)], norm="euclidean")
    if xis.shape[1] != 2:
        return np.array([siegel_transform(f, LatticeDescriptor.from_matrix(xi), budget) for xi in xis])
    if radius >= 1.0:
        raise ValueError("closed form requires radius < 1")
    lam1 = np.minimum(np.linalg.norm(xis[:, :, 0], axis=1), np.linalg.norm(xis[:, :, 1], axis=1))
    counts = 2.0 * np.floor(radius / lam1)
    if oracle_stride:
        for i in range(0, len(xis), oracle_stride):
            exact = siegel_transform(f, LatticeDescriptor.from_matrix(xis[i]), budget)
            if abs(exact - counts[i]) > 1e-9:
                raise AssertionError(
                    f"closed-form Siegel count disagrees with enumeration at sample {i}"
                )
    return counts
