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

from .core import SpecialLinearMatrix
from .errors import BudgetExceededError

__all__ = [
    "DEFAULT_BUDGET",
    "LatticeDescriptor",
    "RadialStepFunction",
    "lll_reduce",
    "enumerate_ball",
    "constrained_shortest",
    "shortest_vector",
    "successive_minima",
    "height",
    "dual_basis",
    "siegel_transform",
    "siegel_average_2x2",
]

DEFAULT_BUDGET = 10_000_000

_LLL_DELTA = 0.99


def lll_reduce(basis: np.ndarray, delta: float = _LLL_DELTA, max_rounds: int = 10_000):
    """Column LLL reduction with exact integer transform.

    Returns (B, U): B is the reduced float basis maintained incrementally
    (the numerically stable way to get it) and U is the exact unimodular
    transform as nested Python ints with det +1, so B tracks basis @ U.
    Swaps are swap-with-sign to keep the determinant +1 throughout.

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
        if rounds > max_rounds:
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
        if norms2[k] >= (delta - mu[k, k - 1] ** 2) * norms2[k - 1]:
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
    seed_sq: Optional[float] = None,
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
    R = _qr_positive(B)

    best_c = None
    best2 = math.inf
    for j in range(k, d):
        n2 = float(B[:, j] @ B[:, j])
        if n2 < best2:
            best2 = n2
            best_c = tuple(1 if i == j else 0 for i in range(d))
    if seed_sq is not None and seed_sq < best2:
        best2 = seed_sq
        best_c = None
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
            s += R[i, j] * c[j]
        mu = -s / R[i, i]
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
        y = dist[i + 1] + (R[i, i] * (c[i] - centers[i])) ** 2
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
                if best_c is None:
                    raise BudgetExceededError("no vector found within the seed radius")
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
    R = _qr_positive(B)
    rad2 = radius * radius * (1.0 + 1e-12) + 1e-300
    coeff = [0] * d
    nodes = 0

    def walk(level: int, partial: float) -> Iterator[tuple]:
        nonlocal nodes
        center = 0.0
        for j in range(level + 1, d):
            center -= R[level, j] * coeff[j]
        center /= R[level, level]
        room = rad2 - partial
        if room < 0:
            return
        span = math.sqrt(room) / R[level, level]
        lo = math.ceil(center - span - 1e-12)
        hi = math.floor(center + span + 1e-12)
        cvals = range(lo, hi + 1)
        if primitive and level == 0:
            g = 0
            for j in range(1, d):
                g = math.gcd(g, coeff[j])
            if g == 0:
                cvals = [c for c in (-1, 1) if lo <= c <= hi]
            elif g > 1:
                cvals = [c for c in cvals if math.gcd(c, g) == 1]
        for cval in cvals:
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError("enumeration node budget exceeded", nodes=nodes)
            coeff[level] = cval
            resid = R[level, level] * cval
            for j in range(level + 1, d):
                resid += R[level, j] * coeff[j]
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
    """A unimodular lattice with write-once reduction and minima caches."""

    basis: SpecialLinearMatrix
    _reduced: Optional[tuple] = field(default=None, repr=False)
    _minima: Optional[list] = field(default=None, repr=False)
    _shortest: dict = field(default_factory=dict, repr=False)

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


def shortest_vector(
    L: LatticeDescriptor,
    norm: Literal["sup", "euclidean"] = "sup",
    budget: int = DEFAULT_BUDGET,
):
    """Certified shortest nonzero vector in the given norm.

    Returns (coefficients in the original basis, length).  Tie-break is
    deterministic: smallest (length, coefficient tuple).
    """
    if norm in L._shortest:
        return L._shortest[norm]
    B, U = L.reduced()
    d = L.dim
    if norm == "euclidean":
        c, l2, _ = constrained_shortest(B, 0, budget)
        best = (math.sqrt(l2), c)
        # resolve +-/tie determinism among equal-length vectors
        for cc in enumerate_ball(B, best[0] * (1 + 1e-12), budget):
            v = B @ np.array(cc, dtype=float)
            ln = float(np.linalg.norm(v))
            for cand in ((ln, cc), (ln, tuple(-x for x in cc))):
                if abs(cand[0] - best[0]) <= 1e-12 * max(1.0, best[0]) and cand[1] < best[1]:
                    best = cand
                elif cand[0] < best[0] - 1e-12 * max(1.0, best[0]):
                    best = cand
        length, c = best
    else:
        s0 = float(min(np.abs(B[:, j]).max() for j in range(d)))
        best = None
        for cc in enumerate_ball(B, math.sqrt(d) * s0 * (1 + 1e-12), budget):
            v = B @ np.array(cc, dtype=float)
            ln = float(np.abs(v).max())
            for cand in ((ln, cc), (ln, tuple(-x for x in cc))):
                if best is None or cand < best:
                    best = cand
        length, c = best
    result = (_map_coeff(U, c), length)
    L._shortest[norm] = result
    return result


def _ext_gcd(a: int, b: int):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _complete_to_unimodular(tail: Sequence[int]) -> list:
    """Columns completing a primitive vector to a det +1 integer matrix.

    Supports lengths 1..3 (all this package needs).  Raises if the
    vector is not primitive.
    """
    t = [int(x) for x in tail]
    n = len(t)
    g = 0
    for x in t:
        g = math.gcd(g, abs(x))
    if g != 1:
        raise ValueError("completion requires a primitive vector")
    if n == 1:
        return [[t[0]]]
    if n == 2:
        a, b = t
        gg, u, v = _ext_gcd(a, b)
        if gg < 0:
            u, v = -u, -v
        # det [[a, -v], [b, u]] = a u + b v = 1
        return [[a, -v], [b, u]]
    a, b, c = t
    if a == 0 and b == 0:
        # c = +-1
        return [[0, 1, 0], [0, 0, 1 * c], [c, 0, 0]] if c == 1 else [[0, 1, 0], [0, 0, -1], [-1, 0, 0]]
    g1 = math.gcd(abs(a), abs(b))
    gg, p, q = _ext_gcd(a, b)
    if gg < 0:
        p, q = -p, -q
        gg = -gg
    v2 = [-b // g1, a // g1, 0]
    # third column solves det = 1 via the cross product
    nvec = (
        t[1] * v2[2] - t[2] * v2[1],
        t[2] * v2[0] - t[0] * v2[2],
        t[0] * v2[1] - t[1] * v2[0],
    )
    gn = 0
    for x in nvec:
        gn = math.gcd(gn, abs(x))
    if gn != 1:
        # rare degenerate second column; perturb by the standard basis
        for e in ([1, 0, 0], [0, 1, 0], [0, 0, 1]):
            w = [v2[i] + e[i] for i in range(3)]
            nv = (
                t[1] * w[2] - t[2] * w[1],
                t[2] * w[0] - t[0] * w[2],
                t[0] * w[1] - t[1] * w[0],
            )
            gn = 0
            for x in nv:
                gn = math.gcd(gn, abs(x))
            if gn == 1:
                v2, nvec = w, nv
                break
        else:
            raise ValueError("no unimodular completion found")
    g1_, pp, qq = _ext_gcd(nvec[0], nvec[1])
    g2_, rr, ss = _ext_gcd(g1_, nvec[2])
    if g2_ < 0:
        rr, ss = -rr, -ss
    v3 = [rr * pp, rr * qq, ss]
    return [[t[0], v2[0], v3[0]], [t[1], v2[1], v3[1]], [t[2], v2[2], v3[2]]]


def successive_minima(L: LatticeDescriptor, budget: int = DEFAULT_BUDGET) -> list:
    """Euclidean successive minima [lambda_1, ..., lambda_d], certified.

    Greedy: the j-th search excludes the span of the j-1 vectors found
    so far by a coordinate change putting them first (for d <= 3 greedy
    realizers always extend to a basis, so the completion exists).
    """
    if L._minima is not None:
        return list(L._minima)
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
    L._minima = minima
    return list(minima)


def height(L: LatticeDescriptor, budget: int = DEFAULT_BUDGET) -> float:
    """1 / (sup-norm length of the shortest nonzero vector); always >= 1."""
    _, length = shortest_vector(L, "sup", budget)
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


def siegel_average_2x2(xis, radius: float, budget: int = DEFAULT_BUDGET, oracle_stride: int = 0) -> np.ndarray:
    """Per-sample Siegel transforms of the Euclidean-ball indicator, d = 2.

    xis is an (N, 2, 2) stack of bases.  For radius below 1 only integer
    multiples of the shortest vector fit in the ball (two independent
    vectors would force covolume below 1), so the count is
    2 floor(radius / lambda_1) per sample.  With oracle_stride > 0 every
    stride-th sample is cross-checked against `siegel_transform`.
    """
    if radius >= 1.0:
        raise ValueError("closed form requires radius < 1")
    lam1 = np.minimum(np.linalg.norm(xis[:, :, 0], axis=1), np.linalg.norm(xis[:, :, 1], axis=1))
    counts = 2.0 * np.floor(radius / lam1)
    if oracle_stride:
        f = RadialStepFunction([(radius, 1.0)], norm="euclidean")
        for i in range(0, len(xis), oracle_stride):
            exact = siegel_transform(f, LatticeDescriptor.from_matrix(xis[i]), budget)
            if abs(exact - counts[i]) > 1e-9:
                raise AssertionError(
                    f"closed-form Siegel count disagrees with enumeration at sample {i}"
                )
    return counts
