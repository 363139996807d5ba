"""Lattice geometry of unimodular lattices g Z^d.

Every quantity here is a function of an LLL-reduced basis B, passed as
a bare (d, d) array (`lll_reduce`, or a row of `lll_reduce_batch`):
the sup-norm shortest vector, the Euclidean successive minima and the
Siegel transform of the indicator of a Euclidean ball, which counts the
nonzero lattice points in the ball.  The height (inverse sup-norm first
minimum) is taken for a whole stack of det-1 bases (`stack_heights`).

Two enumeration engines drive everything exhaustive here:

* `constrained_shortest`: Schnorr-Euchner search (zig-zag around the
  Babai center per level, radius shrinking to the running best, and an
  O(1) skip of the subtree spanned by a coordinate prefix).  This is
  what keeps deep-cusp lattices cheap; a fixed-radius walk would visit
  ~lambda_d^d nodes there.
* `enumerate_ball`: fixed-radius Fincke-Pohst walk yielding every
  lattice vector in a Euclidean ball, used where the full list is the
  point (Siegel transforms, the reduction's candidate columns, sup-norm
  certification).

Budgets are hard errors, never silent truncation.  Sup-norm questions
are certified by the Euclidean ball of radius sqrt(d) times the best sup
length, since ||v||_inf <= ||v||_2 <= sqrt(d) ||v||_inf: `shortest_vector`
enumerates it, and `stack_heights` certifies per row that a fixed
coefficient box holds it, so a certified row of a stack needs no walk.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterator, Optional, Sequence

import numpy as np

from .core import _bezout, _cross, _inv_unimodular
from .errors import BudgetExceededError, PrecisionError, _failure_site, _naming_sample

__all__ = [
    "DEFAULT_BUDGET",
    "lll_reduce",
    "lll_reduce_batch",
    "enumerate_ball",
    "constrained_shortest",
    "shortest_vector",
    "successive_minima",
    "stack_heights",
    "siegel_transform",
    "siegel_values",
]

DEFAULT_BUDGET = 10_000_000

_LLL_DELTA = 0.99
_LLL_MAX_ROUNDS = 10_000


def lll_reduce(basis: np.ndarray):
    """`lll_reduce_batch` of one basis, U as nested Python ints; `perfbench` counts its calls."""
    B, U = lll_reduce_batch(np.asarray(basis, dtype=float)[None], stage=None)
    return B[0], U[0].tolist()


def lll_reduce_batch(bases: np.ndarray, stage: Optional[str] = "LLL", t: Optional[float] = None):
    """Column LLL of every basis of a stack (N, d, d), all rows at once.

    Returns (B, U): the reduced bases, updated in place (the numerically
    stable way), and the transforms as an (N, d, d) int64 stack, so B
    tracks bases @ U; a swap negates one column to keep det U = +1.  The
    Lovasz parameter is _LLL_DELTA.  k, the valid Gram-Schmidt rows and
    the rounds are kept per row, and no number of a row depends on
    another, so a row gets the same bits in any stack.

    Gram-Schmidt rows are computed lazily: row j reads only columns <= j
    of B and rows < j, so a change to column k (a size reduction of k,
    or a swap of k - 1 and k) invalidates rows >= that column only.  Each
    row is then what a full recompute gives, by the same operations in
    the same order (BLAS dot, which a stacked (1, d) @ (d, 1) matmul
    calls once per row, and rounding half to even): the result equals
    the full-recompute algorithm bit for bit.

    A failure names the lowest failing row as a sample of `stage` at flow
    time t (stage None names no site, for a stack of one that its caller
    names): more than _LLL_MAX_ROUNDS rounds (BudgetExceededError), and
    a size-reduction step that is not finite or would take U beyond int64
    (PrecisionError).
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
        # the full-recompute algorithm squares mu as a numpy scalar, `** 2`, which
        # calls libm pow; Python's float pow is that pow, and the digests carry its bits
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

    def at(self, n: int) -> int:
        """The value after n advances from the center's nearest integer."""
        off = (n + 1) // 2
        return self.base + self.sign * off * (1 if n % 2 == 1 else -1)

    def advance(self):
        self.count += 1
        self.value = self.at(self.count)


def constrained_shortest(
    B: np.ndarray,
    span_exclude: int = 0,
    budget: int = DEFAULT_BUDGET,
):
    """Shortest vector outside the span of the first `span_exclude` columns.

    Returns (coefficient tuple, squared length).  With span_exclude = 0
    only the zero vector is excluded.  The walk is Schnorr-Euchner:
    per-level zig-zag around the Babai center (so the per-level cost
    sequence is nondecreasing and a failed value ends the level), with
    the radius shrinking to every new best.  A level-0 walk that cannot
    beat the best has a node count known on entry: where it would pass
    the budget, the BudgetExceededError is raised before it starts.
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

    def refuse_hopeless_level_0(top: float):
        # Every level-0 value costs at least `top` >= best2, so none moves the bound:
        # the zig-zag visits the c0 inside it in order of distance from the center,
        # then one more, and a node at level 1 follows.  So if this level reaches
        # node `budget`, the walk passes the budget.  It does iff the value of node
        # budget - 1 lies inside, tested with the walk's own float expression, which
        # is monotone along the zig-zag while c0 is exact.
        w = walks[0]
        if abs(w.base) + budget - nodes >= 2**53:
            return
        last = w.count + budget - nodes - 2
        if last < w.count or top + (R[0][0] * (w.at(last) - centers[0])) ** 2 <= bound:
            raise BudgetExceededError("shortest-vector search budget exceeded", nodes=budget + 1)

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
                if i == 0 and y >= best2:
                    refuse_hopeless_level_0(y)
        else:
            i += 1
            if i == d:
                return best_c, best2
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


def shortest_vector(B: np.ndarray, budget: int = DEFAULT_BUDGET):
    """Certified shortest nonzero vector in the sup norm of the lattice of LLL basis B.

    Returns (coefficients c with respect to B, length).  Every vector of
    the Euclidean ball of radius sqrt(d) s0 around 0, s0 the least column
    sup-norm of B, is enumerated, and its sup-norm is that of B @ c.
    Tie-break is deterministic: smallest (length, coefficient tuple).  A
    stack's lengths come from `stack_heights` with these bits.  The
    Euclidean first minimum is `successive_minima(B)[0]`.
    """
    d = B.shape[0]
    s0 = float(min(np.abs(B[:, j]).max() for j in range(d)))
    best = None
    for cc in enumerate_ball(B, math.sqrt(d) * s0 * (1 + 1e-12), budget):
        v = B @ np.array(cc, dtype=float)
        ln = float(np.abs(v).max())
        for cand in ((ln, cc), (ln, tuple(-x for x in cc))):
            if best is None or cand < best:
                best = cand
    length, c = best
    return c, length


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


def successive_minima(B: np.ndarray, budget: int = DEFAULT_BUDGET) -> list:
    """Euclidean successive minima [lambda_1, ..., lambda_d] of the lattice of LLL basis B, certified.

    Greedy: the j-th search excludes the span of the j-1 vectors found
    so far by a coordinate change putting them first (for d <= 3 greedy
    realizers always extend to a basis, so the completion exists).
    """
    d = B.shape[0]
    cur = B.copy()
    minima = []
    for j in range(d):
        c, l2 = constrained_shortest(cur, j, budget)
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


#: Half-width of the coefficient box that `stack_heights` scans.
_BOX = 2
#: Rows per block of `stack_heights`' box scan; bounds its memory.
_HEIGHT_ROWS = 256


@functools.cache
def _height_box(d: int, reach: int) -> np.ndarray:
    """The nonzero c with |c_i| <= reach, one per {c, -c} pair (last nonzero entry positive), (K, d)."""
    box = [c for c in itertools.product(range(-reach, reach + 1), repeat=d) if any(c)]
    return np.array([c for c in box if next(x for x in reversed(c) if x) > 0], dtype=float)


def _box_lengths(B: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The least sup-norm over box vectors B c with |B c|_2 <= r (1 + 1e-9), per row of B (N, d, d).

    The Gram matrix B^T B prefilters the box, so only kept vectors are
    formed.  Each is a stacked (d, d) @ (d, 1) matmul, the product
    `shortest_vector` takes as B @ c: the products by entries of c are
    exact, so only the order of the additions can move a bit, and a
    gemm of B with the whole box, or an explicit sum, may add in
    another order on another BLAS.
    """
    box = _height_box(B.shape[-1], _BOX)
    outer = (box[:, :, None] * box[:, None, :]).reshape(box.shape[0], -1)
    gram = np.matmul(B.transpose(0, 2, 1), B).reshape(B.shape[0], -1)
    # einsum, not a BLAS product, which would start BLAS threads for a few microseconds of work
    rows, k = np.nonzero(np.einsum("ni,ki->nk", gram, outer) <= (r * r * (1 + 1e-9))[:, None])
    sup = np.abs(np.matmul(B[rows], box[k][:, :, None])).max(axis=(1, 2))
    first = np.flatnonzero(np.diff(rows, prepend=-1))
    return np.minimum.reduceat(sup, first)


def stack_heights(bases: np.ndarray, budget: int = DEFAULT_BUDGET, t: Optional[float] = None) -> np.ndarray:
    """The height 1 / (sup-norm first minimum) of each det-1 basis of a stack (N, d, d).

    One `lll_reduce_batch` reduces the stack, and each row's length is
    bit for bit the length `shortest_vector` gives its LLL basis.

    Per row, with B its LLL basis, s0 the least column sup-norm of B and
    r = sqrt(d) s0, `shortest_vector` enumerates the ball |B c|_2 <= r.
    Each c in it has |c_i| <= r |row_i B^{-1}|_2 (Fincke-Pohst), so
    where every such span is below _BOX + 1 (1e-9 relative covers the
    rounding) the ball lies in the box |c_i| <= _BOX, and the row's
    length is the least sup-norm over the box vectors in the ball
    (`_box_lengths`): the sup-shortest vector is among them, and every
    other vector there has a sup-norm at least its own.  A row that
    fails the certificate runs `shortest_vector`, so only such rows
    spend budget.  A failure names the sample as a stage "height" at t
    (an LLL failure the lowest failing row).
    """
    B, _ = lll_reduce_batch(bases, stage="height", t=t)
    d = B.shape[-1]
    r = math.sqrt(d) * np.abs(B).max(axis=1).min(axis=1)
    spans = r[:, None] * np.sqrt((_inv_unimodular(B) ** 2).sum(axis=2))
    certified = np.all(spans * (1 + 1e-9) < _BOX + 1, axis=1)
    lengths = np.empty(B.shape[0])
    scan = np.flatnonzero(certified)
    for lo in range(0, scan.size, _HEIGHT_ROWS):
        rows = scan[lo : lo + _HEIGHT_ROWS]
        lengths[rows] = _box_lengths(B[rows], r[rows])
    for i in np.flatnonzero(~certified):
        with _naming_sample("height", int(i), t):
            lengths[i] = shortest_vector(B[i], budget)[1]
    return 1.0 / lengths


def siegel_transform(B: np.ndarray, radius: float, budget: int = DEFAULT_BUDGET) -> float:
    """The Siegel transform of the indicator of the Euclidean ball of the radius, for LLL basis B.

    The number of nonzero lattice vectors in the ball, by exhaustive
    enumeration: twice the number of ± pairs `enumerate_ball` yields.
    """
    return 2.0 * sum(1 for _ in enumerate_ball(B, radius * (1 + 1e-12), budget))


def siegel_values(xis, radius: float, budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """Per-sample Siegel transforms of the indicator of the Euclidean ball of the radius.

    xis is an (N, d, d) stack of det-1 bases.  For d = 2 and a radius
    below 1 a closed form: only integer multiples of the shortest vector
    fit in the ball (two independent vectors would force covolume below
    1), so the count is 2 floor(radius / lambda_1) per sample.
    Otherwise `siegel_transform` of each basis, from one stacked LLL.
    """
    if xis.shape[1] != 2 or radius >= 1.0:
        B, _ = lll_reduce_batch(xis, stage="siegel")
        return np.array([siegel_transform(b, radius, budget) for b in B])
    lam1 = np.minimum(np.linalg.norm(xis[:, :, 0], axis=1), np.linalg.norm(xis[:, :, 1], axis=1))
    return 2.0 * np.floor(radius / lam1)
