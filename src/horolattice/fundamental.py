"""The explicit fundamental domain: F-values, reduction, and certificates.

A coset g SL_d(Z) is represented by the matrix minimizing

    F(h)^2 = (|h|_F^2 * |h^{-1}|_F^2) / (|h|_F^2 + |h^{-1}|_F^2)

over the coset, with a deterministic lexicographic tie-break.  The
reduction is exact for d in {2, 3} in the following sense: any coset
element h satisfies min(|h|_F^2, |h^{-1}|_F^2) <= 2 F(h)^2, so every
element with F below a threshold appears among the bases of the lattice
(columns of h) or of the dual lattice (columns of h^{-T}) with Frobenius
norm below an explicit bound, and those bases are enumerated
exhaustively.  The enumeration bound is tightened further by the mutual
constraint F^2 = AB/(A+B) against certified lower bounds on the other
side's Frobenius mass (the sum of squared successive minima), which is
what keeps deep-cusp reductions cheap.  Basis columns are primitive, so
the ball walk visits primitive coefficient vectors only; near the cusp
almost every lattice vector in the ball is a multiple k v_1 of the
short vector, and none of those costs budget.

The unimodular transform is accumulated in exact integer arithmetic
throughout, so the returned gamma is exact by construction.  Every
decomposition P = xi gamma, whether by `reduce_matrix` or by the
`orbits` entry points, ends in one factorization certificate,
`factorization_residuals`: xi gamma reproduces P to RESIDUAL_TOL times
max(1, max|xi|), and xi^{-1} P is gamma to RESIDUAL_TOL.
`certify_factorization` raises a PrecisionError on a row that fails it.

Every d in {2, 3} is reduced by one protocol over a stack of matrices;
a single matrix is a stack of one (`_search_starts`, `_reduce_core`).
1. The seed: for d = 2 the vectorized Lagrange loop; for d = 3, LLL on
   the primal and on the dual basis (`lattices.lll_reduce_batch`, each
   row with the bits of `lll_reduce`), the one with the smaller F.
2. The class sweep: `_search`'s rounds with a static table as the
   candidates.  For d = 2 `_sweep_static`, one round over 36 transforms;
   for d = 3 `sweep`, round after round over 4,632 ternary ones.
3. The certificate, per row, that the table holds every C within
   `_search`'s Frobenius bound; then the sweep's gamma is `_search`'s.
4. A row that fails it runs `_search` from its seed: the certified
   successive minima of both sides, then the candidate walks of
   `_candidates_2d`, or of `_candidates_3d` on both sides, until no
   candidate lowers F, and the lexicographic tie-break.  A dual
   candidate C has det C = 1, so its primal transform C^{-T} is the
   integer cofactor matrix of C.
A larger d has no certified reduction and is refused.  Each float step
is the same numpy operation whatever the surrounding bookkeeping, so a
row gets the same bits in any stack.  Each d = 3 sample passes through
`_reduce_core` with its start; `reduce_batch_2x2` keeps certified d = 2
rows in arrays.

The d = 2 certificate (`_sweep_certified_2x2`).  B = (b1, b2) is the
seed, mu = <b1, b2> / |b1|^2 and |b2*|^2 = |b2|^2 - mu <b1, b2>.  F(h)^2
= |h|_F^2 / 2 for d = 2, so each C with F(B C) <= F + TIE_TOL, F the
sweep's pick, has |B C|_F^2 <= bound = (sqrt 2 (F + TIE_TOL) +
BOUND_MARGIN)^2, and each column (x, y) of C is primitive with
|x b1 + y b2|^2 <= room = bound - lambda_1^2.  A Gauss-reduced basis
(|b1| <= |b2|, |mu| <= 1/2) attains both successive minima (Nguyen and
Stehle, ACM TALG 2009), so lambda_1 = |b1|.  As
|x b1 + y b2|^2 = |b1|^2 (x + mu y)^2 + y^2 |b2*|^2, room < 4 |b2*|^2
forces |y| <= 1, and |mu| + sqrt((room - |b2*|^2) / |b1|^2) < 3 forces
|x| <= 2 (x = +-1 if y = 0).  Both columns are then among the table's
{(+-1, 0), (a, +-1) : |a| <= 2}, and so is C.  Margins of 1e-9 relative
cover the rounding.  Gauss reduction is checked on the seed as computed,
so a row that the loop's round cap stopped early fails unless reduced.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    IntegerMatrix,
    SpecialLinearMatrix,
    _bezout,
    _cross,
    _int_adjugate,
    _inv_unimodular,
    _renormalized,
)
from .errors import DeterminantError, PrecisionError, _failure_site, _naming_sample
from .lattices import DEFAULT_BUDGET, LatticeDescriptor, enumerate_ball, lll_reduce_batch

__all__ = [
    "F_value",
    "ReducedRepresentative",
    "reduce_matrix",
    "factorization_residuals",
    "certify_factorization",
    "iota",
    "candidate_bases",
    "matrix_distance",
    "x_distance",
    "reduce_batch_2x2",
]

#: Candidates with F within this of the minimum count as ties.
TIE_TOL = 1e-9
#: Rounding grid of the lexicographic tie-break key (`_lex_key`).
LEX_GRID = 1e-12
#: Additive safety margin on enumeration Frobenius bounds.
BOUND_MARGIN = 1e-6
#: Tolerance of the factorization certificate (`factorization_residuals`).
RESIDUAL_TOL = 1e-6


def _f_of_array(h: np.ndarray) -> float:
    a = float((h * h).sum())
    hinv = _inv_unimodular(h)
    b = float((hinv * hinv).sum())
    return math.sqrt(a * b / (a + b))


def _f_of_stack(hs: np.ndarray) -> np.ndarray:
    """`_f_of_array` of each matrix of a stack (N, d, d), bit for bit.

    Each matrix's sum runs over its entries in memory order, as the sum of
    one matrix of the same layout does.
    """
    a = (hs * hs).sum(axis=(1, 2))
    hinv = _inv_unimodular(hs)
    b = (hinv * hinv).sum(axis=(1, 2))
    return np.sqrt(a * b / (a + b))


def F_value(g) -> float:
    """F(g) from the Frobenius masses of g and g^{-1}; symmetric in g <-> g^{-1}."""
    return _f_of_array(g.entries if isinstance(g, SpecialLinearMatrix) else np.asarray(g, dtype=float))


@dataclass(frozen=True)
class ReducedRepresentative:
    """Result of reducing g to its F-minimal coset representative.

    rep * gamma reproduces the input; `certificate` is the Frobenius
    bound inside which minimality was verified, by the class sweep's
    certificate or by the exhaustive search.
    """

    rep: SpecialLinearMatrix
    gamma: IntegerMatrix
    fvalue: float
    certificate: float


def _reduced_matrix(B: np.ndarray) -> SpecialLinearMatrix:
    """A basis derived from a det-1 input, as a SpecialLinearMatrix.

    Its det drifts by rounding only: a failed check is a PrecisionError.
    """
    try:
        return SpecialLinearMatrix.from_entries(B)
    except DeterminantError as exc:
        raise PrecisionError(str(exc)) from exc


def _minima_sq_of(B: np.ndarray, budget: int, reduced: Optional[tuple] = None) -> list:
    """Squared Euclidean successive minima of the lattice spanned by B's columns.

    `reduced`, if given, is `lll_reduce` of the validated basis
    `SpecialLinearMatrix.from_entries(B).entries`, computed ahead for a stack.
    """
    from .lattices import successive_minima

    L = LatticeDescriptor(_reduced_matrix(B), _reduced=reduced)
    return [x * x for x in successive_minima(L, budget)]


def _pm(vectors):
    out = []
    for c in vectors:
        out.append(c)
        out.append(tuple(-x for x in c))
    return out


def _candidates_2d(B: np.ndarray, boundsq: float, lam1sq: float, budget: int):
    """All integer C with det C = +1 and |B C|_F <= sqrt(boundsq), for d = 2."""
    G = B.T @ B
    room1 = boundsq - lam1sq
    if room1 <= 0:
        return []
    cols = list(enumerate_ball(B, math.sqrt(room1), budget, primitive=True))
    out = []
    for a, b in _pm(cols):
        qc = G[0, 0] * a * a + 2 * G[0, 1] * a * b + G[1, 1] * b * b
        room2 = boundsq - qc
        if room2 < lam1sq * (1 - 1e-9):
            continue
        # particular solution of a*y - b*x = 1 -> second column (x0, y0)
        u, v = _bezout((a, b))
        x0, y0 = -v, u
        # quadratic in the shift k: q(c2_0 + k c1) <= room2
        q0 = G[0, 0] * x0 * x0 + 2 * G[0, 1] * x0 * y0 + G[1, 1] * y0 * y0
        cross = G[0, 0] * a * x0 + G[0, 1] * (a * y0 + b * x0) + G[1, 1] * b * y0
        disc = cross * cross - qc * (q0 - room2)
        if disc < 0:
            continue
        root = math.sqrt(disc)
        lo = math.ceil((-cross - root) / qc - 1e-12)
        hi = math.floor((-cross + root) / qc + 1e-12)
        for k in range(lo, hi + 1):
            out.append(((a, x0 + k * a), (b, y0 + k * b)))
    return out


def _candidates_3d(B: np.ndarray, boundsq: float, minima_sq: list, budget: int):
    """All integer C with det C = +1 and |B C|_F <= sqrt(boundsq), for d = 3.

    Ordered pairs of candidate columns are pruned by the fact that the
    sorted column norms of any basis dominate the successive minima,
    which pins down the cheapest admissible third column; the shifted
    2D enumeration for that column is shared across the four sign
    combinations of the first two (the determinant constraint only
    flips the sign of its solution set).
    """
    import bisect

    lam1, lam2, lam3 = minima_sq
    slack = boundsq - (lam1 + lam2 + lam3)
    if slack < -1e-9 * boundsq:
        return []  # any basis carries at least the full minima mass
    room1 = boundsq - lam1 - lam2
    coeffs = list(
        enumerate_ball(B, math.sqrt(max(room1, 0.0) + 1e-12), budget, primitive=True)
    )
    if not coeffs:
        return []
    carr = np.array(coeffs, dtype=float)
    vecs = carr @ B.T
    qs = (vecs * vecs).sum(axis=1)
    order = np.argsort(qs, kind="stable")
    coeffs = [coeffs[i] for i in order]
    vecs = vecs[order]
    qs = qs[order]
    qlist = qs.tolist()

    def feasible(q: float) -> bool:
        # a column of a qualifying basis must sit in one of the minima
        # shells [lambda_j^2, lambda_j^2 + slack]
        for lam in (lam1, lam2, lam3):
            if lam * (1 - 1e-9) <= q <= (lam + slack) * (1 + 1e-9) + 1e-12:
                return True
        return False

    usable = [feasible(q) for q in qlist]
    firsts = [
        i for i in range(len(coeffs)) if qlist[i] <= room1 * (1 + 1e-12) and usable[i]
    ]
    out = []
    for i1 in firsts:
        q1 = qlist[i1]
        a = coeffs[i1]
        va = vecs[i1]
        room2 = boundsq - q1 - lam1
        # domination: if q1 is small the partner must reach lambda_2
        start = 0
        if q1 < lam2 * (1 - 1e-9):
            start = bisect.bisect_left(qlist, lam2 * (1 - 1e-9))
        for i2 in range(start, len(coeffs)):
            q2 = qlist[i2]
            if q2 > room2 * (1 + 1e-12):
                break
            if not usable[i2]:
                continue
            hi, lo = (q1, q2) if q1 >= q2 else (q2, q1)
            if hi < lam2 * (1 - 1e-9):
                continue
            if hi < lam3 * (1 - 1e-9):
                q3_low = lam3
            elif lo < lam2 * (1 - 1e-9):
                q3_low = lam2
            else:
                q3_low = lam1
            if q1 + q2 + q3_low > boundsq * (1 + 1e-9):
                continue
            b = coeffs[i2]
            n = _cross(a, b)
            if math.gcd(*n) != 1:
                continue
            c30 = _bezout(n)
            room3 = boundsq - q1 - q2
            A3 = q1
            B3 = q2
            vb = vecs[i2]
            v0 = B @ np.array(c30, dtype=float)
            C3 = float(va @ vb)
            u0 = float(v0 @ va)
            w0 = float(v0 @ vb)
            q30 = float(v0 @ v0)
            aa = C3 * C3 - A3 * B3
            bb = C3 * u0 - A3 * w0
            cc = u0 * u0 - A3 * (q30 - room3)
            if aa >= 0:
                continue  # parallel columns; already excluded by n != 0
            disc_t = bb * bb - aa * cc
            if disc_t < 0:
                continue
            root_t = math.sqrt(disc_t)
            t_lo = math.ceil((-bb + root_t) / aa - 1e-12)
            t_hi = math.floor((-bb - root_t) / aa + 1e-12)
            for t in range(t_lo, t_hi + 1):
                b2 = C3 * t + u0
                c2c = B3 * t * t + 2 * w0 * t + q30 - room3
                disc_s = b2 * b2 - A3 * c2c
                if disc_s < 0:
                    continue
                root_s = math.sqrt(disc_s)
                s_lo = math.ceil((-b2 - root_s) / A3 - 1e-12)
                s_hi = math.floor((-b2 + root_s) / A3 + 1e-12)
                for s1 in range(s_lo, s_hi + 1):
                    c3 = (
                        c30[0] + s1 * a[0] + t * b[0],
                        c30[1] + s1 * a[1] + t * b[1],
                        c30[2] + s1 * a[2] + t * b[2],
                    )
                    # det(a, b, c3) = n . c3 = +1; the four sign variants
                    # (+a,+b), (-a,-b) share c3, (+a,-b), (-a,+b) take -c3
                    for sa, sb in ((1, 1), (-1, -1), (1, -1), (-1, 1)):
                        out.append(tuple((sa * a[r], sb * b[r], sa * sb * c3[r]) for r in range(3)))
    return out


def _side_bound_sq(fmax, other_lower_sq):
    """Frobenius^2 cap for one side given a mass lower bound on the other; floats or arrays."""
    fsq = fmax * fmax
    excess = np.subtract(other_lower_sq, fsq)
    with np.errstate(divide="ignore", invalid="ignore"):
        cap = np.minimum(2.0 * fsq, np.where(excess > 0, fsq * other_lower_sq / excess, np.inf))
    root = np.sqrt(cap) + BOUND_MARGIN
    return root * root


def _lex_key(h: np.ndarray) -> np.ndarray:
    """The tie-break key of a matrix, or of each of a stack: (..., d * d).

    The entries in row-major order, rounded to LEX_GRID, as floats (int64
    would overflow once an entry passes 9.2e6).
    """
    return np.rint(h.reshape(h.shape[:-2] + (h.shape[-2] * h.shape[-1],)) / LEX_GRID)


def _lex_first(keys: np.ndarray, starts) -> np.ndarray:
    """The tie-break: per group of rows of keys (M, K), its first lexicographically least row.

    Group g is the rows from starts[g] up to the next start, none empty;
    a NaN key keeps every row of its group.
    """
    starts = np.asarray(starts, dtype=np.intp)
    owner = np.repeat(np.arange(starts.size), np.diff(starts, append=keys.shape[0]))
    least = np.ones(keys.shape[0], dtype=bool)
    for key in keys.T:
        key = np.where(least, key, np.inf)
        least &= ~(key > np.minimum.reduceat(key, starts)[owner])
    first = np.flatnonzero(least)
    return first[np.searchsorted(owner[first], np.arange(starts.size))]


def _reduce_core(arr: np.ndarray, budget: int = DEFAULT_BUDGET, start: Optional[tuple] = None):
    """Reduce a raw unimodular array.

    Returns (rep_array, U IntegerMatrix with arr @ U tracking rep,
    fvalue, certificate).  `start`, if given, is arr's item
    of `_search_starts`, computed ahead for a whole stack; without it
    the matrix is reduced as a stack of one.  A start that carries a
    certificate is the class sweep's certified result and is returned
    as it is; any other runs `_search` from its seed.
    """
    if start is None:
        start = next(_search_starts(np.asarray(arr, dtype=float)[None], None, None))
    best_B, best_U, reduced, certificate = start
    if certificate is not None:
        return best_B, best_U, _f_of_array(best_B), certificate
    return _search(best_B, best_U, budget, reduced)


def _seed_start(B: np.ndarray, U: np.ndarray) -> tuple:
    """The `start` that runs `_search` from seed B, U its int64 transform, with no LLL done."""
    return B, IntegerMatrix.from_rows(U.tolist()), (None, None), None


def _search_starts(P: np.ndarray, t: Optional[float], stage: Optional[str] = "decompose"):
    """The `start` of `_reduce_core` for each matrix of a stack P (N, d, d).

    A certified row's start is (rep, U, None, certificate), the class
    sweep's result; any other row's is (seed basis, U, reductions, None),
    the reductions (None where not yet done) reaching `_minima_sq_of`
    ready-made.  Returns an iterator over the samples in order.  Only
    d in {2, 3} is reduced with a certificate, so a larger d is a
    ValueError, raised before any work.

    For d = 2 the whole stack goes through `_reduce_stack_2x2`.  For
    d = 3 every LLL runs once over the whole stack, through
    `lll_reduce_batch`, which gives each row the bits of `lll_reduce`:
    on P, on its duals and on both sides of the chosen seed bases.  A dual
    seed is the transposed view the scalar path would take, since an
    F-value sums in memory order.  An LLL failure names the lowest
    failing row as a sample of `stage` at t (no site if stage is None).
    For d = 3 the seeds then go through the class sweep and its
    certificate (`sweep`) in blocks of `sweep.ROWS` rows, each block when
    the iterator reaches it, so their memory does not grow with N.
    """
    if P.shape[-1] > 3:
        raise ValueError(f"reduction is certified for d in {{2, 3}} only, not d = {P.shape[-1]}")
    if P.shape[-1] == 2:
        B, U, reps, moves, certified, certificate = _reduce_stack_2x2(P)
        return (
            (reps[i], IntegerMatrix.from_rows(moves[i].tolist()), None, float(certificate[i]))
            if certified[i]
            else _seed_start(B[i], U[i])
            for i in range(P.shape[0])
        )
    B0, U0 = lll_reduce_batch(P, stage=stage, t=t)
    Bd, Ud = lll_reduce_batch(_inv_unimodular(P).transpose(0, 2, 1), stage=stage, t=t)
    seed_B = _inv_unimodular(Bd).transpose(0, 2, 1)
    dual_wins = _f_of_stack(seed_B) < _f_of_stack(B0)
    chosen = np.where(dual_wins[:, None, None], seed_B, B0)
    prim = lll_reduce_batch(_renormalized(chosen)[0], stage=stage, t=t)
    dual = lll_reduce_batch(_renormalized(_inv_unimodular(chosen).transpose(0, 2, 1))[0], stage=stage, t=t)

    from . import sweep  # imported on first use: a d = 2 run never compiles it

    def block(lo):
        rows = slice(lo, lo + sweep.ROWS)
        h, C, pick = sweep._sweep_3x3(chosen[rows])
        certified, certificate = sweep._sweep_certified(h, C, prim[1][rows], dual[1][rows])
        # a pick of the identity keeps h's own bits, as in `_search`
        stays = (pick == np.eye(3, dtype=pick.dtype)).all(axis=(1, 2))
        reps = np.where(stays[:, None, None], h, np.matmul(h, pick.astype(float)))
        unmoved = stays & (C == np.eye(3, dtype=C.dtype)).all(axis=(1, 2))
        for k, i in enumerate(range(lo, lo + h.shape[0])):
            if dual_wins[i]:
                best_B, best_U = seed_B[i], IntegerMatrix.from_rows(Ud[i].tolist()).inv().transpose()
            else:
                best_B, best_U = B0[i], IntegerMatrix.from_rows(U0[i].tolist())
            if not certified[k]:
                yield best_B, best_U, ((prim[0][i], prim[1][i].tolist()), (dual[0][i], dual[1][i].tolist())), None
                continue
            # a seed that the sweep leaves as it is stays its own array, as in `_search`
            rep = best_B if unmoved[k] else reps[k]
            yield rep, best_U @ IntegerMatrix.from_rows((C[k] @ pick[k]).tolist()), None, float(certificate[k])

    return itertools.chain.from_iterable(block(lo) for lo in range(0, P.shape[0], sweep.ROWS))


def _score(best_B: np.ndarray, cs: list):
    """best_B @ C and its F-value for every candidate C of cs, as one stack each.

    Bit for bit the products best_B @ C and `_f_of_array` of each.
    """
    d = best_B.shape[0]
    hs = best_B @ np.array(cs, dtype=float).reshape(-1, d, d)
    return hs, _f_of_stack(hs)


def _search(best_B: np.ndarray, best_U: IntegerMatrix, budget: int, reduced: tuple):
    """`_reduce_core`'s exact candidate search from its seed basis, for d in {2, 3}.

    Runs until no candidate lowers F, then breaks ties lexicographically.
    `reduced` holds the LLL reductions of the primal and the dual lattice
    of the seed for `_minima_sq_of`, each None where it is not yet done.
    """
    d = best_B.shape[0]
    # Successive minima are coset data; compute once per side.
    prim_min_sq = _minima_sq_of(best_B, budget, reduced[0])
    dual_min_sq = _minima_sq_of(_inv_unimodular(best_B).T, budget, reduced[1])

    certificate = 0.0
    while True:
        f_best = _f_of_array(best_B)
        f_max = f_best + TIE_TOL
        prim_boundsq = float(_side_bound_sq(f_max, sum(dual_min_sq)))
        certificate = math.sqrt(prim_boundsq)
        if d == 2:
            # |h^{-1}|_F = |h|_F for d = 2, so the primal side sees everything.
            cand_cs = _candidates_2d(best_B, prim_boundsq, prim_min_sq[0], budget)
        else:
            cand_cs = _candidates_3d(best_B, prim_boundsq, prim_min_sq, budget)
            dual_boundsq = float(_side_bound_sq(f_max, sum(prim_min_sq)))
            dual_B = _inv_unimodular(best_B).T
            # a dual candidate C has det C = +1, so C^{-T} is its cofactor matrix
            for rows in _candidates_3d(dual_B, dual_boundsq, dual_min_sq, budget):
                cand_cs.append(tuple(zip(*_int_adjugate(rows))))
        seen = set()
        unique_cs = []
        ident = tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))
        for rows in cand_cs:
            if rows in seen or rows == ident:
                continue
            seen.add(rows)
            unique_cs.append(rows)

        hs, fs = _score(best_B, unique_cs)
        if unique_cs and fs.min() < f_best - 1e-12:
            j = int(fs.argmin())  # the first of the lowest
            best_B, best_U = hs[j], best_U @ IntegerMatrix.from_rows(unique_cs[j])
            continue
        # the tie-break, the identity first as best_B itself, bit-exact
        hs, fs = np.concatenate([best_B[None], hs]), np.concatenate([[f_best], fs])
        ties = np.flatnonzero(fs <= fs.min() + TIE_TOL)
        k = ties[_lex_first(_lex_key(hs[ties]), [0])[0]]
        if k:
            best_B, best_U = hs[k], best_U @ IntegerMatrix.from_rows(unique_cs[k - 1])
        return best_B, best_U, _f_of_array(best_B), certificate


def _reconstruction_tol(reps: np.ndarray) -> np.ndarray:
    return RESIDUAL_TOL * np.maximum(1.0, np.abs(reps).max(axis=(1, 2)))


def factorization_residuals(P: np.ndarray, reps: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """The factorization certificate of P = xi gamma for each row of a batch.

    P, reps (the xi) and gammas are (N, d, d) stacks.  Returns an (N, 2)
    array: the reconstruction residual max|P - xi gamma| over its
    tolerance RESIDUAL_TOL * max(1, max|xi|), and the integrality
    residual max|xi^{-1} P - gamma| over RESIDUAL_TOL.  A row is
    certified when both are at most 1.  The rounding error of xi gamma
    grows with the entries of xi; xi^{-1} P is compared with integers,
    so its tolerance is flat.  xi^{-1} is `_inv_unimodular`.
    """
    gf = gammas.astype(float)
    inv = _inv_unimodular(reps)
    ratios = np.empty((reps.shape[0], 2))
    ratios[:, 0] = np.abs(P - reps @ gf).max(axis=(1, 2)) / _reconstruction_tol(reps)
    ratios[:, 1] = np.abs(inv @ P - gf).max(axis=(1, 2)) / RESIDUAL_TOL
    return ratios


def certify_factorization(P, reps, gammas, stage: Optional[str], t: Optional[float]) -> None:
    """Raise PrecisionError unless every row passes `factorization_residuals`.

    Reconstruction is checked before integrality, a NaN residual fails,
    and the message gives the worst failing row's residual and its
    tolerance.  With a stage, the message names that row as a sample of
    the stage at flow time t; a caller that certifies one matrix passes
    None and is named by its own caller.
    """
    ratios = factorization_residuals(P, reps, gammas)
    ratios[np.isnan(ratios)] = np.inf
    for k, kind in enumerate(("reconstruction", "integrality")):
        i = int(ratios[:, k].argmax())
        if ratios[i, k] > 1.0:
            tol = _reconstruction_tol(reps[i : i + 1])[0] if k == 0 else RESIDUAL_TOL
            what = f"{kind} residual {ratios[i, k] * tol:.3g} exceeds {tol:.3g}"
            raise PrecisionError(what if stage is None else f"{_failure_site(stage, i, t)}: {what}")


def reduce_matrix(g, budget: int = DEFAULT_BUDGET) -> ReducedRepresentative:
    """Reduce g to the F-minimal representative of its coset.

    Idempotent: if g is already a previous output, the identical array
    comes back with gamma = identity.  A g without det 1 is a
    DeterminantError.  g = rep gamma must pass the factorization
    certificate (`certify_factorization`); a failure, or any other
    precision loss in the reduction, is a PrecisionError, never a
    silently degraded result.
    """
    if isinstance(g, SpecialLinearMatrix):
        arr = np.array(g.entries, dtype=float)
    else:
        arr = np.array(g, dtype=float)
        SpecialLinearMatrix.from_entries(arr)  # a bad input is a DeterminantError
    rep_arr, U, fvalue, certificate = _reduce_core(arr, budget)
    if all(U.rows[i][j] == (1 if i == j else 0) for i in range(U.dim) for j in range(U.dim)):
        rep_arr = arr  # bit-exact idempotence
    gamma = U.inv().require_unimodular()
    rep = _reduced_matrix(rep_arr)
    certify_factorization(arr[None], rep.entries[None], gamma.to_array()[None], None, None)
    return ReducedRepresentative(rep, gamma, fvalue, certificate)


def iota(g, budget: int = DEFAULT_BUDGET) -> SpecialLinearMatrix:
    """The fundamental-domain representative of the coset of g."""
    return reduce_matrix(g, budget).rep


def candidate_bases(L: LatticeDescriptor, frobenius_bound: float, budget: int = DEFAULT_BUDGET):
    """All determinant-1 matrices with columns in the lattice and |.|_F <= bound.

    Complete within the bound; sorted deterministically.  Any
    unimodular matrix has Frobenius norm at least sqrt(d), so small
    bounds legitimately return the empty list.
    """
    if not math.isfinite(frobenius_bound):
        raise ValueError("bound must be finite")
    B, U_rows = L.reduced()
    d = L.dim
    boundsq = frobenius_bound * frobenius_bound
    from .lattices import successive_minima

    minima_sq = [x * x for x in successive_minima(L, budget)]
    if sum(minima_sq) > boundsq * (1 + 1e-12):
        return []
    if d == 2:
        cs = _candidates_2d(B, boundsq, minima_sq[0], budget)
    elif d == 3:
        cs = _candidates_3d(B, boundsq, minima_sq, budget)
    else:
        raise ValueError("candidate enumeration is certified for d in {2, 3} only")
    ident = tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))
    rows_set = {ident}
    rows_set.update(cs)
    out = []
    for rows in rows_set:
        h = B @ np.array(rows, dtype=float)
        if float((h * h).sum()) <= boundsq * (1 + 1e-12):
            out.append(h)
    out.sort(key=lambda h: _lex_key(h).tolist())
    return [SpecialLinearMatrix.from_entries(h) for h in out]


def matrix_distance(g, h) -> float:
    """Proxy metric on the group: |g h^{-1} - Id|_F."""
    ga = g.entries if isinstance(g, SpecialLinearMatrix) else np.asarray(g, dtype=float)
    hi = h.inverse if isinstance(h, SpecialLinearMatrix) else _inv_unimodular(np.asarray(h, dtype=float))
    d = ga.shape[0]
    diff = ga @ hi - np.eye(d)
    return float(np.sqrt((diff * diff).sum()))


def x_distance(rep_x, rep_z, max_distance: float = 1.0, budget: int = DEFAULT_BUDGET) -> float:
    """Proxy metric between cosets: min over candidates of matrix_distance.

    Exact whenever the true distance is below `max_distance` (the
    candidate bound is derived from it); values above `max_distance`
    may be overestimates, which suffices for bump localization.
    """
    xa = rep_x.entries if isinstance(rep_x, SpecialLinearMatrix) else np.asarray(rep_x, dtype=float)
    za = rep_z.entries if isinstance(rep_z, SpecialLinearMatrix) else np.asarray(rep_z, dtype=float)
    z_frob = math.sqrt(float((za * za).sum()))
    bound = z_frob * (1.0 + max_distance) + BOUND_MARGIN
    L = LatticeDescriptor(SpecialLinearMatrix.from_entries(xa))
    best = matrix_distance(xa, za)
    for h in candidate_bases(L, bound, budget):
        dist = matrix_distance(h.entries, za)
        if dist < best:
            best = dist
    return best


# -- the d = 2 seed, sweep and certificate ----------------------------------

def _static_candidates_2x2() -> np.ndarray:
    cols = [(1, 0), (-1, 0)]
    for b in (-1, 1):
        for a in range(-2, 3):
            cols.append((a, b))
    out = []
    for u in cols:
        for v in cols:
            if u[0] * v[1] - u[1] * v[0] == 1:
                out.append(((u[0], v[0]), (u[1], v[1])))
    return np.array(out, dtype=np.int64)


def _rotation_classes(table: np.ndarray) -> np.ndarray:
    """Table indices of C J^r (columns r = 0..3) for each class {C J^r} of the table.

    J = [[0, -1], [1, 0]].  The table is closed under C -> C J, and its
    classes partition it; each row starts at the class's first entry.
    """
    J = np.array([[0, -1], [1, 0]], dtype=table.dtype)
    index = {C.tobytes(): k for k, C in enumerate(table)}
    classes, seen = [], set()
    for k, C in enumerate(table):
        if k in seen:
            continue
        orbit = [k]
        for _ in range(3):
            C = C @ J
            orbit.append(index[C.tobytes()])
        seen.update(orbit)
        classes.append(orbit)
    return np.array(classes, dtype=np.intp)


_C_STATIC = _static_candidates_2x2()
#: _C_CLASSES[c, r] is the table index of C_c J^r, C_c the class's first entry.
_C_CLASSES = _rotation_classes(_C_STATIC)
#: Rows 0 and 1 of the class representatives C_c, flattened over (c, l).
_REP_ROW0 = _C_STATIC[_C_CLASSES[:, 0], 0, :].astype(float).ravel()
_REP_ROW1 = _C_STATIC[_C_CLASSES[:, 0], 1, :].astype(float).ravel()
#: Rows per block of the static-candidate sweep; bounds its memory.
_SWEEP_CHUNK = 8192
#: Round cap of the d = 2 Lagrange loop (`_lagrange_2x2`).
_LAGRANGE_ROUNDS = 200


def _rotations(h: np.ndarray) -> np.ndarray:
    """h J^r for r = 0..3 on a new axis before the matrix axes, zeros as +0.0.

    For h = [[a, b], [c, d]], h J = [[b, -a], [d, -c]] and h J^2 = -h:
    sign flips and column swaps, so every rotation is exact.
    """
    a, b, c, d = h[..., 0, 0], h[..., 0, 1], h[..., 1, 0], h[..., 1, 1]
    rot = np.stack([a, b, c, d, b, -a, d, -c, -a, -b, -c, -d, -b, a, -d, c], axis=-1)
    return rot.reshape(h.shape[:-2] + (4, 2, 2)) + 0.0


def _sweep_static(Bc: np.ndarray):
    """F-minimal element of {b C : C in the static table} for each row b.

    Returns (reps, pick): the chosen products and their table indices,
    with `_search`'s tie-break: F within TIE_TOL of the minimum, then
    `_lex_first`, whose order among the candidates is immaterial, since
    b C and b C' differ by a lattice vector of length at least lambda_1
    in a column where C and C' differ.
    F(h) = |h|_F / sqrt(2) does not change under h -> h J, so the 36
    entries fall into 9 classes {C J^r} of equal F, and one
    representative per class is scored.  Every table entry lies in
    {-2, ..., 2}, so each product b_ij C_jl is exact and each nonzero
    entry of b C is one rounding of an exact sum, however the product is
    evaluated.  Only the sign of a zero can depend on the evaluation, so
    every zero is returned as +0.0.  A class's F adds its four squares
    in row-major order.  The tie-break runs over the four rotations of
    each class within TIE_TOL of the minimum, one class on almost every
    row of a random orbit.
    """
    n = Bc.shape[0]
    # H[n, i, c, l] = (b_n C_c)[i, l] for the class representatives C_c
    H = (Bc[:, :, 0, None] * _REP_ROW0 + Bc[:, :, 1, None] * _REP_ROW1).reshape(n, 2, -1, 2)
    Q = H * H
    F = np.sqrt((((Q[:, 0, :, 0] + Q[:, 0, :, 1]) + Q[:, 1, :, 0]) + Q[:, 1, :, 1]) / 2.0)
    # a row with a NaN ties every class, so that each row has candidates
    tied_row, tied_class = np.nonzero(~(F > (F.min(axis=1) + TIE_TOL)[:, None]))
    # rows of the rotations of each tied class; distinct transforms give distinct keys
    rot = _rotations(H[tied_row, :, tied_class, :]).reshape(-1, 2, 2)
    first = _lex_first(_lex_key(rot), 4 * np.searchsorted(tied_row, np.arange(n)))
    return rot[first], _C_CLASSES[tied_class[first // 4], first % 4]


def _lagrange_2x2(P: np.ndarray):
    """Lagrange reduction of each basis of a stack P (N, 2, 2): (B = P U, U int64).

    A pass swaps the columns, with a sign, where the second is shorter,
    then shears the second by the rounded mu.  A row stops after a pass
    that does neither, or after _LAGRANGE_ROUNDS passes.
    """
    B = P.copy()
    U = np.broadcast_to(np.eye(2, dtype=np.int64), B.shape).copy()
    active = np.ones(P.shape[0], dtype=bool)
    for _ in range(_LAGRANGE_ROUNDS):
        if not active.any():
            break
        idx = np.nonzero(active)[0]
        Ba = B[idx]
        n1 = Ba[:, 0, 0] ** 2 + Ba[:, 1, 0] ** 2
        n2 = Ba[:, 0, 1] ** 2 + Ba[:, 1, 1] ** 2
        swap = n2 < n1
        if swap.any():
            sidx = idx[swap]
            c0 = B[sidx, :, 0].copy()
            B[sidx, :, 0] = B[sidx, :, 1]
            B[sidx, :, 1] = -c0
            u0 = U[sidx, :, 0].copy()
            U[sidx, :, 0] = U[sidx, :, 1]
            U[sidx, :, 1] = -u0
            Ba = B[idx]
            n1 = Ba[:, 0, 0] ** 2 + Ba[:, 1, 0] ** 2
        dot = Ba[:, 0, 0] * Ba[:, 0, 1] + Ba[:, 1, 0] * Ba[:, 1, 1]
        k = np.rint(dot / n1)
        shear = k != 0
        if shear.any():
            hidx = idx[shear]
            kk = k[shear]
            B[hidx, :, 1] -= kk[:, None] * B[hidx, :, 0]
            U[hidx, :, 1] -= kk.astype(np.int64)[:, None] * U[hidx, :, 0]
        active[idx[~(swap | shear)]] = False
    return B, U


def _sweep_certified_2x2(B: np.ndarray, reps: np.ndarray):
    """Per seed of B, whether the table holds every C `_search` could pick; reps are the sweep's.

    The argument is in the module docstring.  Returns (certified, sqrt(bound)).
    """
    b00, b01, b10, b11 = B.reshape(-1, 4).T.copy()
    n1, n2, dot = b00 * b00 + b10 * b10, b01 * b01 + b11 * b11, b00 * b01 + b10 * b11
    mu = dot / n1
    perp = (n2 - dot * mu) * (1 - 1e-9)
    # sqrt 2 (F + TIE_TOL) + BOUND_MARGIN, as F = |rep|_F / sqrt 2
    root = np.sqrt((reps * reps).sum(axis=(1, 2))) + (math.sqrt(2.0) * TIE_TOL + BOUND_MARGIN)
    room = (root * root - n1 * (1 - 1e-9)) * (1 + 1e-9)
    reach = (np.abs(mu) + np.sqrt(np.maximum(room - perp, 0.0) / n1)) * (1 + 1e-9)
    return (n1 <= n2) & (np.abs(mu) <= 0.5) & (room < 4.0 * perp) & (reach < 3.0), root


def _reduce_stack_2x2(P: np.ndarray):
    """Seeds B = P U, picks reps = B C, moves = U C and the certificate of a stack P (N, 2, 2).

    The sweep runs in blocks of _SWEEP_CHUNK rows, so its memory stays
    flat in N.
    """
    B, U = _lagrange_2x2(P)
    reps = np.empty_like(B)
    pick = np.empty(P.shape[0], dtype=np.intp)
    for lo in range(0, P.shape[0], _SWEEP_CHUNK):
        rows = slice(lo, lo + _SWEEP_CHUNK)
        reps[rows], pick[rows] = _sweep_static(B[rows])
    certified, certificate = _sweep_certified_2x2(B, reps)
    return B, U, reps, U @ _C_STATIC[pick], certified, certificate


def reduce_batch_2x2(P: np.ndarray, budget: int = DEFAULT_BUDGET, t: Optional[float] = None):
    """Reduce a batch of 2x2 unimodular matrices: (reps (N, 2, 2) float, gammas (N, 2, 2) int64).

    Row for row `_reduce_core`'s bits, with no Python object per certified
    row; a row that fails the certificate runs `_reduce_core` from its
    seed, and a failure there names the sample and the flow time t.
    """
    P = np.asarray(P, dtype=float)
    B, U, reps, moves, certified, _ = _reduce_stack_2x2(P)
    # gamma is the inverse of the det-1 transform, its adjugate; in C order,
    # since a caller's float products with it round by its layout
    gammas = np.ascontiguousarray(np.moveaxis(np.array(_int_adjugate(moves.transpose(1, 2, 0))), -1, 0))
    for i in np.flatnonzero(~certified):
        with _naming_sample("decompose", i, t):
            rep_arr, Ui, *_ = _reduce_core(P[i], budget, _seed_start(B[i], U[i]))
        reps[i] = rep_arr
        gammas[i] = Ui.inv().to_int64()
    return reps, gammas
