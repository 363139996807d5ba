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

One F and one tie rule decide every pick.  `_f_sq` adds F's squares in
a fixed order, so a matrix scores alike in any memory layout.  At d = 2,
where det h = 1 makes F^2 = |h|_F^2 / 2, it is ((h00^2 + h11^2) +
(h01^2 + h10^2)) / 2, which gives h J, h^T, adj h and -h the bits of h:
one score per rotation class is exact for its four members.  At d = 3 it
is AB / (A + B), each sum in row-major order.  Candidates tie where F is
within TIE_TOL of the least, or NaN (`_tied`), and the lexicographically
least of them wins (`_lex_key`, `_lex_first`); a reduction moves only to
an F lower by more than MOVE_MARGIN.

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
   the primal and on the dual basis (`lattices.lll_reduce_batch`, which
   gives a row the same bits in any stack), the one with the smaller F.
2. The pick, and the certificate per row that it is `_search`'s: for
   d = 2 the least rotation B J^r of the seed B, where the identity
   screen below holds; for d = 3 the class sweep (`sweep`), `_search`'s
   rounds over a static table of 4,632 ternary transforms, where the
   table holds every C within `_search`'s Frobenius bound.
3. A row that fails it runs `_search` from its seed: the certified
   successive minima of both sides, then the candidates of
   `_candidates_2d`, or of `_candidates_3d` on both sides, until no
   candidate lowers F, and the lexicographic tie-break.  Each walks
   once the ball of primitive coefficient vectors that holds every
   column under the bound, takes the first column (at d = 3 the first
   two) from it, and completes the basis by lookup in the same ball
   (`_completions`): the c with cofactor . c = +-1, signed to det +1,
   whose |B c|^2 fits the room left in the bound.  The cofactor is
   (-b, a) after a first column (a, b), a x b after columns (a, b).  A
   dual candidate C has det C = 1, so its primal transform C^{-T} is
   the integer cofactor matrix of C.
A larger d has no certified reduction and is refused.  Each float step
is the same numpy operation whatever the surrounding bookkeeping, so a
row gets the same bits in any stack.  Each d = 3 sample passes through
`_reduce_core` with its start; `reduce_batch_2x2` keeps certified d = 2
rows in arrays.

The d = 2 certificate, the identity screen (`_identity_alone`).  With
n_i = |b_i|^2 for the seed B = (b1, b2) and g = (min(n1, n2) - 2 |<b1,
b2>|) / 2 > 0, B is Lagrange-Gauss reduced, so min(n1, n2) = lambda_1^2
(Nguyen and Stehle, ACM TALG 2009), and each det-1 C outside the class
{I, J, -I, -J}, J = [[0, -1], [1, 0]], has F(B C)^2 >= F(B)^2 + g: a
column x b1 + y b2 of B C has x, y != 0 and squared length >= n1 + n2 -
2 |<b1, b2>|, the other >= lambda_1^2, and F^2 = |h|_F^2 / 2.  Where
sqrt(F(B)^2 + g) clears F(B) + TIE_TOL, by relative margins of about
1e-12 for the rounding, no such C ties or lowers F(B), so `_search` from
B ties B J^r, r = 0..3, alone, and its tie-break has a closed form
(`_least_rotation`).  With K = rint(b00 / LEX_GRID) and L = rint(b01 /
LEX_GRID), the keys of B's first row, the first keys of B J^r are K, L,
-K and -L exactly, since the division and rint are odd.  Where |K| !=
|L| one of them is strictly least, and the lexicographic order reads no
other key: r = 0 (b00 < 0) or 2 (b00 > 0) if |K| > |L|, else r = 1 (b01
< 0) or 3 (b01 > 0).  A row the screen leaves, or where |K| = |L|, runs
`_search`.  The certificate is `_search`'s bound, sqrt 2 (F + TIE_TOL) +
BOUND_MARGIN.

The proxy distance from a reduced xi to a base point z,
min over C in SL_d(Z) of |xi C z^{-1} - Id|_F, is defined here once for
d in {2, 3}: `_proxy_distances` over a stack, `x_distance` for one pair.
Within reach each column of C lies in an integer coefficient window, so
the candidates are the det +1 matrices of the windows, scored in blocks.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .core import (
    IntegerMatrix,
    SpecialLinearMatrix,
    _bezout,
    _cross,
    _first_row_det,
    _int_adjugate,
    _int_det,
    _inv_unimodular,
    _renormalized,
    _stack_adjugate,
)
from .errors import DeterminantError, PrecisionError, _in_row
from .lattices import DEFAULT_BUDGET, enumerate_ball, lll_reduce, lll_reduce_batch, successive_minima

__all__ = [
    "ReducedRepresentative",
    "reduce_matrix",
    "factorization_residuals",
    "certify_factorization",
    "iota",
    "x_distance",
    "reduce_batch_2x2",
]

#: Candidates with F within this of the minimum count as ties (`_tied`).
TIE_TOL = 1e-9
#: A reduction moves only to an F lower than its basis's by more than this.
MOVE_MARGIN = 1e-12
#: Rounding grid of the lexicographic tie-break key (`_lex_key`).  Coarse
#: enough that the rounding noise of a product g gamma0 (about 1e-12 on
#: entries near 1e3) does not pick the winner among tied candidates.
LEX_GRID = 1e-9
#: Additive safety margin on enumeration Frobenius bounds.
BOUND_MARGIN = 1e-6
#: Tolerance of the factorization certificate (`factorization_residuals`).
RESIDUAL_TOL = 1e-6


def _f_sq(hs: np.ndarray) -> np.ndarray:
    """F^2 of each matrix of a stack (..., 2, 2) or (N, 3, 3), or of one matrix: the one score of every pick.

    Its sums run in the fixed orders of the module docstring, whatever the
    layout; h^{-1} is `_inv_unimodular`'s.
    """
    q, d = hs * hs, hs.shape[-1]
    if d == 2:
        return ((q[..., 0, 0] + q[..., 1, 1]) + (q[..., 0, 1] + q[..., 1, 0])) / 2.0
    hinv = _inv_unimodular(hs)
    a, b = (sum(x[..., k // d, k % d] for k in range(d * d)) for x in (q, hinv * hinv))  # row-major
    return a * b / (a + b)


def _f_of_stack(hs: np.ndarray) -> np.ndarray:
    """F of each matrix of a stack, or of one matrix: the square root of `_f_sq`."""
    return np.sqrt(_f_sq(hs))


def _tied(fs: np.ndarray, f_min) -> np.ndarray:
    """The tie rule: F within TIE_TOL of the least F, where a NaN ties, so that each group keeps a candidate."""
    return ~(fs > f_min + TIE_TOL)


@dataclass(frozen=True)
class ReducedRepresentative:
    """Result of reducing g to its F-minimal coset representative.

    rep * gamma reproduces the input; `certificate` is the Frobenius
    bound inside which minimality was verified: by the d = 2 identity
    screen, the d = 3 class sweep's certificate or the exhaustive search.
    """

    rep: SpecialLinearMatrix
    gamma: IntegerMatrix
    fvalue: float
    certificate: float


def _require_finite(stack: np.ndarray, what: str) -> None:
    """A PrecisionError(what) unless every entry of a stack (N, ...) is finite, with its lowest such row."""
    if not np.isfinite(stack).all():
        i = int(np.flatnonzero(~np.isfinite(stack.reshape(stack.shape[0], -1)).all(axis=1))[0])
        raise PrecisionError(what, row=i)


def _reduced_matrix(B: np.ndarray) -> SpecialLinearMatrix:
    """A basis derived from a det-1 input, as a SpecialLinearMatrix.

    Its det drifts by rounding only: a failed check is a PrecisionError.
    """
    try:
        return SpecialLinearMatrix.from_entries(B)
    except DeterminantError as exc:
        raise PrecisionError(str(exc)) from exc


def _minima_sq_of(B: np.ndarray, budget: int, reduced: Optional[np.ndarray] = None) -> list:
    """Squared Euclidean successive minima of the lattice spanned by B's columns.

    `reduced`, if given, is the LLL basis of the validated basis
    `SpecialLinearMatrix.from_entries(B).entries`, computed ahead as a row
    of a stack; without it the basis is reduced alone.
    """
    basis = _reduced_matrix(B).entries
    if reduced is None:
        reduced = lll_reduce(basis)[0]
    return [x * x for x in successive_minima(reduced, budget)]


def _ball(B: np.ndarray, radius: float, budget: int):
    """The primitive c with |B c| <= radius, one per +- pair, as int64 rows in ascending |B c|^2, and those |B c|^2."""
    coeffs = np.array(list(enumerate_ball(B, radius, budget, primitive=True)), dtype=np.int64).reshape(-1, B.shape[0])
    vecs = coeffs.astype(float) @ B.T
    qs = (vecs * vecs).sum(axis=1)
    order = np.argsort(qs, kind="stable")
    return coeffs[order], qs[order]


def _completions(coeffs: np.ndarray, qs: np.ndarray, cofactor, room: float) -> np.ndarray:
    """The last columns that complete a basis to det +1, by lookup in `_ball`'s (coeffs, qs).

    cofactor . c is the determinant of the basis that c completes: (-b, a)
    after a first column (a, b), a x b after columns (a, b).  Returns the
    c with cofactor . c = +-1, signed to +1, and |B c|^2 <= room.
    """
    k = int(np.searchsorted(qs, room, side="right"))
    dets = coeffs[:k] @ np.array(cofactor, dtype=np.int64)
    unit = np.abs(dets) == 1
    return coeffs[:k][unit] * dets[unit, None]


def _candidates_2d(B: np.ndarray, boundsq: float, lam1sq: float, budget: int):
    """All integer C with det C = +1 and |B C|_F <= sqrt(boundsq), for d = 2.

    Both columns lie in the ball of radius sqrt(boundsq - lambda_1^2);
    each of its first columns is completed by `_completions`.
    """
    room1 = boundsq - lam1sq
    if room1 <= 0:
        return []
    coeffs, qs = _ball(B, math.sqrt(room1), budget)
    out = []
    for (a, b), q in zip(coeffs.tolist(), qs.tolist()):
        # the first column -(a, b) takes the second column -c
        cs = _completions(coeffs, qs, (-b, a), boundsq - q).tolist()
        out += [((a, x), (b, y)) for x, y in cs]
        out += [((-a, -x), (-b, -y)) for x, y in cs]
    return out


def _candidates_3d(B: np.ndarray, boundsq: float, minima_sq: list, budget: int):
    """All integer C with det C = +1 and |B C|_F <= sqrt(boundsq), for d = 3.

    Every column lies in the ball of radius sqrt(boundsq - lambda_1^2 -
    lambda_2^2).  Ordered pairs of its columns are pruned by the fact that
    the sorted column norms of any basis dominate the successive minima,
    which pins down the cheapest admissible third column; a pair (a, b)
    that survives is completed by `_completions`, with cofactor a x b.
    The four sign combinations of (a, b) share that lookup: det(a, b, c)
    only flips its sign with a or b.
    """
    lam1, lam2, lam3 = minima_sq
    slack = boundsq - (lam1 + lam2 + lam3)
    if slack < -1e-9 * boundsq:
        return []  # any basis carries at least the full minima mass
    room1 = boundsq - lam1 - lam2
    coeffs, qs = _ball(B, math.sqrt(max(room1, 0.0) + 1e-12), budget)
    qlist = qs.tolist()
    cols = coeffs.tolist()

    def feasible(q: float) -> bool:
        # a column of a qualifying basis must sit in one of the minima
        # shells [lambda_j^2, lambda_j^2 + slack]
        for lam in (lam1, lam2, lam3):
            if lam * (1 - 1e-9) <= q <= (lam + slack) * (1 + 1e-9) + 1e-12:
                return True
        return False

    usable = [feasible(q) for q in qlist]
    firsts = [i for i in range(len(cols)) if qlist[i] <= room1 * (1 + 1e-12) and usable[i]]
    out = []
    for i1 in firsts:
        q1 = qlist[i1]
        a = cols[i1]
        room2 = boundsq - q1 - lam1
        # domination: if q1 is small the partner must reach lambda_2
        start = int(np.searchsorted(qs, lam2 * (1 - 1e-9))) if q1 < lam2 * (1 - 1e-9) else 0
        for i2 in range(start, len(cols)):
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
            b = cols[i2]
            n = _cross(a, b)
            if math.gcd(*n) != 1:
                continue
            for c in _completions(coeffs, qs, n, boundsq - q1 - q2).tolist():
                # (+a, +b) and (-a, -b) take c, (+a, -b) and (-a, +b) take -c
                for sa, sb in ((1, 1), (-1, -1), (1, -1), (-1, 1)):
                    out.append(tuple((sa * a[r], sb * b[r], sa * sb * c[r]) for r in range(3)))
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
    would overflow once an entry passes 9.2e9).
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
    certificate).  `start`, if given, is arr's item of `_search_starts`,
    computed ahead for a whole stack; without it the matrix is reduced
    as a stack of one.  A start that carries a certificate is the
    certified pick and is returned as it is; any other runs `_search`
    from its seed, with the seed's primal and dual LLL bases (prim_B,
    dual_B) when the start has them.
    """
    if start is None:
        start = next(_search_starts(np.asarray(arr, dtype=float)[None]))
    best_B, best_U, reduced, certificate = start
    if certificate is not None:
        return best_B, best_U, certificate
    return _search(best_B, best_U, budget, reduced)


def _seed_start(B: np.ndarray, U: np.ndarray) -> tuple:
    """The `start` that runs `_search` from seed B, U its int64 transform, with no LLL done."""
    return B, IntegerMatrix.from_rows(U.tolist()), (None, None), None


def _search_starts(P: np.ndarray):
    """The `start` of `_reduce_core` for each matrix of a stack P (N, d, d).

    A certified row's start is (rep, U, None, certificate), the certified
    pick; any other row's is (seed basis, U, (prim_B, dual_B), None),
    the LLL bases of the seed's primal and dual lattices (each None where
    not yet done) reaching `_minima_sq_of` ready-made.
    Returns an iterator over the samples in order.  Only d in {2, 3} is
    reduced with a certificate, so a larger d is a ValueError, raised
    before any work.

    For d = 2 the whole stack goes through `_reduce_stack_2x2`, and a
    certified row's certificate is the Frobenius bound sqrt(2) F of its
    pick, widened by TIE_TOL and BOUND_MARGIN.  For d = 3 every LLL runs
    once over the whole stack, through `lll_reduce_batch`, which gives a
    row the bits it gets alone: on P, on its duals and on both sides of
    the chosen seed bases.  An LLL or a d = 2 seed failure carries the
    lowest failing row.  For d = 3 the seeds then go through the class
    sweep and its certificate (`sweep`) in blocks of `sweep.ROWS` rows,
    each block when the iterator reaches it, so their memory does not
    grow with N; a certified rep has its zeros as +0.0, as `_search`'s.
    """
    if P.shape[-1] > 3:
        raise ValueError(f"reduction is certified for d in {{2, 3}} only, not d = {P.shape[-1]}")
    if P.shape[-1] == 2:
        B, U, reps, moves, certified = _reduce_stack_2x2(P)
        certificate = np.sqrt(2.0 * _f_sq(reps)) + (math.sqrt(2.0) * TIE_TOL + BOUND_MARGIN)
        return (
            (reps[i], IntegerMatrix.from_rows(moves[i].tolist()), None, float(certificate[i]))
            if certified[i]
            else _seed_start(B[i], U[i])
            for i in range(P.shape[0])
        )
    B0, U0 = lll_reduce_batch(P)
    Bd, Ud = lll_reduce_batch(_inv_unimodular(P).transpose(0, 2, 1))
    seed_B = _inv_unimodular(Bd).transpose(0, 2, 1)
    dual_wins = _f_of_stack(seed_B) < _f_of_stack(B0)
    chosen = np.where(dual_wins[:, None, None], seed_B, B0)
    prim = lll_reduce_batch(_renormalized(chosen)[0])
    dual = lll_reduce_batch(_renormalized(_inv_unimodular(chosen).transpose(0, 2, 1))[0])

    from . import sweep  # imported on first use: a d = 2 run never compiles it

    def block(lo):
        rows = slice(lo, lo + sweep.ROWS)
        h, C, pick = sweep._sweep_3x3(chosen[rows])
        certified, certificate = sweep._sweep_certified(h, C, prim[1][rows], dual[1][rows])
        # h pick is exact on a pick of the identity up to the sign of a zero, which + 0.0 drops
        reps = np.matmul(h, pick.astype(float)) + 0.0
        for k, i in enumerate(range(lo, lo + h.shape[0])):
            if dual_wins[i]:
                best_B, best_U = seed_B[i], IntegerMatrix.from_rows(Ud[i].tolist()).inv().transpose()
            else:
                best_B, best_U = B0[i], IntegerMatrix.from_rows(U0[i].tolist())
            if not certified[k]:
                yield best_B, best_U, (prim[0][i], dual[0][i]), None
                continue
            yield reps[k], best_U @ IntegerMatrix.from_rows((C[k] @ pick[k]).tolist()), None, float(certificate[k])

    return itertools.chain.from_iterable(block(lo) for lo in range(0, P.shape[0], sweep.ROWS))


def _search(best_B: np.ndarray, best_U: IntegerMatrix, budget: int, reduced: tuple):
    """`_reduce_core`'s exact candidate search from its seed basis, for d in {2, 3}.

    Runs until no candidate lowers F by more than MOVE_MARGIN, then breaks
    the ties (`_tied`) lexicographically.  `reduced` holds the LLL bases
    (prim_B, dual_B) of the primal and the dual lattice of the seed for
    `_minima_sq_of`, each None where it is not yet done.  The rep has its
    zeros as +0.0, whichever path certified it.
    """
    d = best_B.shape[0]
    # Successive minima are coset data; compute once per side.
    prim_min_sq = _minima_sq_of(best_B, budget, reduced[0])
    dual_min_sq = _minima_sq_of(_inv_unimodular(best_B).T, budget, reduced[1])

    certificate = 0.0
    while True:
        f_best = float(_f_of_stack(best_B))
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

        hs = best_B @ np.array(unique_cs, dtype=float).reshape(-1, d, d)
        fs = _f_of_stack(hs)
        if unique_cs and fs.min() < f_best - MOVE_MARGIN:
            j = int(fs.argmin())  # the first of the lowest
            best_B, best_U = hs[j], best_U @ IntegerMatrix.from_rows(unique_cs[j])
            continue
        # the tie-break, the identity first as best_B itself, bit-exact
        hs, fs = np.concatenate([best_B[None], hs]), np.concatenate([[f_best], fs])
        ties = np.flatnonzero(_tied(fs, fs.min()))
        k = ties[_lex_first(_lex_key(hs[ties]), [0])[0]]
        if k:
            best_B, best_U = hs[k], best_U @ IntegerMatrix.from_rows(unique_cs[k - 1])
        return best_B + 0.0, best_U, certificate


def _reconstruction_tol(rows: np.ndarray) -> np.ndarray:
    """RESIDUAL_TOL * max(1, max|xi|) per xi, from the entries of a stack as rows (d * d, N)."""
    return RESIDUAL_TOL * np.maximum(1.0, np.abs(rows).max(axis=0))


def factorization_residuals(P: np.ndarray, reps: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """The factorization certificate of P = xi gamma for each row of a batch.

    P, reps (the xi) and gammas are (N, d, d) stacks.  Returns an (N, 2)
    array: the reconstruction residual max|P - xi gamma| over its
    tolerance RESIDUAL_TOL * max(1, max|xi|), and the integrality
    residual max|xi^{-1} P - gamma| over RESIDUAL_TOL.  A row is
    certified when both are at most 1.  The rounding error of xi gamma
    grows with the entries of xi; xi^{-1} P is compared with integers,
    so its tolerance is flat.  xi^{-1} is `_inv_unimodular`'s adjugate
    over determinant.  At d = 2 it and the products are taken on
    C-contiguous rows of entries, far faster on an orbit; d = 3 keeps
    stacked matmuls, faster on one sample.
    """
    if reps.shape[-1] == 3:
        x, gf = reps.reshape(-1, 9).T, gammas.astype(float)
        recon = np.abs(P - reps @ gf).max(axis=(1, 2))
        integ = np.abs(_inv_unimodular(reps) @ P - gf).max(axis=(1, 2))
    else:
        x, p, g = (np.ascontiguousarray(a.reshape(-1, 4).T, dtype=float) for a in (reps, P, gammas))
        rows = ((x[0], x[1]), (x[2], x[3]))
        adj = _int_adjugate(rows)
        det = _first_row_det(rows, adj)
        v = [a / det for row in adj for a in row]
        recon = integ = 0.0
        for i, j in itertools.product((0, 1), (0, 1)):
            recon = np.maximum(recon, np.abs(p[2 * i + j] - (x[2 * i] * g[j] + x[2 * i + 1] * g[2 + j])))
            integ = np.maximum(integ, np.abs(v[2 * i] * p[j] + v[2 * i + 1] * p[2 + j] - g[2 * i + j]))
    ratios = np.empty((reps.shape[0], 2))
    ratios[:, 0] = recon / _reconstruction_tol(x)
    ratios[:, 1] = integ / RESIDUAL_TOL
    return ratios


def certify_factorization(P, reps, gammas) -> None:
    """Raise PrecisionError unless every row passes `factorization_residuals`.

    Reconstruction is checked before integrality, a NaN residual fails,
    and the error carries the worst failing row, its message that row's
    residual and its tolerance.
    """
    ratios = factorization_residuals(P, reps, gammas)
    ratios[np.isnan(ratios)] = np.inf
    for k, kind in enumerate(("reconstruction", "integrality")):
        i = int(ratios[:, k].argmax())
        if ratios[i, k] > 1.0:
            tol = _reconstruction_tol(reps[i].reshape(-1, 1))[0] if k == 0 else RESIDUAL_TOL
            what = f"{kind} residual {ratios[i, k] * tol:.3g} exceeds {tol:.3g}"
            raise PrecisionError(what, row=i)


def _exact_product(arr: np.ndarray, U: IntegerMatrix) -> np.ndarray:
    """arr @ U with each entry rounded once from its exact value (a float is an exact dyadic)."""
    A = [[Fraction(x) for x in row] for row in arr.tolist()]
    d = len(A)
    return np.array([[float(sum(A[i][k] * U.rows[k][j] for k in range(d))) for j in range(d)] for i in range(d)])


def _certified(arr: np.ndarray, rep_arr: np.ndarray, U: IntegerMatrix):
    """(rep, gamma = U^{-1}) after `certify_factorization` of arr = rep gamma, a batch of one."""
    gamma = U.inv()
    rep = _reduced_matrix(rep_arr)
    certify_factorization(arr[None], rep.entries[None], gamma.to_array()[None])
    return rep, gamma


def reduce_matrix(g, budget: int = DEFAULT_BUDGET) -> ReducedRepresentative:
    """Reduce g to the F-minimal representative of its coset.

    Idempotent: if g is already a previous output, the identical array
    comes back with gamma = identity.  A g without det 1 is a
    DeterminantError.  g = rep gamma must pass the factorization
    certificate (`certify_factorization`).  The float steps of a
    reduction lose about eps |g| |U|, so where the certificate fails,
    xi* = g U is rounded once from its exact value and reduced again:
    the representative is that reduction's, and U becomes U U2.  A
    failure then, or any other precision loss in the reduction, is a
    PrecisionError, never a silently degraded result.  A certified
    reduction is returned as it is, with its bits.
    """
    if isinstance(g, SpecialLinearMatrix):
        arr = np.array(g.entries, dtype=float)
    else:
        arr = np.array(g, dtype=float)
        SpecialLinearMatrix.from_entries(arr)  # a bad input is a DeterminantError
    rep_arr, U, certificate = _reduce_core(arr, budget)
    if all(U.rows[i][j] == (1 if i == j else 0) for i in range(U.dim) for j in range(U.dim)):
        rep_arr = arr  # bit-exact idempotence
    try:
        rep, gamma = _certified(arr, rep_arr, U)
    except PrecisionError:
        rep_arr, U2, certificate = _reduce_core(_exact_product(arr, U), budget)
        U = U @ U2
        rep, gamma = _certified(arr, rep_arr, U)
    return ReducedRepresentative(rep, gamma, float(_f_of_stack(rep_arr)), certificate)


def iota(g, budget: int = DEFAULT_BUDGET) -> SpecialLinearMatrix:
    """The fundamental-domain representative of the coset of g."""
    return reduce_matrix(g, budget).rep


# -- the proxy distance to a base point z ------------------------------------

@functools.cache
def _bezout_table(P: int) -> np.ndarray:
    """[p + P, r + P] holds (x, y) with p x + r y = 1 if gcd(p, r) = 1, else (0, 0)."""
    span = range(-P, P + 1)
    return np.array(
        [[_bezout((p, r)) if math.gcd(p, r) == 1 else (0, 0) for r in span] for p in span], dtype=np.int64
    )


def _ragged(counts: np.ndarray):
    """(owner, position) of every item when owner i holds counts[i] items, in order."""
    owner = np.repeat(np.arange(counts.size), counts)
    return owner, np.arange(owner.size) - (np.cumsum(counts) - counts)[owner]


#: Items per block of `_proxy_distances`: first columns at d = 2, where a
#: block peaks near 3 MB at reach 4 (2.3 candidates per first column) and
#: 2^10-2^16 timed alike; candidates at d = 3.
_LOC_BLOCK = 1 << 12


def _line_candidates_2x2(own, pos, lo, hi):
    """(owner, C) of every det +1 C of rows own whose columns lie in their windows [lo, hi], d = 2.

    Item pos of a row is a first column (p, r) of its window; a primitive
    one meets the second columns of det +1 on the line (q0, s0) + k (p, r)
    through a Bezout solution, cut to the second window.
    """
    width = hi[own, 1, 0] - lo[own, 1, 0] + 1
    p, r = lo[own, 0, 0] + pos // width, lo[own, 1, 0] + pos % width
    P = 1 << int(max(np.abs(p).max(), np.abs(r).max())).bit_length()
    x, y = np.moveaxis(_bezout_table(P)[p + P, r + P], 1, 0)
    prim = p * x + r * y == 1
    own, p, r, q0, s0 = own[prim], p[prim], r[prim], -y[prim], x[prim]
    # p s - r q = 1 on (q, s) = (q0, s0) + k (p, r); k is in the second
    # window strictly between the bounds below: half-integers over p or
    # r, never integers, so their floor and ceil are exact; where p or
    # r is 0, they are -inf and +inf or cut every k
    with np.errstate(divide="ignore"):
        bq = (lo[own, 0, 1] - 0.5 - q0) / p, (hi[own, 0, 1] + 0.5 - q0) / p
        bs = (lo[own, 1, 1] - 0.5 - s0) / r, (hi[own, 1, 1] + 0.5 - s0) / r
    left = np.floor(np.maximum(np.minimum(*bq), np.minimum(*bs)))
    right = np.ceil(np.minimum(np.maximum(*bq), np.maximum(*bs)))
    c, pos = _ragged(np.maximum(right - left - 1.0, 0.0).astype(np.int64))
    k = left[c].astype(np.int64) + 1 + pos
    p, r = p[c], r[c]
    return own[c], np.stack([p, q0[c] + k * p, r, s0[c] + k * r], axis=1).reshape(-1, 2, 2)


def _box_candidates_3x3(own, pos, lo, hi):
    """(owner, C) of every det +1 C of rows own whose columns lie in their windows [lo, hi], d = 3.

    Item pos of a row is a point of the product of its three column
    windows, its nine entries the digits of pos; det C is exact in int64.
    """
    base = lo.reshape(-1, 9)[own]
    width = (hi - lo + 1).reshape(-1, 9)[own]
    C = np.empty_like(base)
    for k in range(9):
        pos, C[:, k] = np.divmod(pos, width[:, k])
    C = (C + base).reshape(-1, 3, 3)
    unimodular = _int_det(C.transpose(1, 2, 0)) == 1
    return own[unimodular], C[unimodular]


def _proxy_distances(xis: np.ndarray, z_rep: SpecialLinearMatrix, reach: float) -> np.ndarray:
    """Proxy distances min_C |xi C z^{-1} - Id|_F over C in SL_d(Z), d in {2, 3}, vectorized.

    xis is a stack (N, d, d) of reduced representatives.  Exact wherever
    the distance is at most `reach` = rho; beyond it, a larger value, or
    +inf when no C comes within reach.  With M = xi C z^{-1} - Id,
    xi c_j - z_j = M z_j, so |M|_F <= rho puts each column c_j of C in
    the coefficient window

        |c_ij - (xi^{-1} z_j)_i| <= |row_i xi^{-1}|_2 rho |z_j|_2,

    xi^{-1} = adj xi.  The windows are widened to
    |row_i adj xi| |z_j| (rho + 1e-9) 1.0001: 1e-9 covers det xi's drift
    from 1, the factor the rounding of the windows and of the distance.
    Within reach |xi C|_F <= S = |z|_F (1 + rho) + 1e-9, so rows are
    dropped first where no C can reach: at d = 2 where |xi|_F > S, as xi
    is Frobenius-minimal in its coset (F = |.|_F / sqrt 2); at d = 3
    where F(xi) > S, as xi is F-minimal and F(xi C) <= |xi C|_F; both by
    `_f_sq`, with 1e-9 relative for TIE_TOL and the rounding.  The
    candidates (`_line_candidates_2x2`, `_box_candidates_3x3`) run in
    blocks of rows of about _LOC_BLOCK items, so memory stays flat in N.

    The rounding of every step is fixed, so a test pins the distances
    bit for bit: xi C is the explicit sum of xi[:, :, k] C[k] over k,
    each product rounded before the add (a matmul would fuse them into
    an FMA); the product with z^{-1} is one BLAS call over the rows of a
    block; 1 is subtracted on the diagonal only; the squared Frobenius
    norm adds the entries in row-major order.
    """
    za = z_rep.entries
    d = za.shape[0]
    if d not in (2, 3):
        raise ValueError(f"the proxy distance is computed for d in {{2, 3}} only, not d = {d}")
    S = math.sqrt(float((za * za).sum())) * (1.0 + reach) + 1e-9
    dists = np.full(xis.shape[0], np.inf)
    live = np.flatnonzero(np.sqrt(_f_sq(xis) * (2.0 if d == 2 else 1.0)) <= S * (1 + 1e-9))
    X = xis[live]
    adj = _stack_adjugate(X)
    # window [i, j] bounds entry i of column j
    half = np.sqrt((adj * adj).sum(axis=2))[:, :, None] * np.sqrt((za * za).sum(axis=0))
    half *= (reach + 1e-9) * 1.0001
    centre = adj @ za
    lo = np.ceil(centre - half).astype(np.int64)
    hi = np.floor(centre + half).astype(np.int64)
    # lattice points per column window; the items are first columns at d = 2, candidates at d = 3
    sizes = np.maximum(hi - lo + 1, 0).prod(axis=1)
    items = sizes[:, 0] if d == 2 else sizes.prod(axis=1)
    keep = np.all(sizes > 0, axis=1)
    live, X, lo, hi, items = live[keep], X[keep], lo[keep], hi[keep], items[keep]
    candidates = _line_candidates_2x2 if d == 2 else _box_candidates_3x3
    ends = np.cumsum(items)
    start = 0
    while start < live.size:
        stop = max(start + 1, int(np.searchsorted(ends, ends[start] - items[start] + _LOC_BLOCK, "right")))
        own, pos = _ragged(items[start:stop])
        own, C = candidates(own + start, pos, lo, hi)
        start = stop
        if own.size == 0:
            continue
        C = C.astype(float)
        Xc = X[own]
        H = Xc[:, :, 0, None] * C[:, None, 0, :]
        for k in range(1, d):
            H += Xc[:, :, k, None] * C[:, None, k, :]
        D = (H.reshape(-1, d) @ z_rep.inverse).reshape(-1, d * d)
        D[:, :: d + 1] -= 1.0
        np.multiply(D, D, out=D)
        dsq = D[:, 0] + D[:, 1]
        for k in range(2, d * d):
            dsq += D[:, k]
        # candidates come grouped by row, rows in order
        first = np.flatnonzero(np.diff(own, prepend=-1))
        dists[live[own[first]]] = np.sqrt(np.minimum.reduceat(dsq, first))
    return dists


def x_distance(rep_x, rep_z, max_distance: float = 1.0) -> float:
    """Proxy metric between cosets, d in {2, 3}: `_proxy_distances` of one pair.

    rep_x must be a reduced representative (`reduce_matrix`), as the
    kernel's row prune assumes.  Exact wherever the distance is at most
    `max_distance`; beyond it a larger value, or +inf where no C comes
    within `max_distance`.
    """
    xa = rep_x.entries if isinstance(rep_x, SpecialLinearMatrix) else np.asarray(rep_x, dtype=float)
    z = rep_z if isinstance(rep_z, SpecialLinearMatrix) else SpecialLinearMatrix.from_entries(rep_z)
    return float(_proxy_distances(xa[None], z, max_distance)[0])


# -- the d = 2 seed, pick and certificate ------------------------------------

#: J^r for r = 0..3, J = [[0, -1], [1, 0]]: the move of `_least_rotation`'s pick r.
_J_POWERS = np.array([[[1, 0], [0, 1]], [[0, -1], [1, 0]], [[-1, 0], [0, -1]], [[0, 1], [-1, 0]]], dtype=np.int64)
#: Round cap of the d = 2 Lagrange loop (`_lagrange_2x2`).
_LAGRANGE_ROUNDS = 200


def _identity_alone(Bc: np.ndarray) -> np.ndarray:
    """Rows of Bc (N, 2, 2) the identity screen keeps, by relative margins of about 1e-12; no NaN or inf row."""
    b00, b01, b10, b11 = (Bc[:, i, j] for i in (0, 1) for j in (0, 1))
    fsq = _f_sq(Bc)  # `_search`'s F^2 of B, bit for bit
    g = (np.minimum(b00 * b00 + b10 * b10, b01 * b01 + b11 * b11) - 2.0 * np.abs(b00 * b01 + b10 * b11)) / 2.0
    # the lemma's lower bound on F outside the class does not tie F(B)
    return ~_tied(np.sqrt(fsq * (1.0 - 4e-12) + g) * (1.0 - 1e-12), np.sqrt(fsq))


def _least_rotation(h: np.ndarray):
    """The tie-break's least h J^r of each row of h (N, 2, 2), where the first keys decide: (rots, r, decided).

    The closed form of the module docstring: decided where the first keys
    differ in magnitude; elsewhere r and rots are not the tie-break's.
    rots come by sign flips and column swaps (h J = [[h01, -h00], [h11,
    -h10]], h J^2 = -h), so each is exact, with zeros as +0.0.
    """
    a, b, c, d = (h[:, i, j] for i in (0, 1) for j in (0, 1))
    ka, kb = np.abs(np.rint(a / LEX_GRID)), np.abs(np.rint(b / LEX_GRID))
    by_a = ka > kb
    # the deciding column (x, z) is (a, c) or (b, d), the other (y, w)
    x, z = np.where(by_a, a, b), np.where(by_a, c, d)
    y, w = np.where(by_a, b, a), np.where(by_a, d, c)
    # signed so that x turns negative, and the other column so that det stays
    neg = x < 0
    s0 = np.where(neg, 1.0, -1.0)
    s1 = np.where(by_a, s0, -s0)
    rots = np.stack([x * s0, y * s1, z * s0, w * s1], axis=-1).reshape(h.shape) + 0.0
    return rots, np.where(by_a, 0, 1) + np.where(neg, 0, 2), ka != kb


def _lagrange_2x2(P: np.ndarray):
    """Lagrange reduction of each basis of a stack P (N, 2, 2): (B = P U, U int64).

    A pass swaps the columns, with a sign, where the second is shorter,
    then shears the second by the rounded mu.  A row stops after a pass
    that does neither, or after _LAGRANGE_ROUNDS passes.
    The passes run on eight coordinate arrays, the entries of B and U in
    row-major order, and apply a swap or a shear through `np.where`, so
    an entry it does not touch keeps its bits and its sign of zero.  Each
    pass runs on the whole stack until no row moves: a pass leaves a
    stopped row as it is, so a row keeps the bits it stopped with.  A
    shear k that is NaN, or whose reach |k| max|u_0| + max|u_1| is not
    below 2^62 (`lll_reduce_batch`'s rule), is a PrecisionError before its
    cast to int64, with the lowest such row.  The rows' reach is computed
    only where a stack-wide bound on max|u|, times max|k| + 1 per
    shearing pass, reaches 2^62; there the bound is reset to max|u|.
    """
    N = P.shape[0]
    b = [P[:, i, j].copy() for i in (0, 1) for j in (0, 1)]
    u = [np.full(N, int(i == j), dtype=np.int64) for i in (0, 1) for j in (0, 1)]
    bound = 1.0  # max|u| over the stack is at most this
    for _ in range(_LAGRANGE_ROUNDS):
        n1 = b[0] ** 2 + b[2] ** 2
        n2 = b[1] ** 2 + b[3] ** 2
        swap = n2 < n1
        swapped = swap.any()
        if swapped:
            # columns (c0, c1) -> (c1, -c0)
            for a in (b, u):
                for i in (0, 2):
                    a[i], a[i + 1] = np.where(swap, a[i + 1], a[i]), np.where(swap, -a[i], a[i + 1])
            n1 = np.where(swap, n2, n1)
        k = np.rint((b[0] * b[1] + b[2] * b[3]) / n1)
        shear = k != 0
        sheared = shear.any()
        if sheared:
            bound *= float(np.abs(k).max()) + 1.0
            exact = not (bound < 2.0**62)  # and where a shear is NaN
            if exact:
                reach = np.abs(k) * np.maximum(np.abs(u[0]), np.abs(u[2])) + np.maximum(np.abs(u[1]), np.abs(u[3]))
                # every |u| stays below 2^62, so a row that does not shear passes
                if not (reach < 2.0**62).all():
                    i = int(np.flatnonzero(~(reach < 2.0**62))[0])
                    what = f"Lagrange shear {k[i]:.3g} takes the transform beyond int64"
                    raise PrecisionError(what, row=i)
            kk = k.astype(np.int64)
            for i in (0, 2):
                b[i + 1] = np.where(shear, b[i + 1] - k * b[i], b[i + 1])
                u[i + 1] = u[i + 1] - kk * u[i]
            if exact:
                bound = float(max(np.abs(x).max() for x in u))
        if not (swapped or sheared):
            break
    return np.stack(b, axis=1).reshape(N, 2, 2), np.stack(u, axis=1).reshape(N, 2, 2)


def _reduce_stack_2x2(P: np.ndarray):
    """The seeds and certified picks of a stack P (N, 2, 2): (B, U, reps, moves, certified).

    B = P U is the Lagrange seed, reps = B J^r its least rotation and
    moves = U J^r, certified where the identity screen keeps the row and
    its first keys decide r (the module docstring).  Every stage runs on
    the whole stack, so its memory grows with N.  A NaN or inf entry, or
    a shear past int64, is a PrecisionError with the lowest such row.
    """
    _require_finite(P, "matrix entries are not finite")
    B, U = _lagrange_2x2(P)
    reps, r, decided = _least_rotation(B)
    return B, U, reps, U @ _J_POWERS[r], _identity_alone(B) & decided


def reduce_batch_2x2(P: np.ndarray, budget: int = DEFAULT_BUDGET):
    """Reduce a batch of 2x2 unimodular matrices: (reps (N, 2, 2) float, gammas (N, 2, 2) int64).

    Row for row `_reduce_core`'s bits, with no Python object per certified
    row (`_reduce_stack_2x2`); any other runs `_reduce_core` from its
    Lagrange seed.  A failure there or in the seed carries its row of P.
    Every stage runs on the whole batch, so memory grows with it: the
    orbits pass it blocks of `orbits._BLOCK` rows.
    """
    P = np.asarray(P, dtype=float)
    B, U, reps, moves, certified = _reduce_stack_2x2(P)
    # gamma is the inverse of the det-1 transform, its adjugate; in C order,
    # since a caller's float products with it round by its layout
    gammas = np.ascontiguousarray(_stack_adjugate(moves))
    for i in np.flatnonzero(~certified):
        with _in_row(int(i)):
            rep_arr, Ui, _ = _reduce_core(P[i], budget, _seed_start(B[i], U[i]))
        reps[i] = rep_arr
        gammas[i] = Ui.inv().to_int64()
    return reps, gammas
