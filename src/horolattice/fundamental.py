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

For d = 3 every matrix takes the scalar path `_reduce_core`: LLL on
the primal and on the dual basis (the one with the smaller F seeds the
search), certified successive minima of both sides, then the candidate
walks of `_candidates_3d` on both sides, repeated until no candidate
lowers F, and the lexicographic tie-break.  A dual candidate C has
det C = 1, so its primal transform C^{-T} is the integer cofactor matrix
of C.  Floating point enters only through LLL's Gram-Schmidt, the QR of
the enumerations and the F-values; each is computed by the same numpy
operations whatever the surrounding bookkeeping, so outputs are
reproducible bit for bit.

A vectorized fast path `reduce_batch_2x2` reduces a whole batch of
d = 2 matrices.  Its one caller is the signature (1, 1) branch of
`orbits.decompose_batch`, the package's single decomposition entry
point for sample batches; other signatures reach `_reduce_core` one
sample at a time through `orbits.decompose`.  The fast path agrees with
the scalar path and falls back to it sample by sample near the cusp,
where the static candidate table is no longer provably complete.  Its
sweep over the static table scores one candidate per class {C J^r} of
the table, J the quarter turn, since F is invariant under h -> h J; it
runs in fixed blocks of rows, so its memory does not grow with the
batch size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import IntegerMatrix, SpecialLinearMatrix, _int_adjugate
from .errors import PrecisionError, _failure_site, _naming_sample
from .lattices import DEFAULT_BUDGET, LatticeDescriptor, _ext_gcd, enumerate_ball, lll_reduce

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
#: Rounding grid for the lexicographic tie-break.
LEX_GRID = 1e-12
#: Additive safety margin on enumeration Frobenius bounds.
BOUND_MARGIN = 1e-6
#: Tolerance of the factorization certificate (`factorization_residuals`).
RESIDUAL_TOL = 1e-6

#: Batch fast path falls back to the scalar path below this lambda_1.
_BATCH_LAMBDA1_MIN = 0.015


def _inv_unimodular(h: np.ndarray) -> np.ndarray:
    # Python floats are cheaper than numpy scalars and round each product
    # and difference identically.
    d = h.shape[0]
    if d == 2:
        (a, b), (c, e) = h.tolist()
        det = a * e - b * c
        return np.array([[e, -b], [-c, a]]) / det
    if d == 3:
        (a, b, c), (p, q, r), (x, y, z) = h.tolist()
        adj = [
            [q * z - r * y, c * y - b * z, b * r - c * q],
            [r * x - p * z, a * z - c * x, c * p - a * r],
            [p * y - q * x, b * x - a * y, a * q - b * p],
        ]
        det = a * adj[0][0] + b * adj[1][0] + c * adj[2][0]
        return np.array(adj) / det
    return np.linalg.inv(h)


def _f_of_array(h: np.ndarray) -> float:
    a = float((h * h).sum())
    hinv = _inv_unimodular(h)
    b = float((hinv * hinv).sum())
    return math.sqrt(a * b / (a + b))


def F_value(g) -> float:
    """F(g) from the Frobenius masses of g and g^{-1}; symmetric in g <-> g^{-1}."""
    if isinstance(g, SpecialLinearMatrix):
        a = float((g.entries * g.entries).sum())
        b = float((g.inverse * g.inverse).sum())
        return math.sqrt(a * b / (a + b))
    return _f_of_array(np.asarray(g, dtype=float))


@dataclass(frozen=True)
class ReducedRepresentative:
    """Result of reducing g to its F-minimal coset representative.

    rep * gamma reproduces the input; `certificate` is the Frobenius
    enumeration bound inside which minimality was verified, and
    `certified` records whether the exhaustive search ran (d <= 3).
    """

    rep: SpecialLinearMatrix
    gamma: IntegerMatrix
    fvalue: float
    certificate: float
    certified: bool = True


def _minima_sq_of(B: np.ndarray, budget: int) -> list:
    """Squared Euclidean successive minima of the lattice spanned by B's columns."""
    from .lattices import successive_minima

    L = LatticeDescriptor(SpecialLinearMatrix.from_entries(B))
    return [x * x for x in successive_minima(L, budget)]


def _pm(vectors):
    out = []
    for c in vectors:
        out.append(c)
        out.append(tuple(-x for x in c))
    return out


def _gcd_all(xs) -> int:
    g = 0
    for x in xs:
        g = math.gcd(g, abs(x))
    return g


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
        g, u, v = _ext_gcd(a, b)
        if g < 0:
            u, v = -u, -v
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
            n = (
                a[1] * b[2] - a[2] * b[1],
                a[2] * b[0] - a[0] * b[2],
                a[0] * b[1] - a[1] * b[0],
            )
            if n == (0, 0, 0) or _gcd_all(n) != 1:
                continue
            g1, p, q = _ext_gcd(n[0], n[1])
            g2, r, s = _ext_gcd(g1, n[2])
            if g2 == -1:
                r, s = -r, -s
                g2 = 1
            if g2 != 1:
                continue
            c30 = (r * p, r * q, s)
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
                    out.append(
                        (
                            (a[0], b[0], c3[0]),
                            (a[1], b[1], c3[1]),
                            (a[2], b[2], c3[2]),
                        )
                    )
                    out.append(
                        (
                            (-a[0], -b[0], c3[0]),
                            (-a[1], -b[1], c3[1]),
                            (-a[2], -b[2], c3[2]),
                        )
                    )
                    out.append(
                        (
                            (a[0], -b[0], -c3[0]),
                            (a[1], -b[1], -c3[1]),
                            (a[2], -b[2], -c3[2]),
                        )
                    )
                    out.append(
                        (
                            (-a[0], b[0], -c3[0]),
                            (-a[1], b[1], -c3[1]),
                            (-a[2], b[2], -c3[2]),
                        )
                    )
    return out


def _side_bound_sq(fmax: float, other_lower_sq: float) -> float:
    """Frobenius^2 cap for one side given a mass lower bound on the other."""
    cap = 2.0 * fmax * fmax
    fsq = fmax * fmax
    if other_lower_sq > fsq:
        cap = min(cap, fsq * other_lower_sq / (other_lower_sq - fsq))
    root = math.sqrt(cap) + BOUND_MARGIN
    return root * root


def _lex_key(h: np.ndarray):
    return tuple(map(round, (h.ravel() / LEX_GRID).tolist()))


def _reduce_core(arr: np.ndarray, budget: int = DEFAULT_BUDGET):
    """Reduce a raw unimodular array.

    Returns (rep_array, U IntegerMatrix with arr @ U tracking rep,
    fvalue, certificate, certified).
    """
    arr = np.asarray(arr, dtype=float)
    d = arr.shape[0]
    B0, U0_rows = lll_reduce(arr)
    U0 = IntegerMatrix.from_rows(U0_rows)
    best_B, best_U = B0, U0
    if d == 3:
        dual_arr = _inv_unimodular(arr).T
        Bd, Ud_rows = lll_reduce(dual_arr)
        Ud = IntegerMatrix.from_rows(Ud_rows)
        seed_B = _inv_unimodular(Bd).T
        seed_U = Ud.inv().transpose()
        if _f_of_array(seed_B) < _f_of_array(best_B):
            best_B, best_U = seed_B, seed_U
    if d not in (2, 3):
        rep = best_B
        return rep, best_U, _f_of_array(rep), 0.0, False

    # Successive minima are coset data; compute once per side.
    prim_min_sq = _minima_sq_of(best_B, budget)
    dual_min_sq = _minima_sq_of(_inv_unimodular(best_B).T, budget)

    certificate = 0.0
    while True:
        f_best = _f_of_array(best_B)
        f_max = f_best + TIE_TOL
        prim_boundsq = _side_bound_sq(f_max, sum(dual_min_sq))
        certificate = math.sqrt(prim_boundsq)
        if d == 2:
            # |h^{-1}|_F = |h|_F for d = 2, so the primal side sees everything.
            cand_cs = _candidates_2d(best_B, prim_boundsq, prim_min_sq[0], budget)
        else:
            cand_cs = _candidates_3d(best_B, prim_boundsq, prim_min_sq, budget)
            dual_boundsq = _side_bound_sq(f_max, sum(prim_min_sq))
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

        entries = [(f_best, None, best_B)]  # identity candidate, bit-exact
        improved = None
        for rows in unique_cs:
            C = np.array(rows, dtype=float)
            h = best_B @ C
            f_h = _f_of_array(h)
            entries.append((f_h, rows, h))
            if f_h < f_best - 1e-12 and (improved is None or f_h < improved[0]):
                improved = (f_h, rows, h)
        if improved is not None:
            _, rows, h = improved
            best_B = h
            best_U = best_U @ IntegerMatrix.from_rows(rows)
            continue

        f_min = min(e[0] for e in entries)
        ties = [e for e in entries if e[0] <= f_min + TIE_TOL]
        f_pick, rows_pick, h_pick = min(ties, key=lambda e: _lex_key(e[2]))
        if rows_pick is not None:
            best_B = h_pick
            best_U = best_U @ IntegerMatrix.from_rows(rows_pick)
        return best_B, best_U, _f_of_array(best_B), certificate, True


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
    so its tolerance is flat.  For d = 2, xi^{-1} is the adjugate over
    the determinant; other d use `np.linalg.inv`, which moves only the
    last bits of the integrality residual.
    """
    gf = gammas.astype(float)
    if reps.shape[1] == 2:
        a, b, c, e = reps[:, 0, 0], reps[:, 0, 1], reps[:, 1, 0], reps[:, 1, 1]
        inv = np.stack([e, -b, -c, a], axis=-1).reshape(-1, 2, 2) / (a * e - b * c)[:, None, None]
    else:
        inv = np.linalg.inv(reps)
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
    comes back with gamma = identity.  g = rep gamma must pass the
    factorization certificate (`certify_factorization`); a failure is a
    PrecisionError, never a silently degraded result.
    """
    if isinstance(g, SpecialLinearMatrix):
        arr = np.array(g.entries, dtype=float)
    else:
        arr = np.array(g, dtype=float)
    rep_arr, U, fvalue, certificate, certified = _reduce_core(arr, budget)
    if all(U.rows[i][j] == (1 if i == j else 0) for i in range(U.dim) for j in range(U.dim)):
        rep_arr = arr  # bit-exact idempotence
    gamma = U.inv().require_unimodular()
    rep = SpecialLinearMatrix.from_entries(rep_arr)
    certify_factorization(arr[None], rep.entries[None], gamma.to_array()[None], None, None)
    return ReducedRepresentative(rep, gamma, fvalue, certificate, certified)


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
    out.sort(key=_lex_key)
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


# -- vectorized d = 2 fast path ---------------------------------------------

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
_CLASS_OF = np.empty(len(_C_STATIC), dtype=np.intp)
_CLASS_OF[_C_CLASSES] = np.arange(len(_C_CLASSES))[:, None]
#: Takes the class-major (c, r) order of the rotations to table order.
_TABLE_ORDER = np.empty(len(_C_STATIC), dtype=np.intp)
_TABLE_ORDER[_C_CLASSES.ravel()] = np.arange(len(_C_STATIC))
#: Rows 0 and 1 of the class representatives C_c, flattened over (c, l).
_REP_ROW0 = _C_STATIC[_C_CLASSES[:, 0], 0, :].astype(float).ravel()
_REP_ROW1 = _C_STATIC[_C_CLASSES[:, 0], 1, :].astype(float).ravel()
#: Rows per block of the static-candidate sweep; bounds its memory.
_SWEEP_CHUNK = 8192


def _rotations(h: np.ndarray) -> np.ndarray:
    """h J^r for r = 0..3 on a new axis before the matrix axes, zeros as +0.0.

    For h = [[a, b], [c, d]], h J = [[b, -a], [d, -c]] and h J^2 = -h:
    sign flips and column swaps, so every rotation is exact.
    """
    a, b, c, d = h[..., 0, 0], h[..., 0, 1], h[..., 1, 0], h[..., 1, 1]
    rot = np.stack([a, b, c, d, b, -a, d, -c, -a, -b, -c, -d, -b, a, -d, c], axis=-1)
    return rot.reshape(h.shape[:-2] + (4, 2, 2)) + 0.0


def _lex_first(keys: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Per row, the first candidate (along axis 1) with the smallest key tuple."""
    sentinel = np.iinfo(np.int64).max
    for j in range(keys.shape[2]):
        key = np.where(cand, keys[:, :, j], sentinel)
        cand &= key == key.min(axis=1)[:, None]
    return cand.argmax(axis=1)


def _sweep_static(Bc: np.ndarray):
    """F-minimal element of {b C : C in the static table} for each row b.

    Returns (reps, pick): the chosen products and their table indices,
    with the scalar path's tie-break (F within TIE_TOL of the minimum,
    then the smallest lexicographic key, then the first table index).
    F(h) = |h|_F / sqrt(2) does not change under h -> h J, so the 36
    entries fall into 9 classes {C J^r} of equal F, and one
    representative per class is scored.  Every table entry lies in
    {-2, ..., 2}, so each product b_ij C_jl is exact and each nonzero
    entry of b C is one rounding of an exact sum, however the product is
    evaluated.  Only the sign of a zero can depend on the evaluation, so
    every zero is returned as +0.0.  A class's F adds its four squares
    in row-major order.  Where one class lies within TIE_TOL of the
    minimum (almost every row of a random orbit), the lexicographic
    tie-break runs over its four rotations; rows where several classes
    tie run it over all the rotations of the tied classes.
    """
    n = Bc.shape[0]
    # H[n, i, c, l] = (b_n C_c)[i, l] for the class representatives C_c
    H = (Bc[:, :, 0, None] * _REP_ROW0 + Bc[:, :, 1, None] * _REP_ROW1).reshape(n, 2, -1, 2)
    Q = H * H
    F = np.sqrt((((Q[:, 0, :, 0] + Q[:, 0, :, 1]) + Q[:, 1, :, 0]) + Q[:, 1, :, 1]) / 2.0)
    best = F.argmin(axis=1)
    rows = np.arange(n)
    tied = F <= (F[rows, best] + TIE_TOL)[:, None]
    # the four rotations of a nonzero h have distinct keys, so their order is immaterial
    rot = _rotations(H[rows, :, best, :])
    keys = np.rint(rot / LEX_GRID).astype(np.int64).reshape(n, 4, 4)
    r = _lex_first(keys, np.ones((n, 4), dtype=bool))
    reps = rot[rows, r]
    pick = _C_CLASSES[best, r]
    several = np.nonzero(tied.sum(axis=1) > 1)[0]
    if several.size:
        # every rotation of every class, in table order
        allrot = _rotations(H[several].transpose(0, 2, 1, 3)).reshape(-1, 36, 2, 2)[:, _TABLE_ORDER]
        keys = np.rint(allrot / LEX_GRID).astype(np.int64).reshape(-1, 36, 4)
        pick[several] = _lex_first(keys, tied[several][:, _CLASS_OF])
        reps[several] = allrot[np.arange(several.size), pick[several]]
    return reps, pick


def reduce_batch_2x2(
    P: np.ndarray, budget: int = DEFAULT_BUDGET, max_iter: int = 200, t: Optional[float] = None
):
    """Reduce a batch of 2x2 unimodular matrices.

    Returns (reps (N,2,2) float, gammas (N,2,2) int64) matching the
    scalar `reduce_matrix` output (same minimizer, same tie-break).
    After a vectorized Lagrange loop, the static candidate table is
    swept in blocks of _SWEEP_CHUNK rows, so the sweep's memory stays
    flat in N and each row's arithmetic does not depend on the block.
    Samples for which the static candidate table is not provably
    complete (lambda_1 below _BATCH_LAMBDA1_MIN) or the vectorized
    Lagrange loop did not converge are re-run through the scalar path;
    a failure there names the sample and the flow time t, if given.
    """
    P = np.asarray(P, dtype=float)
    N = P.shape[0]
    B = P.copy()
    U = np.zeros((N, 2, 2), dtype=np.int64)
    U[:, 0, 0] = 1
    U[:, 1, 1] = 1
    active = np.ones(N, dtype=bool)
    converged = np.zeros(N, dtype=bool)
    for _ in range(max_iter):
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
        done = ~(swap | shear)
        converged[idx[done]] = True
        active[idx[done]] = False

    lam1sq = np.minimum(
        B[:, 0, 0] ** 2 + B[:, 1, 0] ** 2, B[:, 0, 1] ** 2 + B[:, 1, 1] ** 2
    )
    fallback = (~converged) | (lam1sq < _BATCH_LAMBDA1_MIN**2)

    reps = np.empty_like(B)
    pick = np.empty(N, dtype=np.intp)
    for start in range(0, N, _SWEEP_CHUNK):
        rows = slice(start, start + _SWEEP_CHUNK)
        reps[rows], pick[rows] = _sweep_static(B[rows])

    U_total = U @ _C_STATIC[pick]
    gammas = np.empty_like(U_total)
    gammas[:, 0, 0] = U_total[:, 1, 1]
    gammas[:, 0, 1] = -U_total[:, 0, 1]
    gammas[:, 1, 0] = -U_total[:, 1, 0]
    gammas[:, 1, 1] = U_total[:, 0, 0]

    if fallback.any():
        for i in np.nonzero(fallback)[0]:
            with _naming_sample("decompose", i, t):
                rep_arr, Ui, _, _, _ = _reduce_core(P[i], budget)
            reps[i] = rep_arr
            gammas[i] = np.array(Ui.inv().rows, dtype=np.int64)
    return reps, gammas
