"""The d = 3 class sweep of `fundamental`'s reduction, and its certificate.

`fundamental._search_starts` sends each block of d = 3 seeds here after
their LLL.  The sweep (`_sweep_3x3`) runs over a static table T: every C
in SL_3(Z) with entries in {-1, 0, 1} or with C^{-T} so, 4,632 matrices
in 193 classes {C S}, S the 24 signed permutation matrices of det 1,
under which F is invariant.  Each round scores one member of every
class, then every member of the classes near the lowest F exactly as
`fundamental._search` scores its candidates, and moves to the lowest F
or breaks the ties by `fundamental._lex_first`: one round of `_search`
with T as its candidates.  So where T holds every C with
F(h C) <= F(h) + TIE_TOL, h the sweep's last basis, the sweep returns
`_search`'s gamma.

The certificate (`_sweep_certified`) proves that per row.  Such a C has
|h C|_F^2 <= b_p or |h^{-T} C^{-T}|_F^2 <= b_d, the bounds of
`fundamental._side_bound_sq`.  On the primal side, each column c of C is
then a primitive lattice vector with |h c|^2 <= b_p - lambda_1^2 -
lambda_2^2, since the other two columns are independent, and |h c|^2
lies in one of the shells [lambda_j^2, lambda_j^2 + b_p - sum_i
lambda_i^2], since the sorted column norms dominate the minima.  If
every such vector has coefficients in {-1, 0, 1} with respect to h, C is
ternary; on the dual side, C^{-T} is.  Both sides are read off a fixed
box of coefficient vectors in LLL bases of the lattice and of its dual:
the squared minima are the greedy minima among the box vectors, and the
box holds the whole ball of each radius used (the third minimum and the
room above) by the Fincke-Pohst ranges |c_i| <= r |e_i^T L^{-1}| of
|L c| <= r.  Margins of 1e-9 relative cover the rounding.  A row that
fails runs `_search` from its seed.

The tables are built on first use, and the module is imported on first
use, so importing the package does neither.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

import numpy as np

from .core import _first_row_det, _int_adjugate, _int_det, _inv_unimodular
from .fundamental import TIE_TOL, _f_of_stack, _lex_first, _lex_key, _side_bound_sq

#: Rows per block of the sweep and its certificate; bounds their memory.
ROWS = 32
#: Half-widths of the coefficient box of `_sweep_certified`, in LLL coordinates.
BOX_REACH = (10, 5, 1)


class _TernaryClasses(NamedTuple):
    """The static table of the d = 3 sweep, one row per class {C S}."""

    variants: np.ndarray  # (193, 24, 3, 3) int8: C S for the 24 S, S = identity first
    identity: int  # the class of the identity matrix
    gram: np.ndarray  # (9, 193): C C^T of the first member, flattened
    cogram: np.ndarray  # (9, 193): C^{-T} C^{-1} of the first member, flattened


class _Box(NamedTuple):
    """Coefficient vectors c with |c_i| <= BOX_REACH[i], one of each pair +-c."""

    vectors: np.ndarray  # (B, 3) int64
    primitive: np.ndarray  # (B,) bool: gcd 1
    parallel: np.ndarray  # (B, B) bool: c x c' = 0
    outer: np.ndarray  # (9, B): c c^T flattened, so (L^T L).ravel() @ outer is |L c|^2


def _adjugates(M: np.ndarray):
    """Exact adjugates (N, 3, 3) and determinants (N,) of an integer stack (N, 3, 3)."""
    rows = M.transpose(1, 2, 0)
    adj = _int_adjugate(rows)
    return np.moveaxis(np.array(adj), -1, 0), _first_row_det(rows, adj)


@functools.cache
def _ternary_classes() -> _TernaryClasses:
    """Every C in SL_3(Z) with entries in {-1, 0, 1} or with C^{-T} so.

    4,632 matrices, in 193 classes {C S} under the 24 signed permutation
    matrices S of det 1, which leave F unchanged.  A class is listed from
    its lexicographically least member.  Built on first use, from the 27
    ternary rows, so that its build moves the peak memory by little.
    """
    rows = np.array(list(itertools.product((-1, 0, 1), repeat=3)), dtype=np.int8)
    cross = np.cross(rows[:, None], rows[None])
    # det of the rows (r_i, r_j, r_k) is (r_j x r_k) . r_i; for det 1 the cofactor matrix is C^{-T}
    j, k, i = np.nonzero(cross @ rows.T == 1)
    unit = np.stack([rows[i], rows[j], rows[k]], axis=1)
    cofactors = np.stack([cross[j, k], cross[k, i], cross[i, j]], axis=1)
    # base-5 codes order the matrices lexicographically
    place = 5 ** np.arange(8, -1, -1, dtype=np.int32)
    codes = np.sort((np.concatenate([unit, cofactors]).reshape(-1, 9) + 2) @ place)
    codes = codes[np.r_[True, codes[1:] != codes[:-1]]]  # np.unique would import numpy.ma
    table = (codes[:, None] // place % 5 - 2).astype(np.int8).reshape(-1, 3, 3)
    signed = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1, -1), repeat=3):
            S = np.zeros((3, 3), dtype=np.int8)
            S[list(perm), [0, 1, 2]] = signs
            if _int_det(S.tolist()) == 1:
                signed.append(S)
    least = codes
    for S in signed:
        least = np.minimum(least, (table @ S + 2).reshape(-1, 9) @ place)
    firsts = table[codes == least]
    variants = firsts[:, None] @ np.array(signed)
    inverses = _adjugates(firsts)[0]
    out = _TernaryClasses(
        variants,
        int(np.argwhere((variants == np.eye(3, dtype=np.int8)).all(axis=(2, 3)))[0, 0]),
        (firsts @ firsts.transpose(0, 2, 1)).reshape(-1, 9).T.astype(float),
        (inverses.transpose(0, 2, 1) @ inverses).reshape(-1, 9).T.astype(float),
    )
    for a in (out.variants, out.gram, out.cogram):
        a.setflags(write=False)
    return out


@functools.cache
def _coefficient_box() -> _Box:
    """The box of `_sweep_certified`, built on first use."""
    vectors = np.array(
        [
            c
            for c in itertools.product(*(range(-k, k + 1) for k in BOX_REACH))
            if any(c) and next(x for x in reversed(c) if x) > 0
        ],
        dtype=np.int64,
    )
    gcds = np.gcd.reduce(vectors, axis=1)
    # with its last nonzero entry positive, c / gcd(c) is the one direction of c and -c
    reach = np.array(BOX_REACH)
    directions = np.ravel_multi_index((vectors // gcds[:, None] + reach).T, 2 * reach + 1)
    out = _Box(
        vectors,
        gcds == 1,
        directions[:, None] == directions[None],
        (vectors[:, :, None] * vectors[:, None, :]).reshape(-1, 9).T.astype(float),
    )
    for a in out:
        a.setflags(write=False)
    return out


def _class_f(h: np.ndarray, table: _TernaryClasses) -> np.ndarray:
    """F of h C for the first member C of every class, for each h of a stack: (R, 193).

    From the Gram matrices: |h C|_F^2 = <h^T h, C C^T> and
    |(h C)^{-1}|_F^2 = <h^{-1} h^{-T}, C^{-T} C^{-1}>.  These differ from
    the stacked F-values by rounding only (at most 3e-13 relative on the
    orbits' bases), so the sweep uses them only to choose which classes
    it scores exactly.
    """
    hinv = _inv_unimodular(h)
    a = (h.transpose(0, 2, 1) @ h).reshape(-1, 9) @ table.gram
    b = (hinv @ hinv.transpose(0, 2, 1)).reshape(-1, 9) @ table.cogram
    return np.sqrt(a * b / (a + b))


def _products(h: np.ndarray, cs: np.ndarray) -> np.ndarray:
    """h_p C for every integer C of cs[p]: (P, 3, 3) and (P, k, 3, 3) give (P, k, 3, 3).

    Every table entry lies in {-2, ..., 2}, so each product h_ij C_jl is
    exact, and the sum runs over j = 0, 1, 2 in turn, the order of numpy's
    3 x 3 matmul: the values of `_score`'s products, up to the sign of a
    zero, which neither an F-value nor a lexicographic key sees.
    """
    c = cs.astype(float)
    out = h[:, None, :, 0, None] * c[:, :, None, 0, :]
    for j in (1, 2):
        out += h[:, None, :, j, None] * c[:, :, None, j, :]
    return out


def _sweep_3x3(seeds: np.ndarray):
    """`_search`'s rounds over the ternary table, for a block of d = 3 seeds (R, 3, 3).

    Returns (h, C, pick): h = seed C, C integer, is the basis of the
    last round, and pick the table entry that its tie-break chose.  A
    round first scores one member
    of every class (`_class_f`), then every member of the classes within
    TIE_TOL of the lowest (and of h's own class) as `_search` scores a
    candidate.  A row moves, by a matmul as in `_search`, to the lowest F
    more than 1e-12 below F(h), the first in table order among equals, and
    sweeps again; otherwise it breaks the ties within TIE_TOL of the
    lowest F by `_lex_first`, h itself among them.
    """
    table = _ternary_classes()
    width = table.variants.shape[1]
    n = seeds.shape[0]
    h = np.array(seeds)
    C = np.broadcast_to(np.eye(3, dtype=np.int64), (n, 3, 3)).copy()
    pick = np.empty_like(C)
    live = np.arange(n)
    while live.size:
        hl = h[live]
        f_h = _f_of_stack(hl)
        approx = _class_f(hl, table)
        # a relative slack far above the Gram values' rounding
        near = approx <= ((np.minimum(f_h, approx.min(axis=1)) + TIE_TOL) * (1.0 + 1e-6))[:, None]
        near[:, table.identity] = True
        row, cls = np.nonzero(near)
        hs = _products(hl[row], table.variants[cls]).reshape(-1, 3, 3)
        fs = _f_of_stack(hs)
        # scored entries in row order, each row's in table order
        owner = np.repeat(row, width)
        starts = np.searchsorted(owner, np.arange(live.size))
        better = np.where(fs < f_h[owner] - 1e-12, fs, np.inf)
        lowest = np.minimum.reduceat(better, starts)
        moves = np.isfinite(lowest)
        at = np.flatnonzero(better == lowest[owner])
        moved = at[np.searchsorted(owner[at], np.flatnonzero(moves))]
        ties = np.flatnonzero(~moves[owner] & (fs <= np.minimum.reduceat(fs, starts)[owner] + TIE_TOL))
        chosen = ties[_lex_first(_lex_key(hs[ties]), np.flatnonzero(np.diff(owner[ties], prepend=-1)))]
        pick[live[owner[chosen]]] = table.variants[cls[chosen // width], chosen % width]
        live = live[owner[moved]]
        step = table.variants[cls[moved // width], moved % width]
        h[live] = np.matmul(h[live], step.astype(float))
        C[live] = C[live] @ step
    return h, C, pick


def _box_minima(L: np.ndarray, box: _Box):
    """|L c|^2 of every box vector c (R, B), and the greedy minima among them (R, 3).

    They are the squared successive minima of L's lattice once the box
    holds every vector of length at most the third (the caller checks).
    """
    q = (L.transpose(0, 2, 1) @ L).reshape(-1, 9) @ box.outer
    rows = np.arange(q.shape[0])
    lam = np.empty((q.shape[0], 3))
    i1 = q.argmin(axis=1)
    lam[:, 0] = q[rows, i1]
    masked = np.where(box.parallel[i1], np.inf, q)
    i2 = masked.argmin(axis=1)
    lam[:, 1] = masked[rows, i2]
    np.copyto(masked, q)
    masked[np.cross(box.vectors[i1], box.vectors[i2]) @ box.vectors.T == 0] = np.inf
    lam[:, 2] = masked.min(axis=1)
    return q, lam


def _sweep_certified(h: np.ndarray, C: np.ndarray, prim_U: np.ndarray, dual_U: np.ndarray):
    """Per row, whether every C' with F(h C') <= F(h) + TIE_TOL is in the ternary table.

    h = seed C for a block of `_sweep_3x3` results; prim_U and dual_U are
    the transforms of the LLL of the seed's lattice and of its dual.  The
    LLL bases are rebuilt from h itself, so that every length below is
    of h's own lattice, whatever the seed's determinant drift.  The
    argument is in the module docstring.  Returns (certified, sqrt of
    the primal Frobenius^2 bound).
    """
    box = _coefficient_box()
    f_max = _f_of_stack(h) + TIE_TOL
    # coefficients with respect to h: h^{-1} L = C^{-1} U, and (h^{-T})^{-1} L' = C^T U'
    back = (_adjugates(C)[0] @ prim_U, C.transpose(0, 2, 1) @ dual_U)
    dual = _inv_unimodular(h).transpose(0, 2, 1)
    bases = (np.matmul(h, back[0].astype(float)), np.matmul(dual, back[1].astype(float)))
    (q_p, lam_p), (q_d, lam_d) = _box_minima(bases[0], box), _box_minima(bases[1], box)
    bound_p = _side_bound_sq(f_max, lam_d.sum(axis=1))
    bound_d = _side_bound_sq(f_max, lam_p.sum(axis=1))
    # so that the integer coefficients stay far inside int64 and exact as floats
    certified = (np.abs(prim_U).max(axis=(1, 2)) < 2**31) & (np.abs(dual_U).max(axis=(1, 2)) < 2**31)
    for L, M, q, lam, bound in zip(bases, back, (q_p, q_d), (lam_p, lam_d), (bound_p, bound_d)):
        slack = bound - lam.sum(axis=1)
        room = bound - lam[:, 0] - lam[:, 1]
        live = slack >= -1e-9 * bound  # else no basis fits under the bound
        radius_sq = np.where(live, np.maximum(room, lam[:, 2]), lam[:, 2])
        # Fincke-Pohst: |L c| <= r gives |c_i| <= r |row i of L^{-1}|
        span_sq = radius_sq[:, None] * (_inv_unimodular(L) ** 2).sum(axis=2) * (1 + 1e-9)
        certified &= (span_sq < (np.array(BOX_REACH) + 1.0) ** 2).all(axis=1)
        shells = np.zeros(q.shape, dtype=bool)
        for j in range(3):
            top = (lam[:, j, None] + slack[:, None]) * (1 + 1e-9) + 1e-12
            shells |= (q >= lam[:, j, None] * (1 - 1e-9)) & (q <= top)
        row, k = np.nonzero(shells & (q <= room[:, None] * (1 + 1e-9) + 1e-12) & box.primitive & live[:, None])
        coeffs = M[row] @ box.vectors[k, :, None]
        certified[row[(np.abs(coeffs) >= 2).any(axis=(1, 2))]] = False
    return certified, np.sqrt(bound_p)
