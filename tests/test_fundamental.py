import bisect
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from horolattice import fundamental, orbits, sweep
from horolattice.core import (
    AffineLatticePoint,
    IntegerMatrix,
    SpecialLinearMatrix,
    SplittingSignature,
    TorusPoint,
    _bezout,
    _cross,
    _int_det,
    _stack_adjugate,
    diagonal_flow_vector,
)
from horolattice.errors import BudgetExceededError, DeterminantError, PrecisionError
from horolattice.fundamental import (
    iota,
    reduce_batch_2x2,
    reduce_matrix,
    x_distance,
    _f_of_stack,
    _lex_first,
    _lex_key,
    _tied,
)
from horolattice.lattices import DEFAULT_BUDGET, enumerate_ball, lll_reduce


def sl2z_box(X):
    def ext(x, y):
        old_r, r = x, y
        old_s, s = 1, 0
        old_t, t = 0, 1
        while r:
            q = old_r // r
            old_r, r = r, old_r - q * r
            old_s, s = s, old_s - q * s
            old_t, t = t, old_t - q * t
        return old_r, old_s, old_t

    mats = []
    for a in range(-X, X + 1):
        for c in range(-X, X + 1):
            if (a, c) == (0, 0) or math.gcd(abs(a), abs(c)) != 1:
                continue
            g, p, q = ext(a, c)
            if g < 0:
                g, p, q = -g, -p, -q
            d0, b0 = p, -q
            lo, hi = -(10**9), 10**9
            ok = True
            for w0, w in ((b0, a), (d0, c)):
                if w == 0:
                    if abs(w0) > X:
                        ok = False
                else:
                    l0, h0 = (-X - w0) / w, (X - w0) / w
                    if l0 > h0:
                        l0, h0 = h0, l0
                    lo = max(lo, math.ceil(l0 - 1e-9))
                    hi = min(hi, math.floor(h0 + 1e-9))
            if not ok:
                continue
            for k in range(lo, hi + 1):
                mats.append(((a, b0 + k * a), (c, d0 + k * c)))
    return np.array(mats, dtype=float)


BOX20 = sl2z_box(20)


def brute_reduce_2d(g, box=BOX20):
    """The F-minimal g C over the box, scored and tie-broken by the shared rule."""
    H = np.einsum("ij,kjl->kil", g, box)
    F = _f_of_stack(H)
    fmin = float(F.min())
    ties = np.flatnonzero(_tied(F, fmin))
    pick = ties[_lex_first(_lex_key(H[ties]), [0])[0]]
    return H[pick], fmin


def random_word(rng, budget=4.0):
    g = np.eye(2)
    left = budget
    for _ in range(int(rng.integers(1, 4))):
        t = rng.uniform(0, left)
        left -= t
        S = (
            np.array([[1.0, rng.uniform(-2, 2)], [0.0, 1.0]])
            if rng.integers(0, 2)
            else np.array([[1.0, 0.0], [rng.uniform(-2, 2), 1.0]])
        )
        g = g @ np.diag([math.exp(t), math.exp(-t)]) @ S
    return g


def test_F_value_identity():
    assert _f_of_stack(np.eye(2)) == pytest.approx(1.0)
    assert _f_of_stack(np.eye(3)) == pytest.approx(math.sqrt(1.5))


def test_F_value_inverse_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = SpecialLinearMatrix.from_entries(random_word(rng))
        assert _f_of_stack(g.entries) == pytest.approx(_f_of_stack(g.inv().entries), rel=1e-12)


def test_reduce_integer_input_gives_signed_permutation():
    for d, gamma in ((2, [[2, 1], [1, 1]]), (3, [[1, 2, 0], [0, 1, 3], [0, 0, 1]])):
        r = reduce_matrix(np.array(gamma, dtype=float))
        assert r.fvalue == pytest.approx(math.sqrt(d / 2.0))
        rep = r.rep.entries
        assert np.abs(np.abs(rep) - np.rint(np.abs(rep))).max() < 1e-9
        assert sorted(np.abs(rep).sum(axis=0).tolist()) == [1.0] * d


def test_reduce_diagonal_matches_brute_force():
    g = np.diag([2.0, 0.5])
    r = reduce_matrix(g)
    hb, fb = brute_reduce_2d(g)
    assert r.fvalue == pytest.approx(fb, abs=1e-12)
    assert np.abs(r.rep.entries - hb).max() < 1e-9
    # the coset element is trivial up to sign: gamma in {Id, -Id}
    assert r.gamma.rows in (((1, 0), (0, 1)), ((-1, 0), (0, -1)))


def test_reduce_shear_example():
    r = reduce_matrix([[1.0, 7.3], [0.0, 1.0]])
    rep = np.abs(r.rep.entries)
    assert rep.max() == pytest.approx(1.0)
    assert sorted(rep.ravel().tolist())[0] == pytest.approx(0.0)
    assert sorted(rep.ravel().tolist())[1] == pytest.approx(0.3)
    # gamma undoes a shear by 7 (up to overall sign)
    assert abs(r.gamma.rows[0][1]) == 7


def test_reduce_idempotent_bit_exact():
    rng = np.random.default_rng(1)
    for _ in range(20):
        r = reduce_matrix(random_word(rng))
        r2 = reduce_matrix(r.rep)
        assert r2.gamma.rows == IntegerMatrix.identity(2).rows
        assert np.array_equal(r2.rep.entries, r.rep.entries)


def test_reduce_gamma_invariance_exact():
    rng = np.random.default_rng(2)
    for _ in range(40):
        g = random_word(rng)
        r = reduce_matrix(g)
        scale = max(1.0, np.abs(r.rep.entries).max(), np.abs(r.rep.inverse).max())
        for _ in range(3):
            rows = np.eye(2, dtype=object)
            for _ in range(int(rng.integers(1, 4))):
                k = int(rng.integers(-3, 4))
                E = (
                    np.array([[1, k], [0, 1]], dtype=object)
                    if rng.integers(0, 2)
                    else np.array([[1, 0], [k, 1]], dtype=object)
                )
                rows = rows @ E
            gam0 = IntegerMatrix.from_rows(rows.tolist())
            r2 = reduce_matrix(g @ gam0.to_array())
            assert r2.gamma.rows == (r.gamma @ gam0).rows
            assert np.abs(r2.rep.entries - r.rep.entries).max() <= 1e-8 * scale


# Cases 86 and 334 of criterion 04 (its RNG at _SEED + 4): g and the gamma0 whose
# product g gamma0 broke gamma- and rep-invariance (86) or the certificate (334)
_CRITERION_04_CASES = {
    "case-86": (
        [["0x1.7203938addd32p+8", "0x0.0p+0"], ["-0x1.60b6a1bdf8450p-10", "0x1.623c3ae77c933p-9"]],
        ((-5, 3), (-2, 1)),
    ),
    "case-334": (
        [["0x1.63fddab7c31adp+8", "0x1.19e04ef26212ap+9"], ["0x1.a1a54750cfcd4p+5", "0x1.4ab49734216e5p+6"]],
        ((-2, -5), (-3, -8)),
    ),
}


@pytest.mark.parametrize("case", sorted(_CRITERION_04_CASES))
def test_reduction_is_invariant_on_criterion_04_cases(case):
    # 86: the candidates g gamma0 C tie in F within TIE_TOL, and entry (0, 1) is 0
    # for g but 9.1e-13 for the rounded product, which a 1e-12 tie-break grid saw.
    # 334: |P| ~ 6e3 and |gamma| ~ 5e3, so the float steps lose more than the
    # certificate allows; the exact recompute of xi* = P U corrects the row.
    rows, gamma0 = _CRITERION_04_CASES[case]
    g = np.array([[float.fromhex(x) for x in row] for row in rows])
    gam0 = IntegerMatrix.from_rows(gamma0)
    r = reduce_matrix(g)
    P = g @ gam0.to_array()
    r2 = reduce_matrix(P)
    assert r2.gamma.rows == (r.gamma @ gam0).rows
    assert np.abs(r2.rep.entries - r.rep.entries).max() <= 1e-8 * max(1.0, np.abs(r.rep.entries).max())
    assert (fundamental.factorization_residuals(P[None], r2.rep.entries[None], r2.gamma.to_array()[None]) <= 1.0).all()


def test_reduce_matches_brute_force_random():
    rng = np.random.default_rng(3)
    for _ in range(40):
        g = random_word(rng, budget=3.0)
        r = reduce_matrix(g)
        hb, fb = brute_reduce_2d(g)
        assert r.fvalue <= fb + 1e-9
        if fb <= r.fvalue + 1e-9:
            assert np.abs(r.rep.entries - hb).max() < 1e-8


def test_reduce_d3_never_worse_than_word_box():
    gens = []
    for (i, j) in [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]:
        for k in (1, -1):
            E = np.eye(3, dtype=np.int64)
            E[i, j] = k
            gens.append(E)
    seen = {tuple(np.eye(3, dtype=np.int64).ravel())}
    frontier = [np.eye(3, dtype=np.int64)]
    for _ in range(5):
        new = []
        for M in frontier:
            for G in gens:
                P = M @ G
                if np.abs(P).max() > 3:
                    continue
                key = tuple(P.ravel())
                if key not in seen:
                    seen.add(key)
                    new.append(P)
        frontier = new
    box = np.array([np.array(k).reshape(3, 3) for k in seen], dtype=float)
    rng = np.random.default_rng(4)
    for _ in range(15):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] *= -1
        t1, t2 = rng.uniform(-0.7, 0.7, 2)
        S = np.eye(3)
        S[0, 1], S[0, 2], S[1, 2] = rng.uniform(-1.5, 1.5, 3)
        g = q @ np.diag([math.exp(t1), math.exp(t2), math.exp(-t1 - t2)]) @ S
        r = reduce_matrix(g)
        H = np.einsum("ij,kjl->kil", g, box)
        A = (H * H).sum(axis=(1, 2))
        Hinv = np.linalg.inv(H)
        B = (Hinv * Hinv).sum(axis=(1, 2))
        fb = float(np.sqrt(A * B / (A + B)).min())
        assert r.fvalue <= fb + 1e-9


def test_precision_loss_in_the_reduction_is_a_precision_error():
    # deep-cusp d = 3 inputs that all have det 1: the reduced bases drift from
    # det 1 by rounding only, which is precision loss, never a bad input
    rng = np.random.default_rng(1)
    eps = 1e-6
    failed = 0
    for _ in range(60):
        R = np.eye(3) + 0.3 * rng.normal(size=(3, 3))
        if np.linalg.det(R) < 0:
            R[:, 0] = -R[:, 0]
        R /= np.cbrt(np.linalg.det(R))
        P = np.diag([eps, eps**-0.5, eps**-0.5]) @ R
        SpecialLinearMatrix.from_entries(P)
        try:
            reduce_matrix(P)
        except PrecisionError:
            failed += 1
    assert failed > 0
    # a matrix without det 1 is a bad input, whatever its dimension
    for d in (2, 3):
        with pytest.raises(DeterminantError):
            reduce_matrix(2.0 * np.eye(d))


@pytest.mark.parametrize("g", [np.diag([1e160, 1e-160]), np.diag([1e-200, 1e200]), np.diag([1e103, 1e-103, 1.0])])
def test_entries_past_the_determinant_check_are_a_precision_error(g):
    # the check's tolerance grows as scale^d, which leaves the doubles here;
    # the input has det 1, so it is not refused as a bad determinant
    with pytest.raises(PrecisionError, match=r"entry scale 1e\+\d+ is beyond the determinant check's range"):
        reduce_matrix(g)


def test_reduce_coset_preservation():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = random_word(rng)
        r = reduce_matrix(g)
        resid = r.rep.inverse @ g
        assert np.abs(resid - np.rint(resid)).max() < 1e-6
        assert np.allclose(r.rep.entries @ r.gamma.to_array(), g, atol=1e-9 * max(1, np.abs(g).max()))


def _candidate_set(B, bound):
    """The det +1 C with |B C|_F <= bound, by the d = 2 search's own walk."""
    lam1sq = fundamental._minima_sq_of(B, DEFAULT_BUDGET)[0]
    return set(fundamental._candidates_2d(B, bound * bound, lam1sq, DEFAULT_BUDGET))


def test_reduce_certificate_holds():
    rng = np.random.default_rng(6)
    for _ in range(10):
        g = random_word(rng)
        r = reduce_matrix(g)
        B = lll_reduce(r.rep.entries)[0]
        for C in _candidate_set(B, r.certificate):
            assert _f_of_stack(B @ np.array(C, dtype=float)) >= r.fvalue - 1e-9
    # the unit lattice: the four rotations, and nothing below sqrt(d)
    L = lll_reduce(np.eye(2))[0]
    assert _candidate_set(L, 1.5) == {((1, 0), (0, 1)), ((-1, 0), (0, -1)), ((0, -1), (1, 0)), ((0, 1), (-1, 0))}
    assert _candidate_set(L, 1.2) == set()
    # the walk is monotone in the bound
    L = lll_reduce(SpecialLinearMatrix.from_entries(random_word(np.random.default_rng(8), budget=1.0)).entries)[0]
    assert _candidate_set(L, 2.0) <= _candidate_set(L, 3.0)


def test_iota_well_defined():
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = random_word(rng)
        rows = np.eye(2, dtype=object)
        for _ in range(2):
            k = int(rng.integers(-5, 6))
            rows = rows @ np.array([[1, k], [0, 1]], dtype=object)
        gam = np.array(rows, dtype=float)
        a = iota(g)
        b = iota(g @ gam)
        assert np.abs(a.entries - b.entries).max() < 1e-8 * max(1.0, np.abs(a.entries).max())


def _flow_orbit(s, us):
    x0 = np.array([[0.0, -1.0], [1.0, 0.0]])
    P = np.empty((len(us), 2, 2))
    for i, u in enumerate(us):
        P[i] = np.diag([math.exp(s), math.exp(-s)]) @ np.array([[1.0, u], [0.0, 1.0]]) @ x0
    return P


def _certified_2x2(P):
    """reduce_batch_2x2(P), with the seeds B, the certified mask and the certificates of `_search_starts`."""
    reps, gammas = reduce_batch_2x2(P)
    B, _, _, _, certified = fundamental._reduce_stack_2x2(P)
    certificate = np.array([start[3] if start[3] is not None else np.nan for start in fundamental._search_starts(P)])
    return reps, gammas, B, certified, certificate


def test_batch_agrees_with_scalar():
    # every row, bit for bit: a single matrix is a stack of one
    rng = np.random.default_rng(9)
    # u = p / q gives lambda_1 = q e^{-8} at s = 8: the identity screen
    # refuses q = 3, 4, 5 and 7 here, and it accepts q = 8, 10, 30 and 40
    near = np.array([0.3, 0.25, 1 / 3, -0.2, 2 / 7, -0.125, 7 / 30, 11 / 40, -13 / 30, 9 / 40])
    cases = [(4.0, rng.uniform(-0.5, 0.5, 200)), (9.0, rng.uniform(-0.5, 0.5, 200))]
    cases.append((8.0, np.concatenate([rng.uniform(-0.5, 0.5, 190), near])))
    kinds = {"certified, lambda_1 < 0.015": 0, "searched": 0}
    for s, us in cases:
        P = _flow_orbit(s, us)
        reps, gammas, B, certified, _ = _certified_2x2(P)
        lam1 = np.sqrt(np.minimum((B[:, :, 0] ** 2).sum(axis=1), (B[:, :, 1] ** 2).sum(axis=1)))
        kinds["certified, lambda_1 < 0.015"] += int((certified & (lam1 < 0.015)).sum())
        kinds["searched"] += int((~certified).sum())
        for i in range(len(P)):
            r = reduce_matrix(P[i])
            assert np.array_equal(r.gamma.to_int64(), gammas[i])
            assert r.rep.entries.tobytes() == reps[i].tobytes()
    assert min(kinds.values()) > 0, kinds


@pytest.mark.parametrize("s", [4.0, 8.0, 10.0, 12.0])
def test_certified_2x2_rows_hold_every_near_minimal_transform_in_the_table(s):
    # the claim of the d = 2 certificate, checked by the exact search's own
    # enumeration: within the certificate's bound, the C that tie F(b) are
    # the four rotations J^r and no other, so no C lowers F(b) either
    rotations = {C.tobytes() for C in fundamental._J_POWERS}
    us = np.random.default_rng(int(s)).uniform(-0.5, 0.5, 300)
    _, _, B, certified, certificate = _certified_2x2(_flow_orbit(s, us))
    assert certified.sum() > 200
    for b, bound in zip(B[certified], certificate[certified]):
        lam1sq = fundamental._minima_sq_of(b, DEFAULT_BUDGET)[0]
        cs = fundamental._candidates_2d(b, bound * bound, lam1sq, DEFAULT_BUDGET)
        near = _tied(_f_of_stack(b @ np.array(cs, dtype=float).reshape(-1, 2, 2)), _f_of_stack(b))
        assert {np.array(C, dtype=np.int64).tobytes() for C, tie in zip(cs, near) if tie} == rotations


def _static_candidates_2x2() -> np.ndarray:
    """The 36 det-1 C whose columns are (+-1, 0) or (a, +-1), |a| <= 2: the static table of the former d = 2 sweep."""
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


_C_STATIC = _static_candidates_2x2()


def _rotations(h: np.ndarray) -> np.ndarray:
    """h J^r for r = 0..3 on a new axis before the matrix axes, zeros as +0.0.

    For h = [[a, b], [c, d]], h J = [[b, -a], [d, -c]] and h J^2 = -h:
    sign flips and column swaps, so every rotation is exact.
    """
    a, b, c, d = h[..., 0, 0], h[..., 0, 1], h[..., 1, 0], h[..., 1, 1]
    rot = np.stack([a, b, c, d, b, -a, d, -c, -a, -b, -c, -d, -b, a, -d, c], axis=-1)
    return rot.reshape(h.shape[:-2] + (4, 2, 2)) + 0.0


def _sweep_all_36(Bc):
    """The 36-candidate static sweep of the former d = 2 reduction, kept as the reference.

    It scores all 36 products in table order by the shared rule, `_f_of_stack`
    and `_tied`, and keeps the first with the least `_lex_key`, where a NaN
    key compares as least, as in `_lex_first`.  Returns (reps, pick, least),
    least the mask of the tied entries with the least key.
    """
    H = np.matmul(Bc[:, None], _C_STATIC.astype(float))
    F = _f_of_stack(H)
    cand = _tied(F, F.min(axis=1)[:, None])
    keys = _lex_key(H)
    for k in range(4):
        key = np.where(cand, keys[:, :, k], np.inf)
        cand &= ~(key > key.min(axis=1)[:, None])
    pick = cand.argmax(axis=1)
    return H[np.arange(Bc.shape[0]), pick], pick, cand


def _adjugates(C):
    """adj C of each C of an int64 stack (N, 2, 2): the inverse of a det-1 C."""
    return np.stack([C[:, 1, 1], -C[:, 0, 1], -C[:, 1, 0], C[:, 0, 0]], axis=1).reshape(-1, 2, 2)


def _assert_batch_matches_reference(P, alone=True):
    """reduce_batch_2x2(P) is the 36-candidate reference from P's Lagrange seeds, stacked and (alone) row by row.

    Bit for bit, the sign of every zero included: the batch writes +0.0 on
    every path.
    """
    B, U = fundamental._lagrange_2x2(P)
    ref_reps, pick, _ = _sweep_all_36(B)
    ref_gammas = _adjugates(U @ _C_STATIC[pick])
    for rows in [slice(None)] + [slice(i, i + 1) for i in range(len(P) if alone else 0)]:
        reps, gammas = reduce_batch_2x2(P[rows])
        assert reps.tobytes() == ref_reps[rows].tobytes()
        assert np.array_equal(gammas, ref_gammas[rows])


def _assert_search_agrees_with_the_batch(P):
    """`_reduce_core` from each row's Lagrange seed gives reduce_batch_2x2's rep and gamma, bit for bit.

    On a row of the identity screen this checks the screen and its closed
    form against `_search`; on any other, the batch's fallback.  Both
    return zeros as +0.0.  Returns the certified mask.
    """
    B, U, _, _, certified = fundamental._reduce_stack_2x2(P)
    reps, gammas = reduce_batch_2x2(P)
    for p, b, u, rep, gamma in zip(P, B, U, reps, gammas):
        rep_arr, U_ref, _ = fundamental._reduce_core(p, DEFAULT_BUDGET, fundamental._seed_start(b, u))
        assert rep_arr.tobytes() == rep.tobytes()
        assert np.array_equal(U_ref.inv().to_int64(), gamma)
    return certified


def _assert_screen_picks_the_reference(Bc):
    """On the rows of Bc the identity screen certifies, `_least_rotation` is the 36-candidate reference's pick.

    That is the screen's claim on the seeds as given: the reference ties
    the identity class alone, and its tie-break is the closed form.
    Returns the certified mask.
    """
    rots, r, decided = fundamental._least_rotation(Bc)
    certified = fundamental._identity_alone(Bc) & decided
    ref_reps, pick, _ = _sweep_all_36(Bc)
    assert ref_reps[certified].tobytes() == rots[certified].tobytes()
    assert np.array_equal(_C_STATIC[pick[certified]], fundamental._J_POWERS[r[certified]])
    return certified


def test_static_table_splits_into_rotation_classes():
    # the reference table splits into 9 classes {C J^r}, and the identity's
    # class, in order, is the batch's table of moves J^r
    J = np.array([[0, -1], [1, 0]])
    index = {C.tobytes(): k for k, C in enumerate(_C_STATIC)}
    classes = {tuple(sorted(index[(C @ np.linalg.matrix_power(J, r)).tobytes()] for r in range(4))) for C in _C_STATIC}
    assert len(_C_STATIC) == 36 and len(classes) == 9
    assert sorted(k for c in classes for k in c) == list(range(36))
    for r in range(4):
        assert np.array_equal(fundamental._J_POWERS[r], np.linalg.matrix_power(J, r))


@pytest.mark.parametrize("s", [4.0, 8.0, 12.0])
def test_sweep_matches_36_candidate_reference_on_reduced_batches(s):
    # the batch against the reference from its own Lagrange seeds
    us = np.random.default_rng(int(s)).uniform(-0.5, 0.5, 20_000)
    P = _flow_orbit(s, us)
    _assert_batch_matches_reference(P, alone=False)
    # on these orbits the match is bit for bit, the sign of every zero included
    assert reduce_batch_2x2(P)[0].tobytes() == _sweep_all_36(fundamental._lagrange_2x2(P)[0])[0].tobytes()


_HEXAGONAL = np.array([[1.0, 0.5], [0.0, math.sqrt(3.0) / 2.0]]) / math.sqrt(math.sqrt(3.0) / 2.0)


def _signed_zero_rows():
    """Rotations, a rotation class of the hexagonal lattice, and rows with entries of -0.0."""
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    th = 0.3
    rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    mats = [np.eye(2), -np.eye(2), J, -J, rot, rot @ J, _HEXAGONAL, _HEXAGONAL @ J, -_HEXAGONAL]
    # entries of -0.0, where a product of the rows can come out as -0.0
    mats += [
        np.array([[-1.0, -0.0], [-0.0, -1.0]]),
        np.array([[-0.0, -1.0], [1.0, -0.0]]),
        np.array([[1.0, -0.0], [0.0, 1.0]]),
        np.array([[-0.0, 1.0], [-1.0, 0.0]]),
    ]
    return np.array(mats)


def test_sweep_matches_36_candidate_reference_on_ties_and_signed_zeros():
    Bc = _signed_zero_rows()
    # the hexagonal lattice ties several classes, so the screen leaves it
    F = _f_of_stack(np.matmul(_HEXAGONAL[None], _C_STATIC.astype(float)))
    assert _tied(F, F.min()).sum() > 4
    assert 0 < _assert_screen_picks_the_reference(Bc).sum() < len(Bc)
    _assert_batch_matches_reference(Bc)
    certified = _assert_search_agrees_with_the_batch(Bc)
    assert 0 < certified.sum() < len(Bc)
    reps, _ = reduce_batch_2x2(Bc)
    assert not np.signbit(reps[certified][reps[certified] == 0]).any()  # the closed form writes +0.0
    # shears TIE_TOL above F, to a few hundred ulps: one F and one tie rule
    # give the screen and the table-order reference the same tie sets
    for seed in range(4):
        tie = _tie_edge_rows(20_000, seed)
        _assert_screen_picks_the_reference(tie)
        _assert_batch_matches_reference(tie[:300])


def _edge_basis(mu, eps):
    """A det-1 basis (b1, b2) with <b1, b2> = mu |b1|^2 and |b1|^2 = |b2|^2 (1 - eps)."""
    r = ((1 - eps) / (1 - mu * mu * (1 - eps))) ** 0.25
    return np.array([[r, mu * r], [0.0, 1 / r]])


def _screen_edge_rows():
    """Rows at the edge of the identity screen: |mu| = 1/2 - 10^-k, |b1|^2 = |b2|^2 (1 - 10^-k), k = 1..16."""
    rows = []
    for k in range(1, 17):
        e = 10.0**-k
        for mu, eps in ((0.5 - e, 0.0), (0.5 - e, e), (0.25, e), (0.5, e)):
            for sign in (1, -1):
                b = _edge_basis(sign * mu, eps)
                rows += [b, b[:, ::-1] * [1.0, -1.0]]  # and (b2, -b1)
    rows.append(_HEXAGONAL)
    return np.array(rows)


_NONFINITE_ROWS = np.array(
    [
        [[np.nan, 1.0], [0.0, 1.0]],
        [[np.inf, 0.0], [0.0, 1.0]],
        [[1.0, -np.inf], [0.0, 1.0]],
        [[np.inf, np.inf], [np.inf, np.inf]],
        [[np.nan, np.nan], [np.nan, np.nan]],
        [[1e200, 0.0], [0.0, 1e-200]],  # squares overflow to inf
    ]
)


def test_identity_screen_matches_the_36_candidate_reference_at_its_edge():
    Bc = _screen_edge_rows()
    alone = fundamental._identity_alone(Bc)
    # the rows straddle the edge: mu = 1/2 - 10^-k clears it for small k, mu = 1/2 never
    assert 0 < alone.sum() < len(Bc)
    assert not alone[-1]  # the hexagonal lattice ties several classes
    assert 0 < _assert_screen_picks_the_reference(Bc).sum() < len(Bc)
    _assert_batch_matches_reference(Bc)
    _assert_search_agrees_with_the_batch(Bc)


def _tie_edge_rows(count, seed):
    """Bases b whose shear b [[1, -1], [0, 1]] lies TIE_TOL above F(b), to within a few hundred ulps of mu.

    With n1 = |b1|^2 <= |b2|^2 and mu = <b1, b2> / n1 > 0 that shear
    attains the screen's bound F^2 + g, g = n1 (1 - 2 mu) / 2.  Each
    basis is turned by a random rotation, and half have columns (b2, -b1).
    """
    rng = np.random.default_rng(seed)
    r = rng.uniform(0.8, 1.2, count)
    mu = np.full(count, 0.5)
    for _ in range(3):  # mu = 1/2 - g / n1 with sqrt(F^2 + g) = F + TIE_TOL
        fsq = (r * r * (1 + mu * mu) + 1 / (r * r)) / 2
        mu = 0.5 - (2 * np.sqrt(fsq) * fundamental.TIE_TOL + fundamental.TIE_TOL**2) / (r * r)
    mu += rng.integers(-200, 200, count) * 2.0**-54
    th = rng.uniform(0, 2 * math.pi, count)
    rot = np.stack([np.cos(th), -np.sin(th), np.sin(th), np.cos(th)], axis=1).reshape(-1, 2, 2)
    b = np.stack([r, mu * r, np.zeros(count), 1 / r], axis=1).reshape(-1, 2, 2)
    b = rot @ b
    swap = rng.integers(0, 2, count).astype(bool)
    b[swap] = b[swap][:, :, ::-1] * [1.0, -1.0]
    return b


def test_identity_screen_agrees_with_the_class_scoring_at_ties_and_on_nonfinite_rows():
    # the reference scores all nine classes of the 36-entry table.  With
    # its margins the screen keeps no row where the reference picks
    # outside the identity's class, nor a NaN or inf row; without them it
    # errs on some of these tie rows
    tie = _tie_edge_rows(20_000, 3)
    with np.errstate(invalid="ignore", over="ignore"):
        assert not fundamental._identity_alone(_NONFINITE_ROWS).any()
    _assert_screen_picks_the_reference(tie)
    _assert_batch_matches_reference(tie[:1000])
    # a NaN or inf row is refused before the first pass, alone or in a stack
    for rows in [_NONFINITE_ROWS[:-1]] + [b[None] for b in _NONFINITE_ROWS[:-1]]:
        with pytest.raises(PrecisionError, match="^matrix entries are not finite$") as info:
            reduce_batch_2x2(np.concatenate([rows, tie[:3]]))
        assert info.value.row == 0


@pytest.mark.parametrize("seed", [0, 1])
def test_search_agrees_with_the_sweep_at_tie_edges(seed):
    # a certified row's gamma is `_search`'s: from the same seed both score by
    # the one F and break ties by the one rule, also where a shear lies at
    # TIE_TOL above F, to within a few hundred ulps
    certified = _assert_search_agrees_with_the_batch(_tie_edge_rows(1000, seed))
    assert 0 < certified.sum() < len(certified)


@pytest.mark.parametrize(
    "s, near",
    [(4.0, [0.5]), (8.0, [0.25, 2 / 7, -0.2]), (12.0, [1 / 101, 3 / 151, 7 / 199, 1 / 61])],
    ids=["s4", "s8", "s12"],
)
def test_search_agrees_with_the_batch_on_every_row_of_an_orbit(s, near):
    # orbit rows, and rows u = p / q that the screen leaves to the search:
    # lambda_1 = q e^{-s} below about 1.4e-3, but not so deep that the search is slow
    us = np.random.default_rng(int(s) + 50).uniform(-0.5, 0.5, 150)
    certified = _assert_search_agrees_with_the_batch(_flow_orbit(s, np.concatenate([us, near])))
    assert 0 < certified.sum() < len(certified)


def test_d3_reps_write_zeros_as_plus_zero_on_every_path(monkeypatch):
    # signed permutations, and a shear, with entries of -0.0: the sweep's
    # certified rep and the search's rep from the same seed keep no -0.0
    z = -0.0
    rows = np.array([
        [[1.0, z, z], [z, 1.0, z], [z, z, 1.0]],
        [[-1.0, z, 0.0], [z, -1.0, z], [0.0, z, 1.0]],
        [[z, -1.0, z], [1.0, z, z], [z, z, 1.0]],
        [[z, z, 1.0], [1.0, z, z], [z, 1.0, z]],
        [[1.0, 0.5, z], [z, 1.0, z], [z, z, 1.0]],
    ])
    starts = list(fundamental._search_starts(rows))
    with monkeypatch.context() as m:
        m.setattr(sweep, "_sweep_certified", lambda h, *_: (np.zeros(len(h), dtype=bool), None))
        seeds = list(fundamental._search_starts(rows))
    assert all(start[3] is not None for start in starts)
    for p, start, seed in zip(rows, starts, seeds):
        for s in (start, seed):
            rep = fundamental._reduce_core(p, DEFAULT_BUDGET, s)[0]
            assert (rep == 0).any() and not np.signbit(rep[rep == 0]).any()


def _sl3_stack(count, seed):
    """Det-1 3 x 3 matrices of a stack, entries of both signs over a few orders of magnitude."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(count, 3, 3)) * np.exp(rng.uniform(-3, 3, (count, 1, 3)))
    A[np.linalg.det(A) < 0, :, 0] *= -1
    return A / np.cbrt(np.linalg.det(A))[:, None, None]


def test_the_one_F_has_the_same_bits_in_every_layout_and_on_every_rotation(monkeypatch):
    us = np.random.default_rng(41).uniform(-0.5, 0.5, 2000)
    d2 = np.concatenate([_tie_edge_rows(2000, 5), fundamental._lagrange_2x2(_flow_orbit(8.0, us))[0]])
    for hs in (d2, _sl3_stack(2000, 6)):
        ref = _bits(fundamental._f_sq(hs))
        assert hs.flags.c_contiguous
        assert _bits(fundamental._f_sq(np.asfortranarray(hs))) == ref
        assert _bits(fundamental._f_sq(np.ascontiguousarray(hs.transpose(0, 2, 1)).transpose(0, 2, 1))) == ref
        assert _bits(fundamental._f_sq(np.ascontiguousarray(hs.T).T)) == ref
        assert _bits([fundamental._f_sq(h) for h in hs[:200]]) == ref[: 200 * 8]
        assert fundamental._f_sq(hs[:0]).shape == (0,)  # a round with no candidates
    # d = 2: h J, h^T, adj h and -h, so one score per rotation class is exact
    ref = _bits(fundamental._f_sq(d2))
    a, b, c, d = (d2[:, i, j] for i in (0, 1) for j in (0, 1))
    adj = np.stack([d, -b, -c, a], axis=1).reshape(-1, 2, 2)
    for moved in (d2 @ np.array([[0.0, -1.0], [1.0, 0.0]]), d2.transpose(0, 2, 1), adj, -d2):
        assert _bits(fundamental._f_sq(moved)) == ref
    rot = _rotations(d2)
    assert _bits(fundamental._f_sq(rot)) == _bits(np.repeat(fundamental._f_sq(d2)[:, None], 4, axis=1))
    # the identity screen's F^2 is the scorer's, bit for bit, on the rows as given
    real, seen = fundamental._f_sq, []
    monkeypatch.setattr(fundamental, "_f_sq", lambda hs: seen.append((hs, real(hs))) or seen[-1][1])
    for Bc in (d2, np.asfortranarray(d2)):
        seen.clear()
        fundamental._identity_alone(Bc)
        ((scored, fsq),) = seen
        assert scored is Bc and _bits(fsq) == ref


def test_identity_screen_clears_almost_every_row_of_an_orbit():
    us = np.random.default_rng(8).uniform(-0.5, 0.5, 20_000)
    B, _ = fundamental._lagrange_2x2(_flow_orbit(8.0, us))
    assert fundamental._identity_alone(B).mean() > 0.999


def _lagrange_2x2_reference(P):
    """The d = 2 Lagrange loop that gathered and scattered B[idx] on every pass, kept as the reference."""
    B = P.copy()
    U = np.broadcast_to(np.eye(2, dtype=np.int64), B.shape).copy()
    active = np.ones(P.shape[0], dtype=bool)
    for _ in range(fundamental._LAGRANGE_ROUNDS):
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


def _assert_lagrange_matches_reference(P):
    B, U = fundamental._lagrange_2x2(P)
    ref_B, ref_U = _lagrange_2x2_reference(P)
    assert B.dtype == ref_B.dtype and U.dtype == ref_U.dtype
    assert B.tobytes() == ref_B.tobytes()
    assert U.tobytes() == ref_U.tobytes()


_LAGRANGE_EDGE_ROWS = [
    # already reduced
    np.eye(2),
    np.array([[0.0, -1.0], [1.0, 0.0]]),
    np.array([[1.0, 0.5], [0.0, 1.0]]),
    # a swap and nothing else
    np.diag([2.0, 0.5]),
    np.array([[3.0, 0.0], [0.0, -1.0 / 3.0]]),
    # entries of -0.0, in rows that stop, swap and shear
    np.array([[-0.0, 1.0], [-1.0, -0.0]]),
    np.array([[1.0, -0.0], [0.0, 1.0]]),
    np.array([[2.0, -0.0], [-0.0, 0.5]]),
    np.array([[1.0, 2.6], [-0.0, 1.0]]),
]


@pytest.mark.parametrize("s", [0.0, 4.0, 8.0, 12.0])
def test_lagrange_matches_the_gather_scatter_reference(s):
    us = np.random.default_rng(int(s)).uniform(-0.5, 0.5, 20_000)
    _assert_lagrange_matches_reference(_flow_orbit(s, us))


def test_lagrange_matches_the_reference_on_edge_rows():
    P = np.array(_LAGRANGE_EDGE_ROWS)
    _assert_lagrange_matches_reference(P)
    for p in P:
        _assert_lagrange_matches_reference(p[None])
    _assert_lagrange_matches_reference(P[:0])


@pytest.mark.parametrize("rounds", [1, 2])
def test_lagrange_matches_the_reference_at_the_round_cap(rounds, monkeypatch):
    us = np.random.default_rng(8).uniform(-0.5, 0.5, 2000)
    P = np.concatenate([_flow_orbit(8.0, us), np.array(_LAGRANGE_EDGE_ROWS)])
    uncapped, _ = fundamental._lagrange_2x2(P)
    monkeypatch.setattr(fundamental, "_LAGRANGE_ROUNDS", rounds)
    capped, _ = fundamental._lagrange_2x2(P)
    # rows the cap stops before they are reduced
    assert (capped != uncapped).any(axis=(1, 2)).sum() > 1000
    _assert_lagrange_matches_reference(P)


def test_lagrange_refuses_a_shear_that_takes_the_transform_beyond_int64():
    # the reach |k| max|u_0| + max|u_1| of the first shear of [[1, x], [0, 1]]
    # is x + 1, which rounds to x: below 2^62 it shears, at 2^62 it is refused
    below = np.array([[1.0, 2.0**62 - 1024], [0.0, 1.0]])
    B, U = fundamental._lagrange_2x2(below[None])
    assert B.tobytes() == np.eye(2).tobytes()
    assert U.tolist() == [[[1, -(2**62 - 1024)], [0, 1]]]
    rows = np.array([np.eye(2), [[1.0, 2.0**62], [0.0, 1.0]], [[1.0, 1e20], [0.0, 1.0]]])
    with pytest.raises(PrecisionError, match=r"^Lagrange shear 4.61e\+18 takes the transform beyond int64$") as info:
        fundamental._lagrange_2x2(rows)
    assert info.value.row == 1
    # the lowest such row of the batch, before the cast, with no warning
    with pytest.raises(PrecisionError, match=r"^Lagrange shear 1e\+20 takes") as info:
        reduce_batch_2x2(rows[[0, 0, 2, 1]])
    assert info.value.row == 2
    # a shear that is not a number is refused too: a NaN row never stops shearing
    with pytest.raises(PrecisionError, match=r"^Lagrange shear nan takes"):
        fundamental._lagrange_2x2(np.array([[[np.nan, 1.0], [0.0, 1.0]]]))


def test_lagrange_checks_each_row_where_the_stack_bound_reaches_2_62():
    # row 0 shears by 2^40 on its first pass and row 1 by 2^30 - 1 on its
    # second, so the stack-wide bound on max|u| reads about 2^70 there; no
    # row's reach passes 2^62, so the per-row check lets both shear
    rows = np.array([[[1.0, 2.0**40], [0.0, 1.0]], [[2.0**30, 2.0**30 - 1], [1.0, 1.0]]])
    _assert_lagrange_matches_reference(rows)
    assert fundamental._lagrange_2x2(rows)[1].tolist() == [[[1, -(2**40)], [0, 1]], [[-1, 2**30 - 1], [1, -(2**30)]]]


def test_tie_break_keys_hold_entries_past_int64():
    # at LEX_GRID = 1e-9 an entry past 9.2e9 overflows an int64 key; the
    # rotations of h are h, hJ, -h and -hJ, and -h has the least first entry
    h = np.array([[1e11, -1.0], [1.0, 0.0]])
    assert _lex_first(_lex_key(_rotations(h)), [0])[0] == 2


def _least_rotation_by_scan(h):
    """The four-rotation scan that the closed form replaced, kept as the reference.

    `_lex_first` over the keys of all four h J^r of each row: (rots, r).
    """
    rot = _rotations(h).reshape(-1, 2, 2)
    first = _lex_first(_lex_key(rot), np.arange(0, rot.shape[0], 4))
    return rot[first], first % 4


def _assert_closed_form_matches_the_scan(h):
    """`_least_rotation` equals the scan where it decides, and the scan is the 36-candidate pick on every row of the screen.

    Returns (alone, decided).
    """
    with np.errstate(over="ignore", invalid="ignore"):  # rows whose keys overflow to +-inf
        rots, r, decided = fundamental._least_rotation(h)
        ref_rots, ref_r = _least_rotation_by_scan(h)
        alone = fundamental._identity_alone(h)
        reps, pick, _ = _sweep_all_36(h)
    assert rots[decided].tobytes() == ref_rots[decided].tobytes()
    assert np.array_equal(r[decided], ref_r[decided])
    assert reps[alone].tobytes() == ref_rots[alone].tobytes()
    assert np.array_equal(_C_STATIC[pick[alone]], fundamental._J_POWERS[ref_r[alone]])
    return alone, decided


def _equal_key_rows(count, seed, gap):
    """Rows [[a, b], [c, d]] of det 1 with |b| = |a| + delta, |delta| <= gap, nearly orthogonal columns.

    |a| = x is a multiple of LEX_GRID, so with gap < LEX_GRID / 2 the keys of
    a and b have equal magnitude; c solves <(a, c), (b, d)> = 0 at delta = 0.
    """
    rng = np.random.default_rng(seed)
    x = np.rint(rng.uniform(0.5, 0.7, count) / fundamental.LEX_GRID) * fundamental.LEX_GRID
    sa, sb = rng.choice([-1.0, 1.0], count), rng.choice([-1.0, 1.0], count)
    c = (np.sqrt(1 - 4 * x**4) - 1) / (2 * sb * x) * rng.uniform(0.9, 1.1, count)
    a, b = sa * x, sb * (x + rng.uniform(-gap, gap, count))
    return np.stack([a, b, c, (1 + b * c) / a], axis=1).reshape(-1, 2, 2)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_closed_form_rotation_matches_the_scan_on_orbits(seed):
    x = SpecialLinearMatrix.from_entries(np.eye(2))
    us = orbits.sample_V(orbits.NeighborhoodV(SplittingSignature(1, 1)), 10_000, seed)
    for t in (0.5, 4.0, 8.0, 12.0):
        B, _ = fundamental._lagrange_2x2(orbits._flowed(x, us, t, SplittingSignature(1, 1)))
        alone, decided = _assert_closed_form_matches_the_scan(B)
        assert (alone & decided).mean() > 0.99


def test_closed_form_rotation_matches_the_scan_at_equal_keys_zeros_and_overflow():
    # |a| = |b| exactly, and |a|, |b| less than LEX_GRID / 2 apart: the keys
    # tie in magnitude, and each row falls back to `_search`
    ties = np.concatenate([_equal_key_rows(2000, 0, 0.0), _equal_key_rows(2000, 1, 0.4 * fundamental.LEX_GRID)])
    alone, decided = _assert_closed_form_matches_the_scan(ties)
    assert alone.all() and not decided.any()
    assert not _assert_search_agrees_with_the_batch(ties[::8]).any()
    # a grid step or two apart: the first keys decide
    near = _equal_key_rows(2000, 2, 2.0 * fundamental.LEX_GRID)
    alone, decided = _assert_closed_form_matches_the_scan(near)
    assert alone.all() and 0 < decided.sum() < len(near)
    # a or b of +-0.0, and a or b past 1.8e299, where a key overflows to +-inf
    signed = (0.0, -0.0, 1.0, -1.0, 2.0, -2.0)
    zeros = np.array(list(itertools.product(signed, signed, signed[:4], signed[:4]))).reshape(-1, 2, 2)
    alone, decided = _assert_closed_form_matches_the_scan(zeros)
    assert (alone & decided & ((zeros[:, 0, 0] == 0) | (zeros[:, 0, 1] == 0))).sum() > 20
    huge = np.array(
        [
            [[1e300, 1.0], [0.0, 1e-300]],
            [[-1e300, 1.0], [0.0, -1e-300]],
            [[2.0, 1e300], [-1e-300, 0.0]],
            [[2.0, -1.8e299], [1e-299, 0.0]],
            [[1e300, -1e300], [0.0, 1e-300]],
        ]
    )
    alone, decided = _assert_closed_form_matches_the_scan(huge)
    assert not alone.any() and decided.tolist() == [True, True, True, True, False]


def test_primitive_walk_fits_a_budget_the_full_walk_exceeds(monkeypatch):
    # lambda_1 = 7 e^{-8} ~ 2.3e-3, too deep for the identity screen, so the
    # search runs; the full walk visits ~181k nodes (all but a few are
    # multiples k v_1), the primitive walk a few dozen
    (g,) = _flow_orbit(8.0, [2 / 7])
    assert next(fundamental._search_starts(g[None]))[3] is None
    budget = 10_000
    calls = []
    real_enum = fundamental.enumerate_ball

    def spy(basis, radius, budget, primitive=False):
        calls.append((np.array(basis), radius, primitive))
        return real_enum(basis, radius, budget, primitive)

    monkeypatch.setattr(fundamental, "enumerate_ball", spy)
    r = reduce_matrix(g, budget)
    assert r.gamma.rows == reduce_matrix(g).gamma.rows
    assert calls and all(primitive for _, _, primitive in calls)
    B, radius, _ = calls[0]
    with pytest.raises(BudgetExceededError):
        list(enumerate_ball(B, radius, budget))


def test_distances():
    g = reduce_matrix(np.eye(2)).rep
    assert x_distance(g, g) == 0.0
    h = SpecialLinearMatrix.from_entries([[1.0, 0.01], [0.0, 1.0]])
    assert x_distance(reduce_matrix(h).rep, g) == pytest.approx(0.01, abs=1e-12)
    # +inf where no C comes within max_distance
    assert x_distance(reduce_matrix(np.diag([4.0, 0.25])).rep, g, 0.5) == math.inf
    # d = 3: only det +1 counts, though C = diag(2, 1, 1) would come closer
    # (xi C = 2^(1/3) Id, at 0.45 from Id); the reached C is the identity
    c = 2.0 ** (1 / 3)
    assert x_distance(reduce_matrix(np.diag([c / 2, c, c])).rep, reduce_matrix(np.eye(3)).rep) == pytest.approx(
        math.sqrt((c / 2 - 1) ** 2 + 2 * (c - 1) ** 2), rel=1e-12
    )
    # a row with F(xi) near |xi|_F, as in the cusp, is not pruned
    z = reduce_matrix(np.diag([math.e, math.e, math.e**-2])).rep
    assert x_distance(z, z, 0.1) == 0.0
    # coset distance sees through an integer shear
    shear = np.array([[1.0, 3.0], [0.0, 1.0]])
    moved = h.entries @ shear
    assert x_distance(reduce_matrix(moved).rep, reduce_matrix(np.eye(2)).rep, 0.5) == pytest.approx(
        0.01, abs=1e-9
    )


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _scoring_bases():
    """LLL bases of flowed lattices: ten at d = 2, then at d = 3 a primal seed and a dual seed by turns."""
    rng = np.random.default_rng(31)
    bases = [lll_reduce(P)[0] for P in _flow_orbit(6.0, rng.uniform(-0.5, 0.5, 10))]
    for m, n, t in ((1, 2, 4.0), (2, 1, 3.0), (1, 2, 8.0)):
        sig = SplittingSignature(m, n)
        for _ in range(10):
            H = np.eye(3)
            H[:m, m:] = rng.uniform(-0.5, 0.5, (m, n))
            P = diagonal_flow_vector(t, sig)[:, None] * H
            dual_seed = fundamental._inv_unimodular(lll_reduce(fundamental._inv_unimodular(P).T)[0]).T
            bases += [lll_reduce(P)[0], dual_seed]  # C order, and the dual seed's transposed view
    return bases


def test_stacked_scoring_matches_per_candidate_bytes():
    # the search scores each round's candidates as one stack; the
    # per-candidate products and F-values, each matrix alone, are the reference
    scored = 0
    bases = _scoring_bases()
    for B in bases:
        d = B.shape[0]
        minima = fundamental._minima_sq_of(B, DEFAULT_BUDGET)
        boundsq = 2.0 * fundamental._f_sq(B) + 1.0
        if d == 2:
            cs = fundamental._candidates_2d(B, boundsq, minima[0], DEFAULT_BUDGET)
        else:
            cs = fundamental._candidates_3d(B, boundsq, minima, DEFAULT_BUDGET)
        hs = B @ np.array(cs, dtype=float).reshape(-1, d, d)
        fs = _f_of_stack(hs)
        assert hs.shape == (len(cs), d, d) and fs.shape == (len(cs),)
        for C, h, f in zip(cs, hs, fs):
            ref = B @ np.array(C, dtype=float)
            assert h.tobytes() == ref.tobytes()
            assert _bits(f) == _bits(_f_of_stack(ref))
        scored += len(cs)
    assert scored > 1000
    # the seed choice scores a stack of transposed views the same way
    seeds = fundamental._inv_unimodular(np.array(bases[10::2])).transpose(0, 2, 1)
    assert _bits(_f_of_stack(seeds)) == _bits([_f_of_stack(s) for s in seeds])


# -- the candidate bases of the search, against the two-walk reference ------

def _bezout_line_reference(B, boundsq, lam1sq, budget):
    """The d = 2 candidates by a second walk: each second column on its Bezout line, cut by a quadratic in k."""
    G = B.T @ B
    room1 = boundsq - lam1sq
    if room1 <= 0:
        return []
    cols = list(enumerate_ball(B, math.sqrt(room1), budget, primitive=True))
    out = []
    for a, b in [c for v in cols for c in (v, tuple(-x for x in v))]:
        qc = G[0, 0] * a * a + 2 * G[0, 1] * a * b + G[1, 1] * b * b
        room2 = boundsq - qc
        if room2 < lam1sq * (1 - 1e-9):
            continue
        # a particular solution of a y - b x = 1, then the shifts (x0, y0) + k (a, b) with q <= room2
        u, v = _bezout((a, b))
        x0, y0 = -v, u
        q0 = G[0, 0] * x0 * x0 + 2 * G[0, 1] * x0 * y0 + G[1, 1] * y0 * y0
        cross = G[0, 0] * a * x0 + G[0, 1] * (a * y0 + b * x0) + G[1, 1] * b * y0
        disc = cross * cross - qc * (q0 - room2)
        if disc < 0:
            continue
        root = math.sqrt(disc)
        lo = math.ceil((-cross - root) / qc - 1e-12)
        hi = math.floor((-cross + root) / qc + 1e-12)
        out += [((a, x0 + k * a), (b, y0 + k * b)) for k in range(lo, hi + 1)]
    return out


def _bezout_plane_reference(B, boundsq, minima_sq, budget):
    """The d = 3 candidates by a second walk: each third column on its Bezout plane, by a double quadratic in (t, s)."""
    lam1, lam2, lam3 = minima_sq
    slack = boundsq - (lam1 + lam2 + lam3)
    if slack < -1e-9 * boundsq:
        return []
    room1 = boundsq - lam1 - lam2
    coeffs = list(enumerate_ball(B, math.sqrt(max(room1, 0.0) + 1e-12), budget, primitive=True))
    if not coeffs:
        return []
    vecs = np.array(coeffs, dtype=float) @ B.T
    qs = (vecs * vecs).sum(axis=1)
    order = np.argsort(qs, kind="stable")
    coeffs, vecs, qlist = [coeffs[i] for i in order], vecs[order], qs[order].tolist()

    def feasible(q):
        return any(lam * (1 - 1e-9) <= q <= (lam + slack) * (1 + 1e-9) + 1e-12 for lam in (lam1, lam2, lam3))

    usable = [feasible(q) for q in qlist]
    out = []
    for i1 in range(len(coeffs)):
        q1, a, va = qlist[i1], coeffs[i1], vecs[i1]
        if not (q1 <= room1 * (1 + 1e-12) and usable[i1]):
            continue
        room2 = boundsq - q1 - lam1
        start = bisect.bisect_left(qlist, lam2 * (1 - 1e-9)) if q1 < lam2 * (1 - 1e-9) else 0
        for i2 in range(start, len(coeffs)):
            q2 = qlist[i2]
            if q2 > room2 * (1 + 1e-12):
                break
            if not usable[i2]:
                continue
            hi, lo = max(q1, q2), min(q1, q2)
            if hi < lam2 * (1 - 1e-9):
                continue
            q3_low = lam3 if hi < lam3 * (1 - 1e-9) else lam2 if lo < lam2 * (1 - 1e-9) else lam1
            if q1 + q2 + q3_low > boundsq * (1 + 1e-9):
                continue
            b, vb = coeffs[i2], vecs[i2]
            n = _cross(a, b)
            if math.gcd(*n) != 1:
                continue
            # c3 = c30 + s a + t b with n . c30 = 1, and |B c3|^2 <= room3 as a quadratic in (s, t)
            c30 = _bezout(n)
            room3 = boundsq - q1 - q2
            v0 = B @ np.array(c30, dtype=float)
            C3, u0, w0, q30 = float(va @ vb), float(v0 @ va), float(v0 @ vb), float(v0 @ v0)
            aa, bb, cc = C3 * C3 - q1 * q2, C3 * u0 - q1 * w0, u0 * u0 - q1 * (q30 - room3)
            disc_t = bb * bb - aa * cc
            if aa >= 0 or disc_t < 0:
                continue
            root_t = math.sqrt(disc_t)
            for t in range(math.ceil((-bb + root_t) / aa - 1e-12), math.floor((-bb - root_t) / aa + 1e-12) + 1):
                b2 = C3 * t + u0
                disc_s = b2 * b2 - q1 * (q2 * t * t + 2 * w0 * t + q30 - room3)
                if disc_s < 0:
                    continue
                root_s = math.sqrt(disc_s)
                for s1 in range(math.ceil((-b2 - root_s) / q1 - 1e-12), math.floor((-b2 + root_s) / q1 + 1e-12) + 1):
                    c3 = [c30[r] + s1 * a[r] + t * b[r] for r in range(3)]
                    for sa, sb in ((1, 1), (-1, -1), (1, -1), (-1, 1)):
                        out.append(tuple((sa * a[r], sb * b[r], sa * sb * c3[r]) for r in range(3)))
    return out


def _assert_candidates_match_the_reference(calls):
    """Each (B, boundsq, minima, budget) gives the reference's set, with no repeat, each C integral of det +1."""
    total = 0
    for B, boundsq, minima, budget in calls:
        search, reference = (
            (fundamental._candidates_2d, _bezout_line_reference)
            if B.shape[0] == 2
            else (fundamental._candidates_3d, _bezout_plane_reference)
        )
        got, want = search(B, boundsq, minima, budget), reference(B, boundsq, minima, budget)
        assert len(set(got)) == len(got) and set(got) == set(want)
        assert all(type(x) is int for C in got for row in C for x in row)
        assert all(_int_det(C) == 1 for C in got)
        total += len(got)
    return total


def _recorded_search_calls(monkeypatch, m, n, t, count):
    """The arguments of every `_candidates_2d` and `_candidates_3d` call of an orbit from the identity."""
    calls = []
    for name in ("_candidates_2d", "_candidates_3d"):
        def recording(B, boundsq, minima, budget, real=getattr(fundamental, name)):
            calls.append((np.array(B), boundsq, minima, budget))
            return real(B, boundsq, minima, budget)

        monkeypatch.setattr(fundamental, name, recording)
    d = m + n
    y0 = AffineLatticePoint(SpecialLinearMatrix.from_entries(np.eye(d)), TorusPoint.from_values([0.0] * d))
    orbits.orbit_pushforward(y0, t, orbits.NeighborhoodV(SplittingSignature(m, n)), count, seed=0)
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("m, n, t, count", [(1, 2, 8.0, 300), (2, 1, 5.0, 300), (1, 1, 12.0, 400_000)])
def test_search_candidates_match_the_bezout_walks_on_recorded_orbit_calls(m, n, t, count, monkeypatch):
    calls = _recorded_search_calls(monkeypatch, m, n, t, count)
    assert len(calls) >= (4 if m + n == 2 else 30)
    assert _assert_candidates_match_the_reference(calls) > 0


def test_search_candidates_match_the_bezout_walks_on_the_scoring_bases():
    calls = []
    for B in _scoring_bases():
        minima = fundamental._minima_sq_of(B, DEFAULT_BUDGET)
        two_f_sq = 2.0 * fundamental._f_sq(B)
        for boundsq in (two_f_sq + 1.0, (math.sqrt(two_f_sq) + 1e-6) ** 2):
            calls.append((B, boundsq, minima[0] if B.shape[0] == 2 else minima, DEFAULT_BUDGET))
    assert _assert_candidates_match_the_reference(calls) > 1000


def test_ternary_table_holds_every_class_of_24_closed_under_inverse_transpose():
    table = sweep._ternary_classes()
    variants = table.variants.astype(np.int64)
    assert variants.shape == (193, 24, 3, 3)
    members = variants.reshape(-1, 3, 3)
    assert len({C.tobytes() for C in members}) == 4632
    assert np.all(_int_det(members.transpose(1, 2, 0)) == 1)
    cofactors = _stack_adjugate(members).transpose(0, 2, 1)  # C^{-T}
    assert {C.tobytes() for C in cofactors} == {C.tobytes() for C in members}
    assert np.all((np.abs(members) <= 1).all(axis=(1, 2)) | (np.abs(cofactors) <= 1).all(axis=(1, 2)))
    # every ternary matrix of det 1, enumerated apart from the table, is in it
    ternary = np.array(list(itertools.product((-1, 0, 1), repeat=9))).reshape(-1, 3, 3)
    unit = ternary[np.rint(np.linalg.det(ternary)) == 1]
    assert len(unit) == 3480 and {C.tobytes() for C in unit} <= {C.tobytes() for C in members}
    # each class is its first member times the 24 signed permutations of det 1
    signed = _stack_adjugate(variants[:, :1].repeat(24, axis=1).reshape(-1, 3, 3)) @ members
    signed = signed.reshape(193, 24, 3, 3)
    assert np.all(signed == signed[:1])
    assert np.all((np.abs(signed[0]) == 1).sum(axis=1) == 1) and np.all(np.rint(np.linalg.det(signed[0])) == 1)
    assert (variants[table.identity] == np.eye(3, dtype=np.int64)).all(axis=(1, 2)).sum() == 1


def test_importing_the_package_imports_no_sweep_and_builds_no_table():
    code = (
        "import sys, horolattice, horolattice.cli, horolattice.acceptance\n"
        "print('horolattice.sweep' in sys.modules)\n"
        "from horolattice import sweep\n"
        "print(sweep._ternary_classes.cache_info().currsize, sweep._coefficient_box.cache_info().currsize)"
    )
    src = str(Path(fundamental.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "0", "0"]


def test_certificate_refuses_a_cusp_basis_with_near_ties_outside_the_table():
    # at diag(1e-4, 100, 100) shearing a long column by twice the short one
    # moves F by about 1e-10, inside TIE_TOL, and that shear is not ternary
    h = np.diag([1e-4, 100.0, 100.0])
    shear = np.eye(3, dtype=np.int64)
    shear[0, 1] = 2
    assert _f_of_stack(h @ shear) - _f_of_stack(h) <= fundamental.TIE_TOL
    table = {C.tobytes() for C in sweep._ternary_classes().variants.astype(np.int64).reshape(-1, 3, 3)}
    assert shear.tobytes() not in table
    start = next(fundamental._search_starts(h[None]))
    assert start[3] is None  # left to the search
