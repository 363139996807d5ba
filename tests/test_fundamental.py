import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from horolattice import fundamental, sweep
from horolattice.core import IntegerMatrix, SpecialLinearMatrix, SplittingSignature, diagonal_flow_vector
from horolattice.errors import BudgetExceededError, DeterminantError, PrecisionError
from horolattice.fundamental import (
    F_value,
    candidate_bases,
    iota,
    matrix_distance,
    reduce_batch_2x2,
    reduce_matrix,
    x_distance,
    _lex_first,
    _lex_key,
)
from horolattice.lattices import DEFAULT_BUDGET, LatticeDescriptor, enumerate_ball, lll_reduce, successive_minima


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
    H = np.einsum("ij,kjl->kil", g, box)
    F = np.sqrt((H * H).sum(axis=(1, 2)) / 2.0)
    fmin = float(F.min())
    ties = np.nonzero(F <= fmin + 1e-9)[0]
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
    assert F_value(np.eye(2)) == pytest.approx(1.0)
    assert F_value(np.eye(3)) == pytest.approx(math.sqrt(1.5))


def test_F_value_inverse_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = SpecialLinearMatrix.from_entries(random_word(rng))
        assert F_value(g) == pytest.approx(F_value(g.inv()), rel=1e-12)


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


def test_reduce_coset_preservation():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = random_word(rng)
        r = reduce_matrix(g)
        resid = r.rep.inverse @ g
        assert np.abs(resid - np.rint(resid)).max() < 1e-6
        assert np.allclose(r.rep.entries @ r.gamma.to_array(), g, atol=1e-9 * max(1, np.abs(g).max()))


def test_reduce_certificate_holds():
    rng = np.random.default_rng(6)
    for _ in range(10):
        g = random_word(rng)
        r = reduce_matrix(g)
        L = LatticeDescriptor(r.rep)
        for h in candidate_bases(L, r.certificate):
            assert F_value(h) >= r.fvalue - 1e-9


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


def test_candidate_bases_unit_lattice():
    L = LatticeDescriptor.from_matrix(np.eye(2))
    cands = candidate_bases(L, 1.5)
    mats = sorted(tuple(np.rint(h.entries).astype(int).ravel()) for h in cands)
    assert mats == sorted(
        [(-1, 0, 0, -1), (0, -1, 1, 0), (0, 1, -1, 0), (1, 0, 0, 1)]
    )
    assert candidate_bases(L, 1.2) == []  # below sqrt(d) nothing is unimodular


def test_candidate_bases_monotone():
    rng = np.random.default_rng(8)
    L = LatticeDescriptor.from_matrix(random_word(rng, budget=1.0))
    small = {tuple(np.round(h.entries, 9).ravel()) for h in candidate_bases(L, 2.0)}
    large = {tuple(np.round(h.entries, 9).ravel()) for h in candidate_bases(L, 3.0)}
    assert small <= large


def _flow_orbit(s, us):
    x0 = np.array([[0.0, -1.0], [1.0, 0.0]])
    P = np.empty((len(us), 2, 2))
    for i, u in enumerate(us):
        P[i] = np.diag([math.exp(s), math.exp(-s)]) @ np.array([[1.0, u], [0.0, 1.0]]) @ x0
    return P


def _certified_2x2(monkeypatch, P):
    """reduce_batch_2x2(P), with the seeds B, the certified mask and the certificate it saw."""
    real = fundamental._sweep_certified_2x2
    seen = []

    def recording(B, reps):
        certified, certificate = real(B, reps)
        seen.append((B.copy(), certified, certificate))
        return certified, certificate

    with monkeypatch.context() as m:
        m.setattr(fundamental, "_sweep_certified_2x2", recording)
        reps, gammas = reduce_batch_2x2(P)
    (B, certified, certificate), = seen
    return reps, gammas, B, certified, certificate


def test_batch_agrees_with_scalar(monkeypatch):
    # every row, bit for bit: a single matrix is a stack of one
    rng = np.random.default_rng(9)
    # u = p / q gives lambda_1 = q e^{-8} at s = 8: the certificate refuses
    # q <= 10, below the former batch threshold of 0.015 it accepts q = 30, 40
    near = np.array([0.3, 0.25, 1 / 3, -0.2, 2 / 7, -0.125, 7 / 30, 11 / 40, -13 / 30, 9 / 40])
    cases = [(4.0, rng.uniform(-0.5, 0.5, 200)), (9.0, rng.uniform(-0.5, 0.5, 200))]
    cases.append((8.0, np.concatenate([rng.uniform(-0.5, 0.5, 190), near])))
    kinds = {"certified, lambda_1 < 0.015": 0, "searched": 0}
    for s, us in cases:
        P = _flow_orbit(s, us)
        reps, gammas, B, certified, _ = _certified_2x2(monkeypatch, P)
        lam1 = np.sqrt(np.minimum((B[:, :, 0] ** 2).sum(axis=1), (B[:, :, 1] ** 2).sum(axis=1)))
        kinds["certified, lambda_1 < 0.015"] += int((certified & (lam1 < 0.015)).sum())
        kinds["searched"] += int((~certified).sum())
        for i in range(len(P)):
            r = reduce_matrix(P[i])
            assert np.array_equal(r.gamma.to_int64(), gammas[i])
            assert r.rep.entries.tobytes() == reps[i].tobytes()
    assert min(kinds.values()) > 0, kinds


@pytest.mark.parametrize("s", [4.0, 8.0, 10.0, 12.0])
def test_certified_2x2_rows_hold_every_near_minimal_transform_in_the_table(s, monkeypatch):
    # the claim of the d = 2 certificate, checked by the exact search's own enumeration
    table = {C.tobytes() for C in fundamental._C_STATIC}
    us = np.random.default_rng(int(s)).uniform(-0.5, 0.5, 300)
    _, _, B, certified, certificate = _certified_2x2(monkeypatch, _flow_orbit(s, us))
    assert certified.sum() > 200
    for b, bound in zip(B[certified], certificate[certified]):
        lam1sq = fundamental._minima_sq_of(b, DEFAULT_BUDGET)[0]
        for rows in fundamental._candidates_2d(b, bound * bound, lam1sq, DEFAULT_BUDGET):
            assert np.array(rows, dtype=np.int64).tobytes() in table


def _sweep_all_36(Bc):
    """The 36-candidate static sweep the rotation classes replaced, kept as the reference."""
    H = np.matmul(Bc[:, None], fundamental._C_STATIC.astype(float))
    A = (H * H).sum(axis=(2, 3))
    F = np.sqrt(A / 2.0)
    cand = F <= (F.min(axis=1)[:, None] + fundamental.TIE_TOL)
    keys = np.rint(H / fundamental.LEX_GRID).astype(np.int64)
    sentinel = np.iinfo(np.int64).max
    for (i, j) in ((0, 0), (0, 1), (1, 0), (1, 1)):
        key = np.where(cand, keys[:, :, i, j], sentinel)
        cand &= key == key.min(axis=1)[:, None]
    pick = cand.argmax(axis=1)
    return H[np.arange(Bc.shape[0]), pick], pick


def _assert_sweep_matches_reference(Bc):
    reps, pick = fundamental._sweep_static(Bc)
    ref_reps, ref_pick = _sweep_all_36(Bc)
    assert reps.tobytes() == ref_reps.tobytes()
    assert np.array_equal(pick, ref_pick)


def test_static_table_splits_into_rotation_classes():
    table = fundamental._C_STATIC
    classes = fundamental._C_CLASSES
    assert classes.shape == (9, 4)
    assert sorted(classes.ravel().tolist()) == list(range(len(table)))
    J = np.array([[0, -1], [1, 0]])
    for row in classes:
        for r in range(4):
            assert np.array_equal(table[row[r]], table[row[0]] @ np.linalg.matrix_power(J, r))


@pytest.mark.parametrize("s", [4.0, 8.0, 12.0])
def test_sweep_matches_36_candidate_reference_on_reduced_batches(s, monkeypatch):
    # the blocks reduce_batch_2x2 hands to the sweep after its Lagrange loop
    us = np.random.default_rng(int(s)).uniform(-0.5, 0.5, 20_000)
    P = _flow_orbit(s, us)
    blocks = []
    real_sweep = fundamental._sweep_static

    def spy(Bc):
        blocks.append(Bc.copy())
        return real_sweep(Bc)

    monkeypatch.setattr(fundamental, "_sweep_static", spy)
    reduce_batch_2x2(P)
    assert sum(len(b) for b in blocks) == len(P)
    _assert_sweep_matches_reference(np.concatenate(blocks))


def test_sweep_matches_36_candidate_reference_on_ties_and_signed_zeros():
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    c = math.sqrt(math.sqrt(3.0) / 2.0)
    hexagonal = np.array([[1.0, 0.5], [0.0, math.sqrt(3.0) / 2.0]]) / c
    th = 0.3
    rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    mats = [np.eye(2), -np.eye(2), J, -J, rot, rot @ J, hexagonal, hexagonal @ J, -hexagonal]
    # entries of -0.0, where a product of the rows can come out as -0.0
    mats += [
        np.array([[-1.0, -0.0], [-0.0, -1.0]]),
        np.array([[-0.0, -1.0], [1.0, -0.0]]),
        np.array([[1.0, -0.0], [0.0, 1.0]]),
        np.array([[-0.0, 1.0], [-1.0, 0.0]]),
    ]
    Bc = np.array(mats)
    # the hexagonal lattice ties several classes
    H = np.matmul(hexagonal[None, None], fundamental._C_STATIC.astype(float))[0]
    F = np.sqrt((H * H).sum(axis=(1, 2)) / 2.0)
    tied = np.flatnonzero(F <= F.min() + fundamental.TIE_TOL)
    assert np.isin(fundamental._C_CLASSES, tied).any(axis=1).sum() > 1
    _assert_sweep_matches_reference(Bc)
    for b in Bc:
        _assert_sweep_matches_reference(b[None])
    reps, _ = fundamental._sweep_static(Bc)
    assert not np.signbit(reps[reps == 0]).any()


def test_tie_break_keys_hold_entries_past_int64():
    # at LEX_GRID = 1e-12 an entry past 9.2e6 overflows an int64 key; the
    # rotations of h are h, hJ, -h and -hJ, and -h has the least first entry
    h = np.array([[1e8, -1.0], [1.0, 0.0]])
    assert _lex_first(_lex_key(fundamental._rotations(h)), [0])[0] == 2


def test_primitive_walk_fits_a_budget_the_full_walk_exceeds(monkeypatch):
    # lambda_1 = 10 e^{-8} ~ 3.4e-3, too deep for the certificate, so the
    # search runs; the full walk visits ~178k nodes (all but a few are
    # multiples k v_1), the primitive walk 33
    (g,) = _flow_orbit(8.0, [0.3])
    assert next(fundamental._search_starts(g[None], 8.0))[3] is None
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
    g = SpecialLinearMatrix.from_entries(np.eye(2))
    assert matrix_distance(g, g) == pytest.approx(0.0)
    h = SpecialLinearMatrix.from_entries([[1.0, 0.01], [0.0, 1.0]])
    assert matrix_distance(h, g) == pytest.approx(0.01)
    # coset distance sees through an integer shear
    shear = np.array([[1.0, 3.0], [0.0, 1.0]])
    moved = h.entries @ shear
    assert x_distance(reduce_matrix(moved).rep, reduce_matrix(np.eye(2)).rep, 0.5) == pytest.approx(
        0.01, abs=1e-9
    )


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def test_stacked_scoring_matches_per_candidate_bytes():
    # the search scores each round's candidates as one stack; the
    # per-candidate products and F-values are the reference
    rng = np.random.default_rng(31)
    scored = 0
    bases = [lll_reduce(P)[0] for P in _flow_orbit(6.0, rng.uniform(-0.5, 0.5, 10))]
    for m, n, t in ((1, 2, 4.0), (2, 1, 3.0), (1, 2, 8.0)):
        sig = SplittingSignature(m, n)
        for _ in range(10):
            H = np.eye(3)
            H[:m, m:] = rng.uniform(-0.5, 0.5, (m, n))
            P = diagonal_flow_vector(t, sig)[:, None] * H
            dual_seed = fundamental._inv_unimodular(lll_reduce(fundamental._inv_unimodular(P).T)[0]).T
            bases += [lll_reduce(P)[0], dual_seed]  # C order, and the scalar path's transposed view
    for B in bases:
        d = B.shape[0]
        minima = [x * x for x in successive_minima(LatticeDescriptor.from_matrix(B))]
        boundsq = 2.0 * fundamental._f_of_array(B) ** 2 + 1.0
        if d == 2:
            cs = fundamental._candidates_2d(B, boundsq, minima[0], DEFAULT_BUDGET)
        else:
            cs = fundamental._candidates_3d(B, boundsq, minima, DEFAULT_BUDGET)
        hs, fs = fundamental._score(B, cs)
        assert hs.shape == (len(cs), d, d)
        for C, h, f in zip(cs, hs, fs):
            ref = B @ np.array(C, dtype=float)
            assert h.tobytes() == ref.tobytes()
            assert _bits(f) == _bits(fundamental._f_of_array(ref))
        scored += len(cs)
    assert scored > 1000
    # the seed choice scores a stack of transposed views the same way
    seeds = fundamental._inv_unimodular(np.array(bases[10::2])).transpose(0, 2, 1)
    assert _bits(fundamental._f_of_stack(seeds)) == _bits([fundamental._f_of_array(s) for s in seeds])
    assert fundamental._score(bases[0], [])[0].shape == (0, 2, 2)


def test_ternary_table_holds_every_class_of_24_closed_under_inverse_transpose():
    table = sweep._ternary_classes()
    variants = table.variants.astype(np.int64)
    assert variants.shape == (193, 24, 3, 3)
    members = variants.reshape(-1, 3, 3)
    assert len({C.tobytes() for C in members}) == 4632
    adj, det = sweep._adjugates(members)
    assert np.all(det == 1)
    cofactors = adj.transpose(0, 2, 1)  # C^{-T}
    assert {C.tobytes() for C in cofactors} == {C.tobytes() for C in members}
    assert np.all((np.abs(members) <= 1).all(axis=(1, 2)) | (np.abs(cofactors) <= 1).all(axis=(1, 2)))
    # every ternary matrix of det 1, enumerated apart from the table, is in it
    ternary = np.array(list(itertools.product((-1, 0, 1), repeat=9))).reshape(-1, 3, 3)
    unit = ternary[np.rint(np.linalg.det(ternary)) == 1]
    assert len(unit) == 3480 and {C.tobytes() for C in unit} <= {C.tobytes() for C in members}
    # each class is its first member times the 24 signed permutations of det 1
    signed = sweep._adjugates(variants[:, :1].repeat(24, axis=1).reshape(-1, 3, 3))[0] @ members
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
    assert fundamental._f_of_array(h @ shear) - fundamental._f_of_array(h) <= fundamental.TIE_TOL
    table = {C.tobytes() for C in sweep._ternary_classes().variants.astype(np.int64).reshape(-1, 3, 3)}
    assert shear.tobytes() not in table
    start = next(fundamental._search_starts(h[None], None, None))
    assert start[3] is None  # left to the search
