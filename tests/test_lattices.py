import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horolattice.core import SplittingSignature, _bezout, _cross, _int_det, diagonal_flow_vector
from horolattice.errors import BudgetExceededError, PrecisionError
from horolattice.lattices import (
    LatticeDescriptor,
    RadialStepFunction,
    _complete_to_unimodular,
    constrained_shortest,
    dual_basis,
    enumerate_ball,
    height,
    lll_reduce,
    lll_reduce_batch,
    shortest_vector,
    siegel_transform,
    successive_minima,
)


def random_basis(rng, d=2, spread=2.0):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1
    ts = rng.uniform(-spread, spread, d - 1)
    diag = np.exp(np.concatenate([ts, [-ts.sum()]]))
    S = np.eye(d)
    for i in range(d):
        for j in range(i + 1, d):
            S[i, j] = rng.uniform(-1, 1)
    return q @ np.diag(diag) @ S


def brute_shortest(B, norm, box=50):
    d = B.shape[0]
    best = None
    rng = range(-box, box + 1)
    grid = np.array(np.meshgrid(*[list(rng)] * d, indexing="ij")).reshape(d, -1).T
    grid = grid[np.any(grid != 0, axis=1)]
    vecs = grid @ B.T
    lens = np.abs(vecs).max(axis=1) if norm == "sup" else np.linalg.norm(vecs, axis=1)
    return float(lens.min())


def test_shortest_vector_examples():
    Z2 = LatticeDescriptor.from_matrix(np.eye(2))
    coeff, length = shortest_vector(Z2)
    assert length == pytest.approx(1.0)
    L = LatticeDescriptor.from_matrix(np.diag([math.e, 1 / math.e]))
    coeff, length = shortest_vector(L)
    assert length == pytest.approx(1 / math.e)
    assert tuple(abs(c) for c in coeff) == (0, 1)


def test_shortest_vector_matches_brute_force():
    # the sup-norm shortest vector, and the Euclidean one as the first successive minimum
    rng = np.random.default_rng(7)
    for _ in range(25):
        B = random_basis(rng, 2)
        L = LatticeDescriptor.from_matrix(B)
        assert shortest_vector(L)[1] == pytest.approx(brute_shortest(B, "sup"), rel=1e-9)
        assert successive_minima(L)[0] == pytest.approx(brute_shortest(B, "euclidean"), rel=1e-9)


def test_shortest_vector_matches_brute_force_d3():
    rng = np.random.default_rng(8)
    for _ in range(8):
        B = random_basis(rng, 3, spread=1.0)
        L = LatticeDescriptor.from_matrix(B)
        assert successive_minima(L)[0] == pytest.approx(brute_shortest(B, "euclidean", box=8), rel=1e-9)


def test_successive_minima_examples():
    assert successive_minima(LatticeDescriptor.from_matrix(np.eye(3))) == pytest.approx([1, 1, 1])
    assert successive_minima(LatticeDescriptor.from_matrix(np.diag([2.0, 0.5]))) == pytest.approx(
        [0.5, 2.0]
    )


def test_successive_minima_nondecreasing_and_minkowski_window():
    rng = np.random.default_rng(9)
    for d in (2, 3):
        for _ in range(40):
            L = LatticeDescriptor.from_matrix(random_basis(rng, d, spread=1.5))
            minima = successive_minima(L)
            assert all(minima[i] <= minima[i + 1] + 1e-12 for i in range(d - 1))
            prod = float(np.prod(minima))
            assert 0.1 <= prod <= 10.0


def test_successive_minima_against_full_ball_oracle():
    rng = np.random.default_rng(10)
    for _ in range(10):
        B = random_basis(rng, 3, spread=0.8)
        L = LatticeDescriptor.from_matrix(B)
        minima = successive_minima(L)
        # oracle: full ball enumeration plus greedy rank filtering
        Bred, _ = lll_reduce(B)
        radius = max(np.linalg.norm(Bred[:, j]) for j in range(3))
        items = []
        for c in enumerate_ball(Bred, radius * (1 + 1e-12)):
            v = Bred @ np.array(c, dtype=float)
            items.append((float(np.linalg.norm(v)), c))
        items.sort()
        chosen, mins = [], []
        for ln, c in items:
            M = np.array(chosen + [list(c)], dtype=float)
            if np.linalg.matrix_rank(M, tol=1e-9) > len(chosen):
                chosen.append(list(c))
                mins.append(ln)
                if len(mins) == 3:
                    break
        assert minima == pytest.approx(mins, rel=1e-9)


def test_height_examples_and_in_K():
    assert height(LatticeDescriptor.from_matrix(np.eye(3))) == pytest.approx(1.0)
    t = 0.7
    L = LatticeDescriptor.from_matrix(np.diag([math.exp(t), math.exp(-t)]))
    assert height(L) == pytest.approx(math.exp(t))


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_height_at_least_one(seed):
    rng = np.random.default_rng(seed)
    L = LatticeDescriptor.from_matrix(random_basis(rng, 2))
    assert height(L) >= 1.0 - 1e-9


def test_dual_basis():
    Z = LatticeDescriptor.from_matrix(np.eye(2))
    assert np.allclose(dual_basis(Z).basis.entries, np.eye(2))
    L = LatticeDescriptor.from_matrix(np.diag([2.0, 0.5]))
    assert np.allclose(dual_basis(L).basis.entries, np.diag([0.5, 2.0]))


def test_dual_pairing_integral_and_mahler():
    rng = np.random.default_rng(12)
    worst_mahler = 0.0
    for _ in range(60):
        d = int(rng.integers(2, 4))
        B = random_basis(rng, d, spread=1.2)
        L = LatticeDescriptor.from_matrix(B)
        D = dual_basis(L)
        pair = D.basis.entries.T @ L.basis.entries
        assert np.abs(pair - np.rint(pair)).max() < 1e-9
        lam1 = successive_minima(L)[0]
        lamd_dual = successive_minima(D)[-1]
        worst_mahler = max(worst_mahler, lam1 * lamd_dual)
    # Mahler-type bound: fitted constant stays modest in d <= 3
    assert worst_mahler <= 6.0


def test_siegel_transform_examples():
    Z2 = LatticeDescriptor.from_matrix(np.eye(2))
    assert siegel_transform(RadialStepFunction([(0.1, 1.0)], norm="sup"), Z2) == 0.0
    assert siegel_transform(RadialStepFunction([(1.0, 1.0)], norm="sup"), Z2) == 8.0
    # two-level step: 8 points at radius 1, 16 more at radius 2 (sup)
    f = RadialStepFunction([(1.0, 2.0), (2.0, 1.0)], norm="sup")
    assert siegel_transform(f, Z2) == 8 * 2.0 + 16 * 1.0


def test_enumeration_budget_error():
    L = LatticeDescriptor.from_matrix(np.eye(2))
    with pytest.raises(BudgetExceededError):
        list(enumerate_ball(L.basis.entries, 100.0, budget=50))


def test_enumerate_ball_complete():
    rng = np.random.default_rng(13)
    B = random_basis(rng, 2, spread=0.8)
    radius = 2.0
    got = set()
    for c in enumerate_ball(B, radius):
        got.add(c)
        got.add(tuple(-x for x in c))
    expected = set()
    for a in range(-20, 21):
        for b in range(-20, 21):
            if (a, b) == (0, 0):
                continue
            if np.linalg.norm(B @ np.array([a, b], float)) <= radius:
                expected.add((a, b))
    assert got == expected


def _deep_cusp_basis(rng, d):
    # lambda_1 = 0.01, below the d = 2 batch threshold 0.015
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1
    diag = [0.01, 100.0] if d == 2 else [0.01, 2.0, 50.0]
    S = np.eye(d)
    S[0, 1:] = rng.uniform(-1, 1, d - 1)
    return q @ np.diag(diag) @ S


@pytest.mark.parametrize(
    "d, deep, radius", [(2, False, 4.0), (2, True, 210.0), (3, False, 3.0), (3, True, 5.0)]
)
def test_enumerate_ball_primitive_is_filtered_full_walk(d, deep, radius):
    rng = np.random.default_rng(21 + d)
    B = _deep_cusp_basis(rng, d) if deep else random_basis(rng, d, spread=1.0)
    full = list(enumerate_ball(B, radius))
    expected = [c for c in full if math.gcd(*c) == 1]
    assert len(expected) < len(full)
    assert list(enumerate_ball(B, radius, primitive=True)) == expected


def test_constrained_shortest_excludes_span():
    B = np.diag([0.1, 1.0, 3.0])
    c, l2, _ = constrained_shortest(B, 0)
    assert math.sqrt(l2) == pytest.approx(0.1)
    c, l2, _ = constrained_shortest(B, 1)
    assert math.sqrt(l2) == pytest.approx(1.0)
    assert c[0] == 0 and c[1] != 0
    c, l2, _ = constrained_shortest(B, 2)
    assert math.sqrt(l2) == pytest.approx(3.0)


def test_radial_step_function_validation():
    with pytest.raises(ValueError):
        RadialStepFunction([])
    with pytest.raises(ValueError):
        RadialStepFunction([(2.0, 1.0), (1.0, 1.0)])
    f = RadialStepFunction([(1.0, 3.0)], norm="euclidean")
    assert f([0.5, 0.5]) == 3.0
    assert f([2.0, 0.0]) == 0.0


def full_recompute_lll(basis, delta=0.99, max_rounds=10_000):
    """Reference LLL: the whole Gram-Schmidt is rebuilt after every change."""
    B = np.array(basis, dtype=float)
    d = B.shape[0]
    U = [[1 if i == j else 0 for j in range(d)] for i in range(d)]

    def gram_schmidt():
        Q = np.zeros_like(B)
        mu = np.zeros((d, d))
        norms2 = np.zeros(d)
        for j in range(d):
            v = B[:, j].copy()
            for i in range(j):
                mu[j, i] = 0.0 if norms2[i] == 0 else float(B[:, j] @ Q[:, i]) / norms2[i]
                v -= mu[j, i] * Q[:, i]
            Q[:, j] = v
            norms2[j] = float(v @ v)
        return mu, norms2

    rounds = 0
    k = 1
    mu, norms2 = gram_schmidt()
    while k < d:
        rounds += 1
        if rounds > max_rounds:
            raise BudgetExceededError("LLL failed to converge within the round budget")
        for i in range(k - 1, -1, -1):
            r = round(mu[k, i])
            if r != 0:
                B[:, k] -= r * B[:, i]
                for row in range(d):
                    U[row][k] -= r * U[row][i]
                mu, norms2 = gram_schmidt()
        if norms2[k] >= (delta - mu[k, k - 1] ** 2) * norms2[k - 1]:
            k += 1
        else:
            tmp = B[:, k - 1].copy()
            B[:, k - 1] = B[:, k]
            B[:, k] = -tmp
            for row in range(d):
                U[row][k - 1], U[row][k] = U[row][k], -U[row][k - 1]
            mu, norms2 = gram_schmidt()
            k = max(k - 1, 1)
    return B, U


def _flowed_bases():
    """a_t phi(u) x for the d <= 3 signatures, t up to 8."""
    rng = np.random.default_rng(21)
    for m, n in ((1, 1), (1, 2), (2, 1)):
        sig = SplittingSignature(m, n)
        for t in (0.5, 2.0, 4.0, 6.0, 8.0):
            for _ in range(12):
                H = np.eye(sig.d)
                H[:m, m:] = rng.uniform(-0.5, 0.5, (m, n))
                x = np.eye(sig.d) if rng.random() < 0.5 else random_basis(rng, sig.d, spread=0.5)
                yield diagonal_flow_vector(t, sig)[:, None] * (H @ x)


def test_lll_matches_full_recompute_bit_for_bit():
    rng = np.random.default_rng(20)
    bases = [random_basis(rng, d, spread=s) for d in (2, 3) for s in (0.5, 2.0, 5.0) for _ in range(15)]
    bases += list(_flowed_bases())
    reduced = 0
    for basis in bases:
        B, U = lll_reduce(basis)
        B_ref, U_ref = full_recompute_lll(basis)
        assert U == U_ref
        assert B.tobytes() == B_ref.tobytes()
        reduced += U != [[1 if i == j else 0 for j in range(len(U))] for i in range(len(U))]
    assert reduced > len(bases) // 2  # most inputs do real reduction work


def _flowed_stack(m, n, t, count, rng):
    """a_t phi(u) for count uniform draws of u, as one stack."""
    sig = SplittingSignature(m, n)
    H = np.broadcast_to(np.eye(sig.d), (count, sig.d, sig.d)).copy()
    H[:, :m, m:] = rng.uniform(-0.5, 0.5, (count, m, n))
    return diagonal_flow_vector(t, sig)[:, None] * H


def _assert_batch_matches_scalar(stack):
    B, U = lll_reduce_batch(stack)
    assert B.shape == stack.shape and U.dtype == np.int64
    for i, basis in enumerate(stack):
        B_ref, U_ref = lll_reduce(basis)
        assert B[i].tobytes() == B_ref.tobytes(), i
        assert U[i].tolist() == U_ref, i


def test_lll_batch_matches_scalar_bit_for_bit():
    # the scalar LLL is the reference, row by row
    rng = np.random.default_rng(22)
    flowed = list(_flowed_bases())
    for d in (2, 3):
        _assert_batch_matches_scalar(np.array([b for b in flowed if b.shape[0] == d]))
    for d in (2, 3, 4):
        for spread in (0.5, 2.0, 5.0):
            _assert_batch_matches_scalar(np.array([random_basis(rng, d, spread) for _ in range(40)]))
    _assert_batch_matches_scalar(random_basis(rng, 3, 2.0)[None])
    # at the (1, 2) and (2, 1) caps, where the reduction takes the most rounds
    _assert_batch_matches_scalar(_flowed_stack(1, 2, 8.0, 10_000, rng))
    _assert_batch_matches_scalar(_flowed_stack(2, 1, 5.0, 10_000, rng))


def test_lll_batch_precision_failures_name_the_lowest_failing_row():
    # a transform entry beyond int64, which the scalar LLL carries in Python ints
    huge = np.array([np.eye(2), [[1.0, 2.0**70], [0.0, 1.0]]])
    assert lll_reduce(huge[1])[1][0][1] == -(2**70)
    with pytest.raises(PrecisionError, match=r"^height of sample 1 at t = 2: LLL transform leaves int64"):
        lll_reduce_batch(huge, stage="height", t=2.0)
    with pytest.raises(PrecisionError, match=r"^LLL of sample 0: LLL size-reduction step is not finite"):
        lll_reduce_batch(np.array([[[1.0, np.nan], [0.0, 1.0]]]))


def _first_ext_gcd(a, b):
    old_r, r, old_s, s, old_t, t = a, b, 1, 0, 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def first_completion(t):
    """Reference: the completion as first written, with its own Euclid and sign fixes."""
    if len(t) == 2:
        a, b = t
        gg, u, v = _first_ext_gcd(a, b)
        if gg < 0:
            u, v = -u, -v
        return [[a, -v], [b, u]]
    a, b, c = t
    if a == 0 and b == 0:
        return [[0, 1, 0], [0, 0, 1 * c], [c, 0, 0]] if c == 1 else [[0, 1, 0], [0, 0, -1], [-1, 0, 0]]
    g1 = math.gcd(abs(a), abs(b))
    v2 = [-b // g1, a // g1, 0]

    def cross(w):
        return (t[1] * w[2] - t[2] * w[1], t[2] * w[0] - t[0] * w[2], t[0] * w[1] - t[1] * w[0])

    nvec = cross(v2)
    if math.gcd(*nvec) != 1:
        for e in ([1, 0, 0], [0, 1, 0], [0, 0, 1]):
            w = [v2[i] + e[i] for i in range(3)]
            if math.gcd(*cross(w)) == 1:
                v2, nvec = w, cross(w)
                break
    g1_, pp, qq = _first_ext_gcd(nvec[0], nvec[1])
    g2_, rr, ss = _first_ext_gcd(g1_, nvec[2])
    if g2_ < 0:
        rr, ss = -rr, -ss
    v3 = [rr * pp, rr * qq, ss]
    return [[t[0], v2[0], v3[0]], [t[1], v2[1], v3[1]], [t[2], v2[2], v3[2]]]


def test_completion_of_every_primitive_vector_in_a_box():
    # entries in [-6, 6]: Bezout for lengths 1-3, the completion for 2 and 3
    unit_steps = 0
    for n in (1, 2, 3):
        box = [t for t in itertools.product(range(-6, 7), repeat=n) if math.gcd(*t) == 1]
        for t in box:
            assert sum(x * c for x, c in zip(t, _bezout(t))) == 1
            if n == 1:
                continue
            cols = _complete_to_unimodular(t)
            assert tuple(row[0] for row in cols) == t and _int_det(cols) == 1
            assert cols == first_completion(t)
            if n == 3 and t[:2] != (0, 0):
                g = math.gcd(t[0], t[1])
                unit_steps += math.gcd(*_cross(t, (-t[1] // g, t[0] // g, 0))) != 1
        if n == 3:
            assert len(box) == 1730
    assert unit_steps == 396
