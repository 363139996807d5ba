import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horolattice.core import SplittingSignature, diagonal_flow_vector
from horolattice.errors import BudgetExceededError
from horolattice.lattices import (
    LatticeDescriptor,
    RadialStepFunction,
    constrained_shortest,
    dual_basis,
    enumerate_ball,
    height,
    lll_reduce,
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
    coeff, length = shortest_vector(Z2, "sup")
    assert length == pytest.approx(1.0)
    L = LatticeDescriptor.from_matrix(np.diag([math.e, 1 / math.e]))
    coeff, length = shortest_vector(L, "sup")
    assert length == pytest.approx(1 / math.e)
    assert tuple(abs(c) for c in coeff) == (0, 1)


def test_shortest_vector_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(25):
        B = random_basis(rng, 2)
        L = LatticeDescriptor.from_matrix(B)
        for norm in ("sup", "euclidean"):
            _, length = shortest_vector(L, norm)
            assert length == pytest.approx(brute_shortest(B, norm), rel=1e-9)


def test_shortest_vector_matches_brute_force_d3():
    rng = np.random.default_rng(8)
    for _ in range(8):
        B = random_basis(rng, 3, spread=1.0)
        L = LatticeDescriptor.from_matrix(B)
        _, length = shortest_vector(L, "euclidean")
        assert length == pytest.approx(brute_shortest(B, "euclidean", box=8), rel=1e-9)


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
