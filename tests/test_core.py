import math
from fractions import Fraction

import numpy as np
import pytest

from horolattice import core
from horolattice.core import (
    AffineLatticePoint,
    IntegerMatrix,
    SpecialLinearMatrix,
    SplittingSignature,
    TorusPoint,
    affine_apply,
    diagonal_flow,
    horo_embed,
    matrix_from_json,
    matrix_norm,
    matrix_to_json,
    torus_act,
    torus_from_json,
    torus_to_json,
)
from horolattice.errors import (
    DeterminantError,
    DimensionMismatchError,
    FlowRangeError,
    RationalityError,
)

SIG2 = SplittingSignature(1, 1)


def random_sl(rng, d=2, scale=1.5):
    t = rng.uniform(-scale, scale)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1
    diag = [math.exp(t)] + [1.0] * (d - 2) + [math.exp(-t)]
    return SpecialLinearMatrix.from_entries(q @ np.diag(diag))


def test_matrix_norm_identity():
    assert matrix_norm(SpecialLinearMatrix.from_entries(np.eye(2))) == 1.0


def test_matrix_norm_diagonal():
    g = SpecialLinearMatrix.from_entries(np.diag([2.0, 0.5]))
    assert matrix_norm(g) == 2.0


def test_matrix_norm_inverse_and_transpose_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(50):
        g = random_sl(rng)
        assert matrix_norm(g) == pytest.approx(matrix_norm(g.inv()), rel=1e-12)
        assert matrix_norm(g) == pytest.approx(matrix_norm(g.transpose()), rel=1e-12)


def test_matrix_norm_submultiplicative_with_dimension_constant():
    # |g1 g2| <= d |g1| |g2|: each product entry is a sum of d terms
    rng = np.random.default_rng(1)
    for d in (2, 3):
        for _ in range(50):
            g1, g2 = random_sl(rng, d), random_sl(rng, d)
            assert matrix_norm(g1 @ g2) <= d * matrix_norm(g1) * matrix_norm(g2) * (1 + 1e-12)


def test_diagonal_flow_identity_at_zero():
    assert np.allclose(diagonal_flow(0.0, SIG2).entries, np.eye(2))


def test_diagonal_flow_values():
    a = diagonal_flow(math.log(2.0), SIG2)
    assert np.allclose(a.entries, np.diag([2.0, 0.5]))
    a3 = diagonal_flow(1.0, SplittingSignature(1, 2))
    assert np.allclose(a3.entries, np.diag([math.e**2, math.e**-1, math.e**-1]))


def test_diagonal_flow_overflow_guard():
    with pytest.raises(FlowRangeError):
        diagonal_flow(400.0, SIG2)


def test_horo_embed():
    assert np.allclose(horo_embed([[0.0]], SIG2).entries, np.eye(2))
    g = horo_embed([[0.3]], SIG2)
    assert np.allclose(g.entries, [[1.0, 0.3], [0.0, 1.0]])
    with pytest.raises(DimensionMismatchError):
        horo_embed(np.zeros((2, 2)), SIG2)


def test_horo_conjugation_by_flow():
    sig = SplittingSignature(1, 2)
    A = np.array([[0.4, -0.7]])
    t = 0.9
    lhs = diagonal_flow(t, sig).entries @ horo_embed(A, sig).entries @ diagonal_flow(-t, sig).entries
    rhs = horo_embed(math.exp(sig.d * t) * A, sig).entries
    assert np.allclose(lhs, rhs, atol=1e-9)


def test_affine_apply_identity():
    y = AffineLatticePoint(
        SpecialLinearMatrix.from_entries(np.diag([2.0, 0.5])),
        TorusPoint.from_values(["1/3", "2/3"]),
    )
    y2 = affine_apply(SpecialLinearMatrix.from_entries(np.eye(2)), y)
    assert np.allclose(y2.linear.entries, y.linear.entries)
    assert y2.torus.coords == y.torus.coords


def test_torus_act_exact_shear():
    gamma = IntegerMatrix.from_rows([[1, 1], [0, 1]])
    b = TorusPoint.from_values(["1/3", "2/3"])
    out = torus_act(gamma, b)
    assert out.coords == (Fraction(0), Fraction(2, 3))


def test_torus_act_preserves_denominator():
    rng = np.random.default_rng(3)
    b = TorusPoint.from_values(["1/12", "7/12"])
    for _ in range(30):
        rows = np.eye(2, dtype=int)
        for _ in range(3):
            k = int(rng.integers(-4, 5))
            shear = np.array([[1, k], [0, 1]]) if rng.integers(0, 2) else np.array([[1, 0], [k, 1]])
            rows = rows @ shear
        gamma = IntegerMatrix.from_rows(rows.tolist())
        out = torus_act(gamma, b)
        assert all(12 % c.denominator == 0 for c in out.coords)


def test_torus_act_composition_exact():
    g1 = IntegerMatrix.from_rows([[2, 1], [1, 1]])
    g2 = IntegerMatrix.from_rows([[1, -3], [0, 1]])
    b = TorusPoint.from_values(["3/7", "5/7"])
    lhs = torus_act(g1, torus_act(g2, b))
    rhs = torus_act(g1 @ g2, b)
    assert lhs.coords == rhs.coords


def test_torus_point_normalization_and_mixing():
    p = TorusPoint.from_values([Fraction(7, 3), Fraction(-1, 4)])
    assert p.coords == (Fraction(1, 3), Fraction(3, 4))
    q = TorusPoint.from_values([1.25, -0.5])
    assert q.coords == (0.25, 0.5)
    with pytest.raises(RationalityError):
        TorusPoint.from_values([Fraction(1, 2), 0.3])


def test_integer_matrix_exact_inverse():
    m = IntegerMatrix.from_rows([[2, 1], [1, 1]])
    assert m.det() == 1
    inv = m.inv()
    assert (m @ inv).rows == IntegerMatrix.identity(2).rows
    m3 = IntegerMatrix.from_rows([[1, 2, 3], [0, 1, 4], [0, 0, 1]])
    assert (m3 @ m3.inv()).rows == IntegerMatrix.identity(3).rows


def cofactor_expansion_det(rows):
    """Reference determinant: Laplace expansion along the first row."""
    d = len(rows)
    if d == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * rows[0][j] * cofactor_expansion_det([row[:j] + row[j + 1 :] for row in rows[1:]])
        for j in range(d)
    )


def cofactor_expansion_inverse(rows):
    """Reference inverse of a det +-1 integer matrix: det times the adjugate."""
    d = len(rows)
    det = cofactor_expansion_det(rows)
    assert det in (1, -1)
    if d == 1:
        return ((det,),)

    def cofactor(i, j):
        minor = [row[:j] + row[j + 1 :] for k, row in enumerate(rows) if k != i]
        return (-1) ** (i + j) * cofactor_expansion_det(minor)

    return tuple(tuple(det * cofactor(j, i) for j in range(d)) for i in range(d))


def unimodular_integer_matrices(rng, d, det, steps=40, big=2**70):
    """Products of random elementary shears with det = +-1 and huge entries."""
    rows = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    rows[0][0] = det
    for _ in range(steps if d > 1 else 0):
        i, j = (int(x) for x in rng.choice(d, size=2, replace=False))
        k = int(rng.integers(-3, 4)) * (big if rng.random() < 0.1 else 1)
        rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
    return rows


def test_closed_form_integer_inverse_matches_cofactor_expansion():
    rng = np.random.default_rng(11)
    seen_big = False
    for d in (1, 2, 3):
        for det in (1, -1):
            for _ in range(40):
                rows = unimodular_integer_matrices(rng, d, det)
                seen_big |= max(abs(x) for row in rows for x in row) > 2**63
                m = IntegerMatrix.from_rows(rows)
                assert m.det() == cofactor_expansion_det(rows) == det
                assert m.inv().rows == cofactor_expansion_inverse(rows)
                assert (m @ m.inv()).rows == IntegerMatrix.identity(d).rows
    assert seen_big
    singular = IntegerMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    with pytest.raises(DeterminantError):
        singular.inv()
    m4 = IntegerMatrix.from_rows(unimodular_integer_matrices(rng, 4, 1))
    assert m4.inv().rows == cofactor_expansion_inverse([list(r) for r in m4.rows])


def test_dual_candidate_cofactors_match_inverse_transpose():
    # the reduction takes C^{-T} of a det +1 candidate as its cofactor matrix
    rng = np.random.default_rng(12)
    for _ in range(60):
        rows = unimodular_integer_matrices(rng, 3, 1)
        direct = tuple(zip(*core._int_adjugate(rows)))
        inv = cofactor_expansion_inverse(rows)
        assert direct == tuple(zip(*inv))
        assert direct == IntegerMatrix.from_rows(rows).inv().transpose().rows


def np_delete_unimodular_inverse(a):
    """Reference: the adjugate with each minor taken by np.delete."""
    det = float(np.linalg.det(a))
    adj = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            minor = np.delete(np.delete(a, j, axis=0), i, axis=1)
            adj[i, j] = ((-1) ** (i + j)) * (minor[0, 0] * minor[1, 1] - minor[0, 1] * minor[1, 0])
    return adj / det


def test_unimodular_inverse_matches_np_delete_minors_bit_for_bit():
    rng = np.random.default_rng(13)
    cases = [random_sl(rng, 3, scale=s).entries for s in (0.5, 3.0, 9.0) for _ in range(30)]
    cases += [np.eye(3), np.array([[1.0, 0.0, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]])]
    for a in cases:
        got = core._unimodular_inverse(np.array(a))
        want = np_delete_unimodular_inverse(np.array(a))
        assert got.tobytes() == want.tobytes()  # signed zeros included


def test_special_linear_inverse_is_computed_on_first_use():
    g = SpecialLinearMatrix.from_entries([[2.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    inv = g.inverse
    assert inv is g.inverse and not inv.flags.writeable
    assert inv.tobytes() == core._unimodular_inverse(g.entries).tobytes()


def test_rational_torus_act_matches_fraction_sums():
    rng = np.random.default_rng(14)
    b = TorusPoint.from_values(["1/3", "5/7", "2/11"])
    for _ in range(30):
        gamma = IntegerMatrix.from_rows(unimodular_integer_matrices(rng, 3, 1))
        want = tuple(sum(Fraction(gamma.rows[i][j]) * b.coords[j] for j in range(3)) % 1 for i in range(3))
        assert torus_act(gamma, b).coords == want


def test_special_linear_rejects_bad_determinant():
    with pytest.raises(DeterminantError):
        SpecialLinearMatrix.from_entries([[2.0, 0.0], [0.0, 2.0]])


def test_special_linear_inverse_consistency():
    rng = np.random.default_rng(4)
    for _ in range(30):
        g = random_sl(rng, 3)
        assert np.abs(g.entries @ g.inverse - np.eye(3)).max() < 1e-9


def test_serialization_round_trip():
    g = SpecialLinearMatrix.from_entries([[1.0, 0.25], [0.0, 1.0]])
    assert np.allclose(matrix_from_json(matrix_to_json(g)).entries, g.entries)
    b = TorusPoint.from_values(["1/3", "2/3"])
    assert torus_from_json(torus_to_json(b)).coords == b.coords
    f = TorusPoint.from_values([0.125, 0.7])
    assert torus_from_json(torus_to_json(f)).coords == f.coords
