"""The factorization certificate of P = xi gamma, against the rules it replaced.

Three rules used to check a decomposition, each on its own path:
`orbits.decompose` held the reconstruction residual max|P - xi gamma| to
1e-6 max(1, |xi|, |xi^{-1}|) and the integrality residual
max|xi^{-1} P - gamma| to 1e-6; the bulk d = 2 path held reconstruction
to 1e-6 max(1, |xi|) and integrality to 1e-6, with a closed-form
inverse; `reduce_matrix` held only integrality, to
1e-6 max(1, |xi|, |xi^{-1}|).  They are kept here as references: the
certificate must reject every triple that any of them rejects.
"""

import numpy as np
import pytest

from horolattice import fundamental, orbits
from horolattice.core import (
    AffineLatticePoint,
    SpecialLinearMatrix,
    SplittingSignature,
    TorusPoint,
    _int_adjugate,
    _inv_unimodular,
    diagonal_flow_vector,
)
from horolattice.errors import PrecisionError
from horolattice.fundamental import factorization_residuals, reduce_matrix
from horolattice.orbits import NeighborhoodV, decompose, orbit_pushforward

TOL = 1e-6


def former_inverse(xi):
    """The inverse the former rules used: the adjugate over np.linalg.det."""
    return np.array(_int_adjugate(xi.tolist())) / float(np.linalg.det(xi))


def former_decompose_rule(P, xi, gamma):
    """Whether `orbits.decompose` accepted (P, xi, gamma)."""
    xi_inv = former_inverse(xi)
    scale = max(1.0, np.abs(xi).max(), np.abs(xi_inv).max())
    return not np.abs(P - xi @ gamma).max() > TOL * scale and not np.abs(xi_inv @ P - gamma).max() > TOL


def former_bulk_rule(P, xi, gamma):
    """Whether the bulk d = 2 path accepted (P, xi, gamma)."""
    (a, b), (c, d) = xi.tolist()
    xi_inv = np.array([[d, -b], [-c, a]]) / (a * d - b * c)
    scale = max(1.0, np.abs(xi).max())
    return not np.abs(P - xi @ gamma).max() > TOL * scale and not np.abs(xi_inv @ P - gamma).max() > TOL


def former_reduce_rule(P, xi, gamma):
    """Whether `reduce_matrix` accepted (P, xi, gamma): integrality only, scaled."""
    xi_inv = former_inverse(xi)
    scale = max(1.0, np.abs(xi).max(), np.abs(xi_inv).max())
    return not np.abs(xi_inv @ P - gamma).max() > TOL * scale


def random_sl(rng, d):
    """Q1 D Q2 with rotations Q and a unimodular diagonal D of spread up to e^4."""
    q1, _ = np.linalg.qr(rng.normal(size=(d, d)))
    q2, _ = np.linalg.qr(rng.normal(size=(d, d)))
    q1[:, 0] *= np.sign(np.linalg.det(q1))
    q2[:, 0] *= np.sign(np.linalg.det(q2))
    s = rng.uniform(-4.0, 4.0, d - 1)
    return q1 @ np.diag(np.exp(np.append(s, -s.sum()))) @ q2


def random_gamma(rng, d):
    gamma = np.eye(d)
    for _ in range(4):
        i, j = rng.choice(d, size=2, replace=False)
        gamma[i] += rng.integers(-3, 4) * gamma[j]
    return gamma


def orbit_triples(sig, t, count):
    """(P, xi, gamma) of an orbit from the identity, with P = a_t phi(u) x_rep rebuilt from the draws."""
    d = sig.d
    y0 = AffineLatticePoint(SpecialLinearMatrix.from_entries(np.eye(d)), TorusPoint.from_values([0.0] * d))
    nu = orbit_pushforward(y0, t, NeighborhoodV(sig), count, seed=3)
    H = np.tile(np.eye(d), (count, 1, 1))
    H[:, : sig.m, sig.m :] = nu.us
    P = diagonal_flow_vector(t, sig)[None, :, None] * (H @ reduce_matrix(np.eye(d)).rep.entries)
    return list(zip(P, nu.xis, nu.gammas.astype(float)))


def perturbed(rng, triples):
    """Each triple as it is, with xi moved by a relative 1e-12 to 1e-4, and with gamma off by one."""
    out = []
    for P, xi, gamma in triples:
        delta = 10.0 ** rng.uniform(-12, -4)
        noisy = xi + delta * np.abs(xi).max() * rng.normal(size=xi.shape)
        off = gamma.copy()
        off[tuple(rng.integers(0, len(xi), 2))] += rng.choice([-1, 1])
        out += [(P, xi, gamma, "exact"), (P, noisy, gamma, "noisy xi"), (P, xi, off, "gamma off by one")]
    return out


def former_rule_cases(d):
    """The cases (P, xi, gamma, kind) the former rules are checked on: random and orbit triples, perturbed."""
    rng = np.random.default_rng(40 + d)
    triples = []
    for _ in range(200):
        xi, gamma = random_sl(rng, d), random_gamma(rng, d)
        triples.append((xi @ gamma, xi, gamma))
    sig = SplittingSignature(1, 1) if d == 2 else SplittingSignature(1, 2)
    triples += orbit_triples(sig, 4.0 if d == 2 else 3.0, 200 if d == 2 else 40)
    return perturbed(rng, triples)


@pytest.mark.parametrize("d", [2, 3])
def test_certificate_rejects_whatever_a_former_rule_rejects(d):
    cases = former_rule_cases(d)
    P, xis, gammas = (np.array([case[k] for case in cases]) for k in range(3))
    certified = factorization_residuals(P, xis, gammas).max(axis=1) <= 1.0
    kind = np.array([case[3] for case in cases])
    assert certified[kind == "exact"].all()

    rules = [former_decompose_rule, former_reduce_rule] + ([former_bulk_rule] if d == 2 else [])
    for rule in rules:
        accepted = np.array([rule(*case[:3]) for case in cases])
        # the rule rejects every gamma off by one, and a share of the noisy xi
        assert not accepted[kind == "gamma off by one"].any(), rule.__name__
        assert (~accepted[kind == "noisy xi"]).sum() >= 50, rule.__name__
        missed = np.nonzero(~accepted & certified)[0]
        assert missed.size == 0, (rule.__name__, missed[:5])


def stacked_residuals(P, reps, gammas):
    """`factorization_residuals` as stacked matmuls, the form d = 2 had before its entrywise sums."""
    gf = gammas.astype(float)
    tol = TOL * np.maximum(1.0, np.abs(reps).max(axis=(1, 2)))
    recon = np.abs(P - reps @ gf).max(axis=(1, 2)) / tol
    return np.stack([recon, np.abs(_inv_unimodular(reps) @ P - gf).max(axis=(1, 2)) / TOL], axis=1)


def stacked_inverse_residuals(P, reps, gammas):
    """The d = 2 entrywise certificate with xi^{-1} from `_inv_unimodular`'s stack, as before it was taken on entry rows."""
    x, v, p, g = (np.ascontiguousarray(a.reshape(-1, 4).T, dtype=float) for a in (reps, _inv_unimodular(reps), P, gammas))
    recon = integ = 0.0
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
        recon = np.maximum(recon, np.abs(p[2 * i + j] - (x[2 * i] * g[j] + x[2 * i + 1] * g[2 + j])))
        integ = np.maximum(integ, np.abs(v[2 * i] * p[j] + v[2 * i + 1] * p[2 + j] - g[2 * i + j]))
    return np.stack([recon / (TOL * np.maximum(1.0, np.abs(x).max(axis=0))), integ / TOL], axis=1)


@pytest.mark.parametrize("d", [2, 3])
def test_entrywise_certificate_gives_the_stacked_verdicts(d):
    cases = former_rule_cases(d)
    P, xis, gammas = (np.array([case[k] for case in cases]) for k in range(3))
    ratios = factorization_residuals(P, xis, gammas)
    reference = stacked_residuals(P, xis, gammas)
    assert np.array_equal(ratios <= 1.0, reference <= 1.0)
    if d == 3:  # d = 3 keeps the stacked form, bit for bit
        assert ratios.tobytes() == reference.tobytes()
    else:  # the sums round apart from a matmul's, by a few ulps of the products: here under 1e-6 of a tolerance
        assert np.abs(ratios - reference).max() < 1e-5
        # the inverse on entry rows is `_inv_unimodular`'s, entry for entry
        assert ratios.tobytes() == stacked_inverse_residuals(P, xis, gammas).tobytes()


def test_certificate_fails_a_nan_row():
    cases = former_rule_cases(2)[:30]
    P, xis, gammas = (np.array([case[k] for case in cases[::3]]) for k in range(3))  # the exact triples
    fundamental.certify_factorization(P, xis, gammas, "decompose", 4.0)
    for i, j in ((3, (0, 0)), (7, (1, 1))):
        bad = xis.copy()
        bad[i][j] = np.nan
        with pytest.raises(PrecisionError, match=rf"^decompose of sample {i} at t = 4: reconstruction residual nan "):
            fundamental.certify_factorization(P, bad, gammas, "decompose", 4.0)


def sheared(rep, delta, i, j):
    """rep (I + delta e_ij): a det-1 move of xi by delta times its column i."""
    S = np.eye(len(rep))
    S[i, j] = delta
    return rep @ S


def corrupting(real_core, delta, i, j):
    def core(arr, budget, start=None):
        rep, *rest = real_core(arr, budget, start)
        return (sheared(rep, delta, i, j), *rest)

    return core


def test_certificate_raises_through_every_entry_point(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(fundamental, "_reduce_core", corrupting(fundamental._reduce_core, 1e-4, 0, 1))
        with pytest.raises(PrecisionError, match=r"^reconstruction residual \S+ exceeds 1e-06$"):
            reduce_matrix(np.array([[2.0, 1.0], [1.0, 1.0]]))

    with monkeypatch.context() as m:
        m.setattr(orbits, "_reduce_core", corrupting(orbits._reduce_core, 1e-4, 0, 1))
        with pytest.raises(PrecisionError, match=r"^reconstruction residual "):
            decompose(SpecialLinearMatrix.from_entries(np.eye(3)), [[0.3, -0.2]], 1.0, SplittingSignature(1, 2))

    real_batch = orbits.reduce_batch_2x2

    def corrupt_batch(P, budget, t=None):
        reps, gammas = real_batch(P, budget, t=t)
        reps[7] = sheared(reps[7], 1e-4, 0, 1)
        return reps, gammas

    monkeypatch.setattr(orbits, "reduce_batch_2x2", corrupt_batch)
    y0 = AffineLatticePoint(SpecialLinearMatrix.from_entries(np.eye(2)), TorusPoint.from_values([0.0, 0.0]))
    with pytest.raises(PrecisionError, match=r"^decompose of sample 7 at t = 4: reconstruction residual "):
        orbit_pushforward(y0, 4.0, NeighborhoodV(SplittingSignature(1, 1)), 20, seed=0)


def test_reduce_matrix_tolerances_do_not_grow_with_the_inverse(monkeypatch):
    # g reduces to xi = diag(-100, -0.01) with gamma = [[-1, -1], [0, -1]], so
    # max(1, |xi|, |xi^{-1}|) = 100, and the former rule let integrality
    # reach 1e-4 and never checked reconstruction
    g = np.array([[100.0, 100.0], [0.0, 0.01]])
    real_core = fundamental._reduce_core

    def reduce_with(delta, i, j):
        monkeypatch.setattr(fundamental, "_reduce_core", corrupting(real_core, delta, i, j))
        return reduce_matrix(g)

    # xi (I + delta e_10) moves xi gamma by 0.01 delta and xi^{-1} g by delta
    reduce_with(0.9e-6, 1, 0)
    with pytest.raises(PrecisionError, match=r"^integrality residual 1.1e-06 exceeds 1e-06$"):
        reduce_with(1.1e-6, 1, 0)
    # xi (I + delta e_01) moves xi gamma by 100 delta and xi^{-1} g by delta
    reduce_with(0.9e-6, 0, 1)
    with pytest.raises(PrecisionError, match=r"^reconstruction residual 0.00011 exceeds 0.0001$"):
        reduce_with(1.1e-6, 0, 1)
