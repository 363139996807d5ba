import math

import numpy as np
import pytest

from horolattice.core import (
    AffineLatticePoint,
    SpecialLinearMatrix,
    SplittingSignature,
    TorusPoint,
    affine_apply,
    diagonal_flow,
    horo_embed,
    torus_act,
)
from horolattice.errors import EmptyLocalizationError, PrecisionError
from horolattice.fundamental import reduce_matrix
from horolattice.harness import decay_fit
from horolattice.orbits import (
    EmpiricalTorusMeasure,
    NeighborhoodV,
    decompose,
    gamma_orbit,
    localized_measure,
    orbit_pushforward,
    sample_V,
    sigma,
)

SIG = SplittingSignature(1, 1)
V = NeighborhoodV(SIG)


def test_sample_V_deterministic_and_chunk_stable():
    a = sample_V(V, 5000, seed=42)
    b = sample_V(V, 5000, seed=42)
    assert np.array_equal(a, b)
    # chunk independence: a longer run starts with the shorter one
    c = sample_V(V, 9000, seed=42)
    assert np.array_equal(c[:5000], a)
    assert not np.array_equal(sample_V(V, 5000, seed=43), a)


def test_sample_V_statistics():
    us = sample_V(V, 40_000, seed=7)[:, 0, 0]
    eta = V.half_width
    assert abs(us.mean()) <= 3 * eta / math.sqrt(len(us) * 12) * 2
    # coverage of a sub-box of volume ratio v
    v = 0.25
    frac = float(((us > -eta) & (us < -eta + v * 2 * eta)).mean())
    assert abs(frac - v) <= 3 * math.sqrt(v / len(us))
    assert np.all(np.abs(us) <= eta)


def test_decompose_at_identity():
    x_rep = reduce_matrix(np.eye(2)).rep
    xi, gamma = decompose(x_rep, [[0.0]], 0.0, SIG)
    assert np.array_equal(xi.entries, x_rep.entries)
    assert gamma.rows == ((1, 0), (0, 1))


def test_decompose_matches_brute_force_shear():
    # s=1, u=0.3 on the unit-lattice coset, against the full gamma box
    x_rep = reduce_matrix(np.eye(2)).rep
    xi, gamma = decompose(x_rep, [[0.3]], 1.0, SIG)
    P = diagonal_flow(1.0, SIG).entries @ horo_embed([[0.3]], SIG).entries @ x_rep.entries
    assert np.abs(xi.entries @ gamma.to_array() - P).max() < 1e-9
    # oracle: F over P gamma' for all gamma' with entries <= 1000, chunked
    from tests.test_fundamental import sl2z_box

    box = sl2z_box(60)  # the optimum here is tiny; 60 covers it many times over
    H = np.einsum("ij,kjl->kil", P, box)
    fmin = float(np.sqrt((H * H).sum(axis=(1, 2)) / 2.0).min())
    from horolattice.fundamental import F_value

    assert F_value(xi) <= fmin + 1e-9


def test_decompose_reconstruction_random():
    rng = np.random.default_rng(1)
    x_rep = reduce_matrix(np.array([[1.0, 0.4], [0.3, 1.12]])).rep
    for _ in range(50):
        u = rng.uniform(-0.5, 0.5)
        s = rng.uniform(0, 8)
        xi, gamma = decompose(x_rep, [[u]], s, SIG)
        P = diagonal_flow(s, SIG).entries @ horo_embed([[u]], SIG).entries @ x_rep.entries
        scale = max(1.0, np.abs(xi.entries).max(), np.abs(xi.inverse).max())
        assert np.abs(xi.entries @ gamma.to_array() - P).max() <= 1e-6 * scale
        assert gamma.det() == 1


def test_sigma_reduced_input_unchanged():
    rep = reduce_matrix(np.array([[1.0, 0.2], [0.1, (1 + 0.02) / 1.0]])).rep
    b = TorusPoint.from_values(["1/5", "2/5"])
    y = AffineLatticePoint(rep, b)
    assert sigma(y).coords == b.coords


def test_sigma_rational_denominator_divides():
    rng = np.random.default_rng(2)
    b = TorusPoint.from_values(["1/6", "5/6"])
    for _ in range(10):
        g = SpecialLinearMatrix.from_entries(
            np.diag([math.exp(0.5), math.exp(-0.5)]) @ np.array([[1, rng.uniform(-3, 3)], [0, 1]])
        )
        s = sigma(AffineLatticePoint(g, b))
        assert all(6 % c.denominator == 0 for c in s.coords)


def test_orbit_continuity_at_identity():
    b = TorusPoint.from_values([0.21, 0.77])
    y0 = AffineLatticePoint(SpecialLinearMatrix.from_entries(np.eye(2)), b)
    tiny = NeighborhoodV(SIG, half_width=1e-6)
    nu = orbit_pushforward(y0, 0.0, tiny, 200, seed=0)
    base = sigma(y0).as_floats()
    gap = np.abs(nu.coords - base)
    assert np.minimum(gap, 1 - gap).max() < 1e-4


def test_orbit_siggam_cocycle_independent_path():
    b0 = TorusPoint.from_values([math.sqrt(2) - 1, 0.3])
    g0 = SpecialLinearMatrix.from_entries(np.array([[1.0, 0.25], [0.5, 1.125]]))
    y0 = AffineLatticePoint(g0, b0)
    t = 5.0
    nu = orbit_pushforward(y0, t, V, 300, seed=5)
    for i in range(0, 300, 23):
        mover = diagonal_flow(t, SIG).compose(horo_embed(nu.us[i], SIG))
        direct = sigma(affine_apply(mover, y0)).as_floats()
        gap = np.abs(direct - nu.coords[i])
        assert np.minimum(gap, 1 - gap).max() < 1e-8


def test_orbit_rational_grid_exact():
    y0 = AffineLatticePoint(
        SpecialLinearMatrix.from_entries(np.eye(2)), TorusPoint.from_values(["1/3", "2/3"])
    )
    nu = orbit_pushforward(y0, 6.0, V, 5000, seed=11)
    assert nu.is_rational and nu.denominator == 3
    assert np.all((nu.numerators >= 0) & (nu.numerators < 3))
    assert abs(float(nu.weights.sum()) - 1.0) <= 1e-12


@pytest.mark.parametrize(
    "b0, q, sig, count",
    [
        # decimal strings parse as rationals over q = 2 * 10^16; gamma @ num0
        # in plain int64 overflows for some rows
        (["0.41421356237309515", "0.7320508075688772"], 2 * 10**16, SIG, 4096),
        # numerators are int64, so 2^63 - 1 is the largest denominator accepted;
        # a negative gamma entry gives a numerator q - k, and (q - k) / q
        # rounds to 1.0 as a float
        ([f"1/{2**63 - 1}", "0"], 2**63 - 1, SIG, 4096),
        ([f"1/{2**63 - 1}", "0", "0"], 2**63 - 1, SplittingSignature(2, 1), 32),
    ],
    ids=["decimal-strings", "int64-edge", "int64-edge-generic"],
)
def test_orbit_rational_fiber_exact_at_large_denominator(b0, q, sig, count):
    y0 = AffineLatticePoint(SpecialLinearMatrix.from_entries(np.eye(sig.d)), TorusPoint.from_values(b0))
    nu = orbit_pushforward(y0, 4.0, NeighborhoodV(sig), count, seed=0)
    assert nu.denominator == q
    assert np.all((nu.coords >= 0) & (nu.coords < 1))
    b_start = torus_act(reduce_matrix(y0.linear).gamma, y0.torus)
    num0 = [int(c * q) for c in b_start.coords]
    for gamma, got in zip(nu.gammas.tolist(), nu.numerators.tolist()):
        expected = [sum(g * n for g, n in zip(row, num0)) % q for row in gamma]
        assert got == expected


@pytest.mark.parametrize("sig", [SIG, SplittingSignature(2, 1)])
def test_orbit_rational_fiber_denominator_over_cap(sig):
    over = AffineLatticePoint(
        SpecialLinearMatrix.from_entries(np.eye(sig.d)),
        TorusPoint.from_values([f"1/{2**63}"] + ["0"] * (sig.d - 1)),
    )
    with pytest.raises(PrecisionError, match="denominator"):
        orbit_pushforward(over, 4.0, NeighborhoodV(sig), 16, seed=0)


def test_orbit_generic_path_matches_bulk():
    # the scalar fallback signature (m=2, n=1) runs the generic loop
    sig = SplittingSignature(2, 1)
    Vg = NeighborhoodV(sig)
    y0 = AffineLatticePoint(
        SpecialLinearMatrix.from_entries(np.eye(3)), TorusPoint.from_values([0.11, 0.5, 0.77])
    )
    nu = orbit_pushforward(y0, 1.5, Vg, 120, seed=3)
    assert nu.size == 120
    assert nu.heights.min() >= 1.0 - 1e-9
    s = nu.sample(0)
    assert s.gamma.det() == 1


def test_orbit_sample_accessor():
    y0 = AffineLatticePoint(
        SpecialLinearMatrix.from_entries(np.eye(2)), TorusPoint.from_values(["1/3", "2/3"])
    )
    nu = orbit_pushforward(y0, 3.0, V, 500, seed=2)
    s = nu.sample(7)
    assert s.height_after == pytest.approx(nu.heights[7])
    assert s.sigma_point.is_rational
    recon = s.xi.entries @ s.gamma.to_array()
    P = (
        diagonal_flow(3.0, SIG).entries
        @ horo_embed(nu.us[7], SIG).entries
        @ reduce_matrix(np.eye(2)).rep.entries
    )
    assert np.abs(recon - P).max() < 1e-6


def test_localized_measure_retains_everything_at_large_radius():
    y0 = AffineLatticePoint(
        SpecialLinearMatrix.from_entries(np.eye(2)), TorusPoint.from_values([0.3, 0.4])
    )
    nu = orbit_pushforward(y0, 0.5, V, 200, seed=4)
    dense_idx = int(np.argmin(nu.heights))
    z = SpecialLinearMatrix.from_entries(nu.xis[dense_idx])
    loc = localized_measure(nu, z, 10.0)
    assert loc.localization_mass == pytest.approx(1.0, abs=1e-9)


def test_localized_measure_empty_at_tiny_radius():
    y0 = AffineLatticePoint(
        SpecialLinearMatrix.from_entries(np.eye(2)), TorusPoint.from_values([0.3, 0.4])
    )
    nu = orbit_pushforward(y0, 4.0, V, 2000, seed=4)
    gz = np.array([[1.7, 0.3], [0.2, (1 + 0.06) / 1.7]])
    z = reduce_matrix(gz).rep
    with pytest.raises(EmptyLocalizationError):
        localized_measure(nu, z, 1e-7)


def test_localized_measure_matches_ball_fraction():
    y0 = AffineLatticePoint(
        SpecialLinearMatrix.from_entries(np.eye(2)), TorusPoint.from_values([0.3, 0.4])
    )
    nu = orbit_pushforward(y0, 6.0, V, 20_000, seed=12)
    gz = np.array([[1.1, 0.3], [0.2, (1 + 0.06) / 1.1]])
    z = reduce_matrix(gz).rep
    r = 0.12
    loc = localized_measure(nu, z, r)
    from horolattice.orbits import _proxy_distances_2x2

    dists = _proxy_distances_2x2(nu.xis, z, 5 * r)
    inner = float(nu.weights[dists <= r].sum())
    outer = float(nu.weights[dists <= 5 * r].sum())
    assert inner - 1e-12 <= loc.localization_mass <= outer + 1e-12


def einsum_proxy_distances_2x2(xis, z_rep, reach, certify_below=0.0):
    """Reference: _proxy_distances_2x2 with one einsum and one stacked matmul per box size."""
    from horolattice.fundamental import x_distance
    from horolattice.orbits import _LOC_K_MAX, _det1_box_table

    za = z_rep.entries
    z_frob = math.sqrt(float((za * za).sum()))
    S = z_frob * (1.0 + reach) + 1e-9
    N = xis.shape[0]
    dists = np.full(N, np.inf)
    frob = np.sqrt((xis * xis).sum(axis=(1, 2)))
    colmax = np.maximum(
        np.linalg.norm(xis[:, :, 0], axis=1), np.linalg.norm(xis[:, :, 1], axis=1)
    )
    alive = frob <= S
    idx_alive = np.nonzero(alive)[0]
    Ks = np.ceil(S * colmax[alive] * 1.0001).astype(np.int64)
    zinv = z_rep.inverse
    eye = np.eye(2)
    capped = Ks > _LOC_K_MAX
    Ks_eff = np.minimum(Ks, _LOC_K_MAX)
    for K in np.unique(Ks_eff):
        table = _det1_box_table(int(K))
        sel = Ks_eff == K
        rows = idx_alive[sel]
        H = np.einsum("nij,kjl->nkil", xis[rows], table)
        D = H @ zinv - eye
        dsq = (D * D).sum(axis=(2, 3))
        dists[rows] = np.sqrt(dsq.min(axis=1))
    for i, row in zip(np.nonzero(capped)[0], idx_alive[capped]):
        if dists[row] <= certify_below:
            continue
        dists[row] = x_distance(xis[row], z_rep, max_distance=reach * 1.5)
    return dists, int(capped.sum())


def test_proxy_distances_match_einsum_form_bit_for_bit():
    from horolattice.orbits import _proxy_distances_2x2

    y0 = AffineLatticePoint(
        SpecialLinearMatrix.from_entries(np.eye(2)), TorusPoint.from_values([0.3, 0.4])
    )
    nu = orbit_pushforward(y0, 6.0, V, 1200, seed=5)
    z = reduce_matrix(np.array([[1.1, 0.3], [0.2, (1 + 0.06) / 1.1]])).rep
    capped_total = 0
    for r in (0.05, 0.12, 0.6):
        want, capped = einsum_proxy_distances_2x2(nu.xis, z, 5 * r, certify_below=r)
        got = _proxy_distances_2x2(nu.xis, z, 5 * r, certify_below=r)
        assert got.tobytes() == want.tobytes()
        capped_total += capped
    assert capped_total > 0  # the _LOC_K_MAX cap was exercised


def test_localization_mass_is_a_constructor_field():
    y0 = AffineLatticePoint(
        SpecialLinearMatrix.from_entries(np.eye(2)), TorusPoint.from_values([0.3, 0.4])
    )
    nu = orbit_pushforward(y0, 0.5, V, 200, seed=4)
    assert nu.localization_mass is None
    z = SpecialLinearMatrix.from_entries(nu.xis[int(np.argmin(nu.heights))])
    loc = localized_measure(nu, z, 0.5)
    assert 0.0 < loc.localization_mass <= 1.0
    assert nu.reweighted(loc.weights).localization_mass is None


def test_gamma_orbit_trivial_at_time_zero():
    x_rep = reduce_matrix(np.eye(2)).rep
    tiny = NeighborhoodV(SIG, half_width=1e-4)
    res = gamma_orbit(x_rep, (1, 0), 0.0, tiny, 500, seed=1, eps=0.5)
    assert res.kept_fraction == 1.0
    uniq, masses = res.bin_masses()
    assert uniq.shape[0] == 1
    assert masses[0] == pytest.approx(1.0)


def test_gamma_orbit_kept_fraction_grows_with_eps_shrinking():
    x_rep = reduce_matrix(np.eye(2)).rep
    s = 4.0
    kept = []
    for eps in (0.4, 0.2, 0.1, 0.05):
        res = gamma_orbit(x_rep, (1, 0), s, V, 20_000, seed=6, eps=eps)
        kept.append(res.kept_fraction)
    # V_{x, eps} exhausts V as eps shrinks: 1 - kept <= C eps^beta
    drops = [1 - k for k in kept]
    assert all(drops[i + 1] <= drops[i] + 1e-12 for i in range(len(drops) - 1))
    assert drops[-1] < 0.05


def test_gamma_orbit_inputs_validated():
    x_rep = reduce_matrix(np.eye(2)).rep
    with pytest.raises(ValueError):
        gamma_orbit(x_rep, (0, 0), 1.0, V, 100, seed=0, eps=0.1)
    with pytest.raises(ValueError):
        gamma_orbit(x_rep, (1, 0), 1.0, V, 100, seed=0, eps=0.7)


def test_inductive_structure_identity_and_boundary_bound():
    # The inductive structure rests on a_s u0 a_{t-s} phi(A) =
    # a_t phi(A + e^{-(m+n)(t-s)} A0): (1) test that identity per sample
    # through two independent reduction paths; (2) the measure-level gap
    # between the t-translate and the pushed (t-s)-translate is a
    # boundary-strip term of relative size delta/(2 eta) with
    # delta = e^{-(m+n) dt} |A0| and dt = t - s, so it obeys the
    # explicit bound |gap| <= |f|_inf * delta/eta plus Monte Carlo
    # noise.  (The rate itself is not resolvable below the CLT floor
    # at desk sample sizes; the noise-floor rule applies.)
    y0 = AffineLatticePoint(
        SpecialLinearMatrix.from_entries(np.eye(2)), TorusPoint.from_values([0.21, 0.77])
    )
    t = 6.0
    u0 = 0.37
    eta = V.half_width

    # (1) exact two-path identity on a handful of samples
    for dt in (1.0, 2.5):
        s = t - dt
        mover = diagonal_flow(s, SIG).compose(horo_embed([[u0]], SIG))
        for A in (-0.31, 0.07, 0.44):
            inner = affine_apply(
                diagonal_flow(t - s, SIG).compose(horo_embed([[A]], SIG)), y0
            )
            lhs = sigma(affine_apply(mover, inner))
            rhs = sigma(
                affine_apply(
                    diagonal_flow(t, SIG).compose(
                        horo_embed([[A + math.exp(-SIG.d * dt) * u0]], SIG)
                    ),
                    y0,
                )
            )
            gap = np.abs(lhs.as_floats() - rhs.as_floats())
            assert np.minimum(gap, 1 - gap).max() < 1e-8

    # (2) measure-level consistency with the boundary-strip bound
    count = 20_000
    us = sample_V(V, count, seed=9)

    def trigpoly(coords):
        return np.cos(2 * np.pi * coords[:, 0]) + np.sin(
            2 * np.pi * (coords[:, 0] + coords[:, 1])
        )

    from horolattice.fundamental import reduce_batch_2x2

    x_rep = reduce_matrix(np.eye(2)).rep
    X = x_rep.entries
    b = torus_act(reduce_matrix(np.eye(2)).gamma, y0.torus).as_floats()

    def orbit_mean(shift):
        u = us[:, 0, 0] + shift
        P = np.empty((count, 2, 2))
        P[:, 0, 0] = math.exp(t) * (X[0, 0] + u * X[1, 0])
        P[:, 0, 1] = math.exp(t) * (X[0, 1] + u * X[1, 1])
        P[:, 1, 0] = math.exp(-t) * X[1, 0]
        P[:, 1, 1] = math.exp(-t) * X[1, 1]
        _, gammas = reduce_batch_2x2(P)
        coords = (gammas.astype(float) @ b) % 1.0
        return float(trigpoly(coords).mean())

    val_t = orbit_mean(0.0)
    f_sup = 2.0
    noise = 6.0 / math.sqrt(count)  # two independent clouds of |f| <= 2
    for dt in (0.5, 1.0, 2.0, 3.0):
        delta = math.exp(-SIG.d * dt) * u0
        gap = abs(orbit_mean(delta) - val_t)
        assert gap <= f_sup * delta / eta + noise


def test_empirical_measure_validation():
    with pytest.raises(ValueError):
        EmpiricalTorusMeasure(coords=np.zeros((3, 2)), weights=np.array([0.5, 0.5, 0.5]))
    with pytest.raises(ValueError):
        EmpiricalTorusMeasure(coords=np.full((2, 2), 1.5), weights=np.array([0.5, 0.5]))
