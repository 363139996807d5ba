import cmath
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from horolattice.core import AffineLatticePoint, SpecialLinearMatrix, SplittingSignature, TorusPoint
from horolattice.errors import PrecisionError
from horolattice.measures import (
    MAX_PHASE_DENOMINATOR,
    FlatteningInstance,
    FlatteningSearchError,
    _verify_flattening,
    ball_mass,
    flatten_weights,
    fourier_coefficient,
    fourier_spectrum,
    max_concentration,
)
from horolattice import measures
from horolattice.orbits import EmpiricalTorusMeasure, NeighborhoodV, orbit_pushforward


def dirac(point, d=2):
    return EmpiricalTorusMeasure(
        coords=np.array([point], dtype=float), weights=np.array([1.0])
    )


def grid_measure(q, d=2):
    pts = np.array(
        [[i, j] for i in range(q) for j in range(q)], dtype=np.int64
    )
    n = pts.shape[0]
    return EmpiricalTorusMeasure(
        coords=pts.astype(float) / q,
        weights=np.full(n, 1.0 / n),
        numerators=pts,
        denominator=q,
    )


def uniform_cloud(n, seed=0, d=2):
    rng = np.random.default_rng(seed)
    return EmpiricalTorusMeasure(
        coords=rng.random((n, d)), weights=np.full(n, 1.0 / n)
    )


def test_fourier_dirac_at_origin():
    nu = dirac([0.0, 0.0])
    for m in ((1, 0), (3, -2), (0, 5)):
        assert fourier_coefficient(nu, m) == pytest.approx(1.0)


def test_fourier_zero_mode_exact():
    nu = uniform_cloud(999)
    assert fourier_coefficient(nu, (0, 0)) == 1.0


def test_fourier_grid_identity():
    nu = grid_measure(3)
    for m, expected in (((3, 0), 1.0), ((0, 3), 1.0), ((3, 3), 1.0), ((6, 3), 1.0)):
        assert fourier_coefficient(nu, m) == pytest.approx(expected, abs=1e-13)
    for m in ((1, 0), (2, 1), (1, 2), (4, 2)):
        assert abs(fourier_coefficient(nu, m)) < 1e-13


def test_fourier_oracle_direct_sum():
    # independent oracle: plain python sum of exponentials
    rng = np.random.default_rng(1)
    coords = rng.random((200, 2))
    w = rng.random(200)
    w /= w.sum()
    w[-1] = 1.0 - w[:-1].sum()
    nu = EmpiricalTorusMeasure(coords=coords, weights=w)
    m = (2, -3)
    oracle = sum(
        wi * cmath.exp(-2j * math.pi * (m[0] * x + m[1] * y))
        for wi, (x, y) in zip(w, coords)
    )
    assert fourier_coefficient(nu, m) == pytest.approx(oracle, abs=1e-12)


def test_fourier_noise_floor():
    nu = uniform_cloud(100_000, seed=2)
    floor = 5.0 / math.sqrt(nu.size)
    for m1 in range(-8, 9):
        for m2 in range(0, 9):
            if (m1, m2) == (0, 0) or (m2 == 0 and m1 < 0):
                continue
            assert abs(fourier_coefficient(nu, (m1, m2))) <= floor


def test_fourier_conjugate_symmetry():
    nu = uniform_cloud(500, seed=3)
    spec = fourier_spectrum(nu, 3)
    for m, c in spec.coeffs.items():
        mm = tuple(-x for x in m)
        assert spec.coeffs[mm] == pytest.approx(c.conjugate(), abs=1e-12)
    assert spec[(0, 0)] == 1.0


def test_fourier_spectrum_box_guard():
    nu = uniform_cloud(10)
    with pytest.raises(ValueError):
        fourier_spectrum(nu, 10_000)


def test_ball_mass():
    nu = dirac([0.25, 0.75])
    assert ball_mass(nu, [0.25, 0.75], 0.01) == 1.0
    cloud = uniform_cloud(50_000, seed=5)
    rho = 0.1
    mass = ball_mass(cloud, [0.5, 0.5], rho)
    expect = (2 * rho) ** 2
    assert abs(mass - expect) <= 3 * math.sqrt(expect / cloud.size)
    with pytest.raises(ValueError):
        ball_mass(cloud, [0.5, 0.5], 0.5)
    # monotone in rho
    masses = [ball_mass(cloud, [0.3, 0.3], r) for r in (0.05, 0.1, 0.2)]
    assert masses[0] <= masses[1] <= masses[2]


def test_ball_mass_wraparound():
    nu = dirac([0.99, 0.0])
    assert ball_mass(nu, [0.01, 0.0], 0.05) == 1.0


def test_max_concentration_dirac():
    nu = dirac([0.37, 0.61])
    p, mass = max_concentration(nu, 0.05)
    assert mass == pytest.approx(1.0)
    gap = np.abs(p.as_floats() - np.array([0.37, 0.61]))
    assert np.minimum(gap, 1 - gap).max() <= 0.05


def test_max_concentration_two_atoms():
    nu = EmpiricalTorusMeasure(
        coords=np.array([[0.1, 0.1], [0.6, 0.6]]), weights=np.array([0.5, 0.5])
    )
    p, mass = max_concentration(nu, 0.05)
    assert mass == pytest.approx(0.5)
    # lexicographically smallest among tied centers
    q, _ = max_concentration(nu, 0.05)
    assert np.array_equal(q.as_floats(), p.as_floats())


def test_max_concentration_uniform():
    cloud = uniform_cloud(20_000, seed=6)
    rho = 0.1
    _, mass = max_concentration(cloud, rho)
    expect = (2 * rho) ** 2
    assert expect <= mass <= expect * 1.6


def full_scan_max_concentration(nu, rho):
    """Reference: the full scan, every centre against every sample, masses by fsum."""
    steps = int(math.ceil(2.0 / rho))
    axes = [np.arange(steps) * (rho / 2.0) for _ in range(nu.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=1) % 1.0
    centers = np.vstack([grid, nu.coords])
    best_mass = -1.0
    best_center = None
    chunk = max(1, 10_000_000 // max(nu.size, 1))
    for start in range(0, centers.shape[0], chunk):
        block = centers[start : start + chunk]
        diff = np.abs(block[:, None, :] - nu.coords[None, :, :])
        dist = np.minimum(diff, 1.0 - diff).max(axis=2)
        for j in range(block.shape[0]):
            mass = math.fsum(nu.weights[dist[j] <= rho])
            if mass > best_mass + 1e-15:
                best_mass = mass
                best_center = tuple(float(x) for x in block[j])
            elif abs(mass - best_mass) <= 1e-15 and tuple(block[j]) < best_center:
                best_center = tuple(float(x) for x in block[j])
    return best_center, best_mass


def cloud_of(coords, weights=None):
    coords = np.asarray(coords, dtype=float) % 1.0
    n = coords.shape[0]
    w = np.full(n, 1.0 / n) if weights is None else np.asarray(weights, dtype=float)
    return EmpiricalTorusMeasure(coords=coords, weights=w / w.sum())


def _concentration_clouds():
    rng = np.random.default_rng(11)
    # 2500 atoms on the edges of the bounding grid's cells, plus 120 on a ball's boundary
    m = int(min(measures._MAX_CELLS, measures._CELLS_PER_SAMPLE * 2620) ** 0.5)
    lattice = rng.integers(0, m, (2500, 2)) / m
    rim = np.array([[0.3, 0.3], [0.35, 0.3], [0.3, 0.25], [0.35, 0.35]])
    # isolated atoms whose masses step by less than the tie gap of the search
    chain = np.array([[i / 5.0 + 0.01, j / 5.0 + 0.01] for i in range(5) for j in range(5)])
    return [
        ("uniform", cloud_of(rng.random((3000, 2))), 0.05),
        ("uniform-odd-size", cloud_of(rng.random((777, 2))), 0.1),
        ("clustered", cloud_of(np.vstack([rng.random((2500, 2)), 0.4 + 0.02 * rng.standard_normal((400, 2))])), 0.05),
        ("unequal-weights", cloud_of(rng.random((3000, 2)), rng.random(3000) ** 4), 0.07),
        ("cell-edges", cloud_of(np.vstack([lattice, rim.repeat(30, axis=0)])), 0.05),
        ("wrap", cloud_of(np.vstack([0.015 * rng.standard_normal((600, 2)), rng.random((900, 2))])), 0.03),
        ("coarse-grid-ties", cloud_of(rng.integers(0, 13, (2000, 2)) / 13.0), 0.07),
        ("exact-ties", cloud_of([[0.1, 0.1], [0.6, 0.6], [0.3, 0.85]]), 0.05),
        ("near-tie-chain", cloud_of(chain, 0.04 + 3e-15 * rng.permutation(25)), 0.05),
        ("d1", cloud_of(rng.random((4000, 1))), 0.1),
        ("d1-ties", cloud_of(rng.integers(0, 50, (1000, 1)) / 50.0), 0.03),
        ("d3", cloud_of(rng.random((1500, 3))), 0.15),
        ("d3-clustered", cloud_of(np.vstack([rng.random((1000, 3)), 0.7 + 0.03 * rng.standard_normal((200, 3))])), 0.1),
    ]


@pytest.mark.parametrize(
    "nu,rho", [pytest.param(nu, rho, id=name) for name, nu, rho in _concentration_clouds()]
)
def test_max_concentration_matches_full_scan(nu, rho):
    centre, mass = full_scan_max_concentration(nu, rho)
    p, got = max_concentration(nu, rho)
    assert tuple(p.as_floats()) == centre
    assert np.float64(got).tobytes() == np.float64(mass).tobytes()


def test_fourier_spectrum_matches_fourier_coefficient_bit_for_bit():
    rng = np.random.default_rng(12)
    q7 = rng.integers(0, 7, (3000, 2))
    w = rng.random(3000)
    clouds = [
        uniform_cloud(3000, seed=13),
        EmpiricalTorusMeasure(coords=rng.random((2000, 2)), weights=w[:2000] / w[:2000].sum()),
        dirac([0.0, 0.0]),  # every coefficient has an exactly zero imaginary part
        dirac([0.5, 0.25]),
        grid_measure(3),
        EmpiricalTorusMeasure(
            coords=q7 / 7.0, weights=w / w.sum(), numerators=q7, denominator=7
        ),
        EmpiricalTorusMeasure(coords=rng.random((500, 3)), weights=np.full(500, 1.0 / 500)),
    ]
    for nu in clouds:
        spec = fourier_spectrum(nu, 4)
        keys = list(spec.coeffs)
        assert keys == sorted(keys)
        got = np.array([spec.coeffs[m] for m in keys])
        want = np.array([fourier_coefficient(nu, m) for m in keys])
        assert got.tobytes() == want.tobytes()


def test_spectrum_bits_do_not_depend_on_the_chunks_of_the_last_axis():
    # 2 * 300 + 1 frequencies span three chunks of the last axis, and
    # 1500 samples two blocks
    rng = np.random.default_rng(23)
    w = rng.random(1500)
    q11 = rng.integers(0, 11, (1500, 1))
    clouds = [
        EmpiricalTorusMeasure(coords=rng.random((1500, 1)), weights=w / w.sum()),
        EmpiricalTorusMeasure(coords=q11 / 11.0, weights=w / w.sum(), numerators=q11, denominator=11),
    ]
    assert 2 * 300 + 1 > 2 * measures._FREQ_CHUNK and 1500 > measures._FOURIER_BLOCK
    for nu in clouds:
        spec = fourier_spectrum(nu, 300)
        got = np.array([spec[(k,)] for k in range(-300, 301)])
        want = np.array([fourier_coefficient(nu, (k,)) for k in range(-300, 301)])
        assert got.tobytes() == want.tobytes()


def _oracle_coefficient(coords, weights, m):
    """sum_n w_n e(-m . x_n) at 120 bits; the doubles and m . x_n are exact there."""
    with mpmath.workprec(120):
        return mpmath.fsum(
            mpmath.mpf(float(w)) * mpmath.expjpi(-2 * mpmath.fsum(k * mpmath.mpf(float(c)) for k, c in zip(m, x)))
            for x, w in zip(coords, weights)
        )


def _rational_oracle(nums, q, weights, m):
    """sum_n w_n e(-(m . U_n mod q) / q) at 120 bits, one root per residue."""
    with mpmath.workprec(120):
        mass = [mpmath.mpf(0)] * q
        for u, w in zip(nums.tolist(), weights):
            r = sum(k * x for k, x in zip(m, u)) % q
            mass[r] += mpmath.mpf(float(w))
        return mpmath.fsum(mass[r] * mpmath.expjpi(mpmath.mpf(-2 * r) / q) for r in range(q))


def _oracle_clouds():
    rng = np.random.default_rng(21)
    w2 = rng.random(300)
    w3 = rng.random(80)
    q7 = rng.integers(0, 7, (500, 2))
    w7 = rng.random(500)
    return [
        ("d2-float", EmpiricalTorusMeasure(coords=rng.random((300, 2)), weights=w2 / w2.sum()), 8),
        ("d3-float", EmpiricalTorusMeasure(coords=rng.random((80, 3)), weights=w3 / w3.sum()), 2),
        ("q7", EmpiricalTorusMeasure(coords=q7 / 7.0, weights=w7 / w7.sum(), numerators=q7, denominator=7), 4),
    ]


@pytest.mark.parametrize(
    "nu,max_freq", [pytest.param(nu, f, id=name) for name, nu, f in _oracle_clouds()]
)
def test_fourier_spectrum_matches_a_120_bit_oracle(nu, max_freq):
    spec = fourier_spectrum(nu, max_freq)
    for m in itertools.product(range(-max_freq, max_freq + 1), repeat=nu.dim):
        if nu.is_rational:
            want = _rational_oracle(nu.numerators, nu.denominator, nu.weights, m)
        elif not any(m) or m > tuple(-k for k in m):
            want = _oracle_coefficient(nu.coords, nu.weights, m)
        else:
            continue  # the oracle of -m checks conj c(m) below
        for key, value in ((m, want), (tuple(-k for k in m), mpmath.conj(want))):
            assert abs(mpmath.mpc(spec[key]) - value) <= 1e-14, key


def test_single_coefficients_at_large_frequencies_match_a_120_bit_oracle():
    # the phase k x mod 1 is formed exactly in its high part, so the error
    # does not grow with |m|; the direct angle 2 pi m . x loses |m| eps
    rng = np.random.default_rng(22)
    w = rng.random(64)
    nu = EmpiricalTorusMeasure(coords=rng.random((64, 2)), weights=w / w.sum())
    for m in ((10**6, -3), (-987_654, 123_457), (2**30 + 1, 5), (0, 3 * 10**5)):
        want = _oracle_coefficient(nu.coords, nu.weights, m)
        assert abs(mpmath.mpc(fourier_coefficient(nu, m)) - want) <= 1e-14, m


def test_on_grid_coefficient_of_a_rational_orbit_is_exactly_one():
    # the 8 merged points carry correctly rounded weight sums and phase 0,
    # so only their own sum is rounded, not 10^5 additions of 1e-5
    y0 = AffineLatticePoint(SpecialLinearMatrix.from_entries(np.eye(2)), TorusPoint.from_values(["1/3", "2/3"]))
    nu = orbit_pushforward(y0, 3.0, NeighborhoodV(SplittingSignature(1, 1)), 100_000, 2026)
    assert nu.is_rational and nu.denominator == 3
    assert fourier_coefficient(nu, (3, 0)) == 1.0
    assert fourier_spectrum(nu, 3)[(0, -3)] == 1.0


_BLAS_PROBE = """
import numpy as np
from horolattice import measures
from horolattice.orbits import EmpiricalTorusMeasure
rng = np.random.default_rng(17)
coords = rng.random((20000, 2))
w = rng.random(20000)
w /= w.sum()
w[-1] = 1.0 - w[:-1].sum()
nu = EmpiricalTorusMeasure(coords=coords, weights=w)
q5 = rng.integers(0, 5, (20000, 2))
rational = EmpiricalTorusMeasure(coords=q5 / 5.0, weights=w, numerators=q5, denominator=5)
for cloud in (nu, rational):
    spec = measures.fourier_spectrum(cloud, 6)
    print(np.array([spec.coeffs[m] for m in sorted(spec.coeffs)]).tobytes().hex())
centre, mass = measures.max_concentration(nu, 0.05)
print(centre.as_floats().tobytes().hex(), np.float64(mass).tobytes().hex())
"""


def test_spectrum_and_concentration_bits_do_not_depend_on_the_blas_thread_count():
    # with gemv masses this cloud's concentration mass moved by one ulp
    # between one and two OpenBLAS threads
    src = str(Path(measures.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-B", "-c", _BLAS_PROBE], capture_output=True, text=True, timeout=300, env=env
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert len(outputs[0].split()) == 4
    assert outputs[0] == outputs[1]


def two_point_cloud(q):
    nums = np.array([[1, 0], [q - 1, 2]], dtype=np.int64)
    return EmpiricalTorusMeasure(
        coords=(nums / q) % 1.0, weights=np.array([0.5, 0.5]), numerators=nums, denominator=q
    )


def test_fourier_denominator_cap_edge():
    q = MAX_PHASE_DENOMINATOR
    nu = two_point_cloud(q)
    c = fourier_coefficient(nu, (1, 0))
    assert c == pytest.approx(0.5 * cmath.exp(-2j * math.pi / q) + 0.5 * cmath.exp(2j * math.pi / q), abs=1e-12)
    spec = fourier_spectrum(nu, 1)
    assert spec[(1, 0)] == c and spec[(-1, 0)] == fourier_coefficient(nu, (-1, 0))
    over = two_point_cloud(q + 1)
    for call in (lambda: fourier_coefficient(over, (1, 0)), lambda: fourier_spectrum(over, 1)):
        with pytest.raises(PrecisionError, match=str(q + 1)):
            call()
    assert fourier_coefficient(over, (0, 0)) == 1.0  # the zero mode needs no phases
    # decimal-string fibers give q = 2 * 10^16, which used to exhaust memory
    with pytest.raises(PrecisionError, match=str(2 * 10**16)):
        fourier_coefficient(two_point_cloud(2 * 10**16), (1, 0))


def make_instance(rng, nI=30, nJ=12, lam=1.0):
    a = rng.uniform(0.3, 1.0, (nI, nJ)) * lam / (nI * nJ)
    theta0 = rng.uniform(0, 2 * np.pi)
    b = rng.uniform(0.5, 1.0, (nI, nJ)) * np.exp(1j * (theta0 + rng.normal(0, 0.5, (nI, nJ))))
    tau = abs((a * b).sum()) * 0.999
    return FlatteningInstance(a, b, lam, tau)


def test_flattening_all_ones():
    nI, nJ = 10, 8
    a = np.full((nI, nJ), 1.0 / (nI * nJ))
    b = np.ones((nI, nJ), dtype=complex)
    inst = FlatteningInstance(a, b, 1.0, 1.0)
    res = flatten_weights(inst)
    assert len(res.cols) >= nJ / 2
    assert len(res.rows) == nI  # every row average is 1 >= tau/(64 lam)


def test_flattening_constant_phase():
    nI, nJ = 10, 8
    a = np.full((nI, nJ), 1.0 / (nI * nJ))
    b = np.exp(1j * 2.1) * np.ones((nI, nJ), dtype=complex)
    inst = FlatteningInstance(a, b, 1.0, 1.0)
    res = flatten_weights(inst)
    assert len(res.rows) == nI


def test_flattening_hypotheses_checked():
    a = np.full((4, 4), 1.0)  # violates the cap lam/|IxJ|
    with pytest.raises(ValueError):
        FlatteningInstance(a, np.ones((4, 4), dtype=complex), 1.0, 0.5)
    a = np.full((4, 4), 1.0 / 16)
    with pytest.raises(ValueError):
        FlatteningInstance(a, np.zeros((4, 4), dtype=complex), 1.0, 0.5)


def test_flattening_output_verified_and_oracle():
    rng = np.random.default_rng(7)
    for trial in range(25):
        inst = make_instance(rng)
        res = flatten_weights(inst, seed=trial)
        assert _verify_flattening(inst, res.cols) is not None
        assert len(res.cols) >= inst.n_cols / 2
        # oracle: some valid subset exists among all 2^12
        found = False
        for bits in range(1 << inst.n_cols):
            cols = tuple(j for j in range(inst.n_cols) if bits >> j & 1)
            if len(cols) * 2 < inst.n_cols:
                continue
            if _verify_flattening(inst, cols) is not None:
                found = True
                break
        assert found


def test_flattening_deterministic():
    rng = np.random.default_rng(8)
    inst = make_instance(rng)
    r1 = flatten_weights(inst, seed=5)
    r2 = flatten_weights(inst, seed=5)
    assert r1.cols == r2.cols and r1.rows == r2.rows
