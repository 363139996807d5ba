import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horolattice.core import IntegerMatrix, TorusPoint
from horolattice.diophantine import (
    WeylInstance,
    dirichlet_cap,
    weyl_bound,
    weyl_count,
    zeta,
    zeta_property_suite,
)
from horolattice.errors import RationalityError

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def brute_zeta(b, T, n_max=100_000):
    # independent oracle: plain scan with a running minimum
    vec = np.atleast_1d(np.asarray(b, dtype=float))
    best = math.inf
    for n in range(1, n_max + 1):
        x = (n * vec) % 1.0
        best = min(best, float(np.max(np.minimum(x, 1.0 - x))))
        if best * T <= n * n:
            return n
    raise AssertionError("oracle scan ran away")


def test_zeta_half():
    assert zeta(TorusPoint.from_values(["1/2"]), 100.0) == 2


def test_zeta_golden_example():
    assert brute_zeta(GOLDEN, 100.0) == 4
    assert zeta(GOLDEN, 100.0) == 4


def test_zeta_matches_oracle_random():
    rng = np.random.default_rng(0)
    for _ in range(60):
        d = int(rng.integers(1, 4))
        b = tuple(rng.random(d))
        T = 10 ** rng.uniform(0.5, 6.0)
        assert zeta(b, T) == brute_zeta(b, T)


def test_zeta_exact_rational_path():
    b = TorusPoint.from_values(["1/7", "3/7"])
    assert zeta(b, 1e9) <= 7  # the denominator always catches it
    z = zeta(b, 10.0)
    assert z == brute_zeta([1 / 7, 3 / 7], 10.0)


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_zeta_monotone_in_T(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))
    b = tuple(rng.random(d))
    T1 = 10 ** rng.uniform(0.5, 6.0)
    T2 = T1 * 10 ** rng.uniform(0.0, 2.0)
    assert zeta(b, T1) <= zeta(b, T2)


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_zeta_dirichlet_cap(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))
    b = tuple(rng.random(d))
    T = 10 ** rng.uniform(0.5, 8.0)
    assert zeta(b, T) <= dirichlet_cap(T, d)


def test_dirichlet_cap_monotone_and_small_T():
    assert dirichlet_cap(0.5, 2) == 1
    caps = [dirichlet_cap(10.0**k, 2) for k in range(1, 9)]
    assert all(caps[i] <= caps[i + 1] for i in range(len(caps) - 1))


def test_type_implies_zeta_growth():
    # zeta(b, T) >> T^{1/(M+1)} for type-M points; fit the constant
    ratios = []
    for T in (10.0**k for k in range(2, 8)):
        ratios.append(zeta(GOLDEN, T) / T ** (1.0 / 3.0))
    c_fit = min(ratios)
    assert c_fit > 0.3
    assert max(ratios) / min(ratios) < 4.0  # genuinely T^{1/3} growth


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_zeta_property_suite_random(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 4))
    b = tuple(rng.random(d))
    T = 10 ** rng.uniform(0.5, 6.0)
    c = 10 ** rng.uniform(0.01, 1.5)
    rows = np.eye(d, dtype=np.int64)
    for _ in range(int(rng.integers(1, 4))):
        i, j = rng.integers(0, d, 2)
        if i == j:
            continue
        E = np.eye(d, dtype=np.int64)
        E[i, j] = rng.integers(-2, 3)
        rows = rows @ E
    gamma = IntegerMatrix.from_rows(rows.tolist())
    report = zeta_property_suite(b, T, c, gamma)
    assert report.all_ok, report


def test_weyl_count_fixed_points():
    assert weyl_count(WeylInstance(0.0, 100, 0.5, 0.1)) == 0
    assert weyl_count(WeylInstance(0.0, 100, 0.05, 0.1)) == 100


def test_weyl_count_half():
    assert weyl_count(WeylInstance(0.5, 100, 0.5, 0.1)) == 50


def test_weyl_count_golden_equidistribution():
    count = weyl_count(WeylInstance(GOLDEN, 1000, 0.25, 0.05))
    assert abs(count - 100) <= 5


def test_weyl_count_oracle_loop():
    # direct scalar loop as the oracle for the vectorized count
    w = WeylInstance(GOLDEN, 2000, 0.3, 0.07)
    count = 0
    for k in range(w.T):
        x = (k * w.alpha) % 1.0
        diff = abs(x - w.x0)
        if min(diff, 1 - diff) <= w.rho:
            count += 1
    assert weyl_count(w) == count


def test_weyl_bound_properties():
    with pytest.raises(RationalityError):
        weyl_bound(WeylInstance(Fraction(1, 3), 100, 0.3, 0.1))  # type: ignore[arg-type]
    w = WeylInstance(GOLDEN, 10_000, 0.3, 0.49)
    assert weyl_bound(w) >= 0.49
    # bound non-increasing in T at fixed rho
    bounds = [weyl_bound(WeylInstance(GOLDEN, T, 0.3, 0.05)) for T in (10**3, 10**4, 10**5)]
    assert all(bounds[i + 1] <= bounds[i] + 1e-12 for i in range(len(bounds) - 1))


def test_weyl_bound_dominates_frequency():
    w = WeylInstance(GOLDEN, 10_000, 0.3, 0.05)
    assert weyl_count(w) / w.T <= 20.0 * weyl_bound(w)


def test_weyl_instance_validation():
    with pytest.raises(ValueError):
        WeylInstance(0.3, 100, 0.0, 0.6)
    with pytest.raises(ValueError):
        WeylInstance(0.3, 0, 0.0, 0.1)
