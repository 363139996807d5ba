"""Diophantine quality of torus points and the effective Weyl count.

The central object is the quality function

    zeta(b, T) = min{ N >= 1 : min_{1 <= q <= N} ||q b||_Z <= N^2 / T },

with ||.||_Z the sup distance to the nearest integer vector.  Small
zeta means b is well approximated by rationals of low denominator.
Exact rational arithmetic is used whenever b is rational (zero
detection must be exact); floating points get a vectorized prefix scan.

The scan is guarded by the provable Dirichlet cap: pigeonholing the
points q b, 0 <= q <= H^d, into H^d boxes of side 1/H gives some
1 <= q <= H^d with ||q b|| < 1/H, so with H = floor(N^(1/d)) the
condition holds as soon as N^2 * floor(N^(1/d)) >= T.  Exceeding that
cap therefore signals an implementation bug.  (The cap grows like
T^(d/(2d+1)); a smaller exponent d/(3d+1) circulates in the literature
but is refuted by any badly approximable b, for which zeta(b, T) grows
like T^(d/(2d+1)) on the nose; see the acceptance suite.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import IntegerMatrix, TorusPoint, integer_operator_norm
from .errors import RationalityError

__all__ = [
    "WeylInstance",
    "zeta",
    "dirichlet_cap",
    "ZetaPropertyReport",
    "zeta_property_suite",
    "weyl_count",
    "weyl_bound",
]


def _as_point(b) -> TorusPoint:
    if isinstance(b, TorusPoint):
        return b
    if isinstance(b, (int, float, Fraction, str)):
        return TorusPoint.from_values([b])
    return TorusPoint.from_values(list(b))


def _int_root(n: int, d: int) -> int:
    """floor(n^(1/d)) for positive integers, exactly."""
    if n <= 0:
        return 0
    r = int(round(n ** (1.0 / d)))
    while r > 0 and r**d > n:
        r -= 1
    while (r + 1) ** d <= n:
        r += 1
    return r


def dirichlet_cap(T: float, d: int) -> int:
    """Smallest N with N^2 * floor(N^(1/d)) >= T; zeta never exceeds it."""
    if T <= 1:
        return 1
    # bracket by the asymptotic N ~ T^(d/(2d+1)), then walk exactly
    n = max(1, int(T ** (d / (2 * d + 1))) - 2)
    while n * n * _int_root(n, d) < T:
        n += 1
    while n > 1 and (n - 1) * (n - 1) * _int_root(n - 1, d) >= T:
        n -= 1
    return n


class DirichletGuardError(RuntimeError):
    """The zeta scan passed the provable cap: an implementation bug."""


def _zeta_rational(coords, T) -> int:
    T_exact = Fraction(T) if not isinstance(T, Fraction) else T
    d = len(coords)
    cap = dirichlet_cap(float(T), d)
    best = None
    n = 0
    while True:
        n += 1
        dist = Fraction(0)
        for c in coords:
            x = (n * c) % 1
            dist = max(dist, min(x, 1 - x))
        best = dist if best is None else min(best, dist)
        if best * T_exact <= Fraction(n * n):
            return n
        if n > cap + 1:
            raise DirichletGuardError(f"zeta scan exceeded the Dirichlet cap {cap}")


def _zeta_float(vec: np.ndarray, T: float) -> int:
    d = vec.size
    cap = dirichlet_cap(T, d)
    best = math.inf
    n0 = 1
    block = 1024
    while n0 <= cap + 1:
        n1 = min(n0 + block - 1, cap + 1)
        qs = np.arange(n0, n1 + 1, dtype=float)
        x = np.outer(qs, vec) % 1.0
        dist = np.max(np.minimum(x, 1.0 - x), axis=1)
        run = np.minimum(np.minimum.accumulate(dist), best)
        hit = run * T <= qs * qs
        if hit.any():
            return int(qs[int(np.argmax(hit))])
        best = float(run[-1])
        n0 = n1 + 1
        block = min(block * 2, 1 << 16)
    raise DirichletGuardError(f"zeta scan exceeded the Dirichlet cap {cap}")


def zeta(b, T: float) -> int:
    """The quality function; exact for rational b."""
    if not T > 0:
        raise ValueError("T must be positive")
    point = _as_point(b)
    if point.is_rational:
        return _zeta_rational(point.coords, T)
    return _zeta_float(point.as_floats(), float(T))


@dataclass(frozen=True)
class ZetaPropertyReport:
    """Both quality-function inequalities evaluated on one instance."""

    zeta_T: int
    zeta_cT: int
    rescaling_bound: int
    rescaling_ok: bool
    zeta_gamma_b: int
    gammab_lower: int
    gammab_upper: int
    gammab_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.rescaling_ok and self.gammab_ok


def zeta_property_suite(b, T: float, c: float, gamma: IntegerMatrix) -> ZetaPropertyReport:
    """Evaluate the rescaling and integer-action inequalities.

    Both are theorems, so a failing report flags an implementation bug
    in the caller's hands; nothing is raised here.
    """
    if not c > 1:
        raise ValueError("rescaling factor must exceed 1")
    point = _as_point(b)
    from .core import torus_act

    z_T = zeta(point, T)
    z_cT = zeta(point, c * T)
    bound = math.ceil(math.sqrt(c) * z_T)
    rescaling_ok = z_cT <= bound

    gamma.require_unimodular()
    op_g = integer_operator_norm(gamma)
    op_gi = integer_operator_norm(gamma.inv())
    gb = torus_act(gamma, point)
    z_gb = zeta(gb, T)
    lower = zeta(point, T / op_gi)
    upper = zeta(point, op_g * T)
    gammab_ok = lower <= z_gb <= upper
    return ZetaPropertyReport(z_T, z_cT, bound, rescaling_ok, z_gb, lower, upper, gammab_ok)


@dataclass(frozen=True)
class WeylInstance:
    """Orbit-counting instance: how often does k*alpha land in an interval."""

    alpha: float
    T: int
    x0: float
    rho: float

    def __post_init__(self):
        if not (0 < self.rho < 0.5):
            raise ValueError("rho must lie in (0, 1/2)")
        if self.T < 1:
            raise ValueError("T must be a positive integer")


#: Values of k per block of `weyl_count`, so its memory does not grow with T.
_WEYL_BLOCK = 1 << 16


def weyl_count(w: WeylInstance) -> int:
    """Exact count of 0 <= k < T with {k alpha} within rho of x0 (mod 1).

    k runs in blocks of _WEYL_BLOCK; each k is an exact float, so every
    block rounds as a slice of the whole range would.
    """
    x0, count = w.x0 % 1.0, 0
    for lo in range(0, w.T, _WEYL_BLOCK):
        k = np.arange(lo, min(lo + _WEYL_BLOCK, w.T), dtype=float)
        x = (k * w.alpha) % 1.0
        diff = np.abs(x - x0)
        circ = np.minimum(diff, 1.0 - diff)
        count += int(np.count_nonzero(circ <= w.rho))
    return count


def weyl_bound(w: WeylInstance) -> float:
    """rho + rho^{-1} / zeta(alpha, T); the count/T is O(this).

    Rational alpha is rejected: the underlying statement assumes an
    irrational rotation.
    """
    point = _as_point(w.alpha)
    if point.is_rational:
        raise RationalityError("effective Weyl bound assumes irrational alpha")
    z = zeta(point, float(w.T))
    return w.rho + 1.0 / (w.rho * z)
