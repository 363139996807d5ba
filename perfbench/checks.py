"""Output checks, recomputed from the outputs rather than trusted.

Every check returns a `Verdict`: named pass/fail results plus the worst
residual as a fraction of its tolerance (`max_ratio`, reported as
`verify.max_residual_ratio`).  Tolerances are the package's own
`RECONSTRUCTION_TOL` and `INTEGRALITY_TOL`.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from horolattice.core import diagonal_flow_vector
from horolattice.fundamental import TIE_TOL, reduce_matrix
from horolattice.orbits import INTEGRALITY_TOL, RECONSTRUCTION_TOL

#: Float fiber coordinates must match gamma . b mod 1 this closely.
FIBER_TOL = 1e-9
#: Relative float slack for F comparisons and the d = 2 height identity.
REDUCED_TOL = 1e-9
#: The four elementary shears [[1, +-1], [0, 1]] and [[1, 0], [+-1, 1]].
_SHEARS_2X2 = np.array(
    [[[1, 1], [0, 1]], [[1, -1], [0, 1]], [[1, 0], [1, 1]], [[1, 0], [-1, 1]]], dtype=float
)
#: Slack for masses and Fourier coefficients of a probability measure.
MASS_TOL = 1e-12


@dataclass
class Verdict:
    results: dict = field(default_factory=dict)
    max_ratio: float = 0.0

    def record(self, name: str, passed) -> None:
        self.results[name] = self.results.get(name, True) and bool(passed)

    def ratio(self, name: str, value: float) -> None:
        self.max_ratio = max(self.max_ratio, float(value))
        self.record(name, value <= 1.0)

    def merge(self, other: "Verdict", prefix: str) -> None:
        for name, passed in other.results.items():
            self.record(f"{prefix}.{name}", passed)
        self.max_ratio = max(self.max_ratio, other.max_ratio)

    @property
    def ok(self) -> bool:
        return all(self.results.values())

    def failures(self) -> list:
        return sorted(name for name, passed in self.results.items() if not passed)


def digest(*arrays) -> str:
    """SHA-256 over dtype, shape and bytes of each array, in order."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _int_det(g: np.ndarray) -> np.ndarray:
    """Exact determinants of a stack of small integer matrices."""
    if np.abs(g).max() >= 2**20:
        g = g.astype(object)  # Python ints never overflow
    if g.shape[1] == 2:
        return g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] * g[:, 1, 0]
    return (
        g[:, 0, 0] * (g[:, 1, 1] * g[:, 2, 2] - g[:, 1, 2] * g[:, 2, 1])
        - g[:, 0, 1] * (g[:, 1, 0] * g[:, 2, 2] - g[:, 1, 2] * g[:, 2, 0])
        + g[:, 0, 2] * (g[:, 1, 0] * g[:, 2, 1] - g[:, 1, 1] * g[:, 2, 0])
    )


def _inverse_2x2(g: np.ndarray) -> np.ndarray:
    """Exact inverse of det-1 integer 2x2 matrices (the adjugate)."""
    inv = np.empty_like(g)
    inv[:, 0, 0] = g[:, 1, 1]
    inv[:, 0, 1] = -g[:, 0, 1]
    inv[:, 1, 0] = -g[:, 1, 0]
    inv[:, 1, 1] = g[:, 0, 0]
    return inv


def check_orbit(
    y0, sig, t: float, us, gammas, coords, heights, xis=None, numerators=None, denominator=None
) -> Verdict:
    """Check an orbit cloud against its inputs y0, sig, t and the draws us.

    P = a_t phi(u) x_rep is rebuilt from scratch; with xis given,
    |P - xi gamma| and |xi^{-1} P - gamma| are held to the package
    tolerances.  Without xis (the CSV carries none), xi = P gamma^{-1}.
    For d = 2, xi must also be F-minimal against its shear neighbours
    and match the stored heights.
    """
    v = Verdict()
    d = sig.d
    r0 = reduce_matrix(y0.linear)
    x_rep = r0.rep.entries
    v.ratio(
        "y0-reconstruction",
        np.abs(x_rep @ r0.gamma.to_array() - y0.linear.entries).max() / RECONSTRUCTION_TOL,
    )
    N = us.shape[0]
    H = np.tile(np.eye(d), (N, 1, 1))
    H[:, : sig.m, sig.m :] = us
    P = diagonal_flow_vector(t, sig)[None, :, None] * (H @ x_rep)
    gf = gammas.astype(float)

    v.record("gamma-det-1", np.all(_int_det(gammas) == 1))
    if xis is None:
        if d != 2:
            raise ValueError("orbit rows without xi are checked for d = 2 only")
        xis = P @ _inverse_2x2(gammas).astype(float)
    xi_inv = np.linalg.inv(xis)
    scale = np.maximum(1.0, np.maximum(np.abs(xis).max(axis=(1, 2)), np.abs(xi_inv).max(axis=(1, 2))))
    recon = np.abs(P - xis @ gf).max(axis=(1, 2))
    v.ratio("reconstruction", (recon / (RECONSTRUCTION_TOL * scale)).max())
    integ = np.abs(xi_inv @ P - gf).max(axis=(1, 2))
    v.ratio("integrality", integ.max() / INTEGRALITY_TOL)

    if d == 2:
        # F(h) = |h|_F / sqrt 2 for d = 2; no shear neighbour may beat the
        # representative by more than the package's tie tolerance
        f = np.sqrt((xis * xis).sum(axis=(1, 2)) / 2.0)
        nbr = xis[:, None] @ _SHEARS_2X2[None]
        f_nbr = np.sqrt((nbr * nbr).sum(axis=(2, 3)) / 2.0).min(axis=1)
        v.record("locally-f-minimal", np.all(f - f_nbr <= TIE_TOL + REDUCED_TOL * f))
        c1, c2 = xis[:, :, 0], xis[:, :, 1]
        sup = np.stack([c1, c2, c1 + c2, c1 - c2], axis=1)
        expect_h = 1.0 / np.abs(sup).max(axis=2).min(axis=1)
        v.record("height", np.all(np.abs(heights - expect_h) <= REDUCED_TOL * expect_h))
    v.record("height-at-least-1", np.all(heights >= 1.0 - REDUCED_TOL))

    v.record("coords-in-unit-cube", np.all((coords >= 0.0) & (coords < 1.0)))
    b0 = y0.torus.coords
    g0 = r0.gamma.rows
    b_start = [sum(g0[i][j] * b0[j] for j in range(d)) % 1 for i in range(d)]
    if y0.torus.is_rational:
        q = math.lcm(*(c.denominator for c in b_start))
        num0 = np.array([int(c * q) for c in b_start], dtype=object)
        exact = (gammas.astype(object) @ num0) % q
        v.record("fiber-exact", denominator == q and np.array_equal(numerators.astype(object), exact))
        v.record("fiber-coords", np.array_equal(coords, exact.astype(float) / q))
    else:
        expect = (gf @ np.array(b_start, dtype=float)) % 1.0
        diff = np.abs(coords - expect)
        v.record("fiber-coords", np.all(np.minimum(diff, 1.0 - diff) <= FIBER_TOL))
    return v


def check_spectrum(spec) -> Verdict:
    """The zero mode is 1 and no coefficient exceeds the total mass."""
    v = Verdict()
    v.record("zero-mode-1", abs(spec[(0,) * spec.dim] - 1.0) <= MASS_TOL)
    v.record("coefficients-bounded", all(abs(c) <= 1.0 + MASS_TOL for c in spec.coeffs.values()))
    return v


def check_concentration(nu, rho: float, centre, mass: float) -> Verdict:
    """The reported mass is the ball mass around the reported centre."""
    v = Verdict()
    diff = np.abs(nu.coords - centre.as_floats())
    inside = np.minimum(diff, 1.0 - diff).max(axis=1) <= rho
    v.record("mass-in-unit-interval", 0.0 <= mass <= 1.0)
    v.record("mass-recount", abs(mass - math.fsum(nu.weights[inside])) <= MASS_TOL)
    return v


def check_localization(nu, masses) -> Verdict:
    """Masses at decreasing radii: in [0, 1], above 10/N, nonincreasing."""
    v = Verdict()
    v.record("mass-in-unit-interval", all(0.0 <= m <= 1.0 for m in masses))
    v.record("mass-above-floor", all(m >= 10.0 / nu.size for m in masses))
    v.record("mass-monotone-in-radius", all(a >= b for a, b in zip(masses, masses[1:])))
    return v
