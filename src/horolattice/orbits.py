"""Horospherical sampling and the exact cocycle decomposition.

A point of the expanding translate a_t V y0 is produced in three steps:
draw u uniformly from the box V in the horospherical coordinate, form
P = a_t phi(u) iota(x0), and factor P = xi . gamma with xi the reduced
fundamental-domain representative and gamma integral.  gamma drives the
induced integer action on the fiber torus, so the empirical law of
sigma(a_t u y0) = gamma . sigma(y0) is assembled from exact integer
matrices; with rational starting fiber the whole orbit measure stays on
the same rational grid bit-exactly.

Sampling is chunked: chunk i derives its own Philox stream from
(seed, i), so results are identical no matter how the chunks are
scheduled.  Per-sample failures abort the run; silently dropping a
sample would bias the measure.

The d = 2, m = n = 1 bulk path is vectorized end to end (this is the
hot loop of every scaling experiment); all other signatures go through
the scalar decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .core import (
    AffineLatticePoint,
    IntegerMatrix,
    SpecialLinearMatrix,
    SplittingSignature,
    TorusPoint,
    diagonal_flow_vector,
    matrix_norm,
    torus_act,
)
from .errors import EmptyLocalizationError, PrecisionError
from .fundamental import (
    _reduce_core,
    reduce_batch_2x2,
    reduce_matrix,
    x_distance,
    F_value,
)
from .lattices import DEFAULT_BUDGET, LatticeDescriptor, _ext_gcd, shortest_vector

__all__ = [
    "NeighborhoodV",
    "OrbitSample",
    "EmpiricalTorusMeasure",
    "sample_V",
    "decompose",
    "reconstruction_residual",
    "sigma",
    "orbit_pushforward",
    "localized_measure",
    "gamma_orbit",
    "GammaOrbitResult",
]

_CHUNK = 4096

#: Reconstruction and integrality tolerances for the decomposition.
RECONSTRUCTION_TOL = 1e-6
INTEGRALITY_TOL = 1e-6


@dataclass(frozen=True)
class NeighborhoodV:
    """The box phi([-eta, eta]^{m x n}) around the identity in H."""

    sig: SplittingSignature
    half_width: float = 0.5

    def __post_init__(self):
        if not self.half_width > 0:
            raise ValueError("half width must be positive")

    @property
    def volume(self) -> float:
        return (2.0 * self.half_width) ** (self.sig.m * self.sig.n)


@dataclass(frozen=True)
class OrbitSample:
    """One decomposed point of an expanding translate."""

    u: np.ndarray
    xi: SpecialLinearMatrix
    gamma: IntegerMatrix
    sigma_point: TorusPoint
    height_after: float


def sample_V(V: NeighborhoodV, count: int, seed: int) -> np.ndarray:
    """i.i.d. uniform draws from the box, shape (count, m, n).

    Deterministic given the seed and independent of scheduling: chunk i
    uses the Philox stream keyed by (seed, i) and chunks concatenate in
    index order.
    """
    if count < 1:
        raise ValueError("need at least one sample")
    m, n = V.sig.m, V.sig.n
    out = np.empty((count, m, n))
    eta = V.half_width
    for chunk, start in enumerate(range(0, count, _CHUNK)):
        stop = min(start + _CHUNK, count)
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(chunk,)))
        )
        out[start:stop] = rng.uniform(-eta, eta, size=(stop - start, m, n))
    return out


def reconstruction_residual(P: np.ndarray, rep: np.ndarray, gamma_arr: np.ndarray, rep_inv: np.ndarray):
    """(|P - rep gamma|, its tolerance); the error grows with the entry scale."""
    scale = max(1.0, float(np.abs(rep).max()), float(np.abs(rep_inv).max()))
    return float(np.abs(P - rep @ gamma_arr).max()), RECONSTRUCTION_TOL * scale


def _check_decomposition(P: np.ndarray, rep: np.ndarray, gamma_arr: np.ndarray, rep_inv: np.ndarray):
    recon, tol = reconstruction_residual(P, rep, gamma_arr, rep_inv)
    if recon > tol:
        raise PrecisionError(f"reconstruction residual {recon:.3g} exceeds {tol:.3g}")
    integrality = np.abs(rep_inv @ P - gamma_arr).max()
    if integrality > INTEGRALITY_TOL:
        raise PrecisionError(
            f"integrality residual {integrality:.3g} exceeds {INTEGRALITY_TOL:g}"
        )


def decompose(x_rep: SpecialLinearMatrix, u, s: float, sig: SplittingSignature, budget: int = DEFAULT_BUDGET):
    """Factor a_s phi(u) x_rep = xi . gamma; returns (xi, gamma).

    gamma is exact by construction (the unimodular transform is
    accumulated in integers); the float residuals are verified and a
    violation is a hard error.
    """
    ub = np.atleast_2d(np.asarray(u, dtype=float))
    if ub.shape != (sig.m, sig.n):
        raise ValueError(f"u has shape {ub.shape}, expected ({sig.m},{sig.n})")
    d = sig.d
    if x_rep.dim != d:
        raise ValueError("signature and representative dimensions differ")
    H = np.eye(d)
    H[: sig.m, sig.m :] = ub
    P = diagonal_flow_vector(s, sig)[:, None] * (H @ x_rep.entries)
    rep_arr, U, _, _, _ = _reduce_core(P, budget)
    gamma = U.inv().require_unimodular()
    xi = SpecialLinearMatrix.from_entries(rep_arr)
    _check_decomposition(P, xi.entries, gamma.to_array(), xi.inverse)
    return xi, gamma


def sigma(y: AffineLatticePoint, budget: int = DEFAULT_BUDGET) -> TorusPoint:
    """Fiber coordinate of y in the fundamental-domain parametrization."""
    r = reduce_matrix(y.linear, budget)
    return torus_act(r.gamma, y.torus)


@dataclass
class EmpiricalTorusMeasure:
    """A weighted sample cloud on T^d with orbit metadata.

    `coords` always holds float coordinates in [0,1); when the cloud is
    exactly rational, `numerators`/`denominator` carry the same points
    as integers over a common denominator.  Per-sample metadata (the
    horospherical coordinate, the integer cocycle value, the reduced
    matrix, the height) lives in parallel arrays; `sample(i)` wraps row
    i as an OrbitSample.  `localization_mass` is the raw bump mass of a
    measure made by `localized_measure`, and None otherwise.
    """

    coords: np.ndarray
    weights: np.ndarray
    numerators: Optional[np.ndarray] = None
    denominator: Optional[int] = None
    us: Optional[np.ndarray] = None
    gammas: Optional[np.ndarray] = None
    xis: Optional[np.ndarray] = None
    heights: Optional[np.ndarray] = None
    localization_mass: Optional[float] = None

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.coords.ndim != 2 or self.weights.shape != (self.coords.shape[0],):
            raise ValueError("coords must be (N, d) with matching weights")
        if np.any(self.weights < 0):
            raise ValueError("weights must be nonnegative")
        total = float(self.weights.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total!r}, not 1")
        if np.any(self.coords < 0) or np.any(self.coords >= 1.0):
            raise ValueError("coordinates must be normalized into [0, 1)")

    @property
    def size(self) -> int:
        return self.coords.shape[0]

    @property
    def dim(self) -> int:
        return self.coords.shape[1]

    @property
    def is_rational(self) -> bool:
        return self.numerators is not None

    def point(self, i: int) -> TorusPoint:
        if self.is_rational:
            q = self.denominator
            return TorusPoint.from_values(
                [Fraction(int(x), q) for x in self.numerators[i]]
            )
        return TorusPoint.from_values([float(x) for x in self.coords[i]])

    def sample(self, i: int) -> OrbitSample:
        if self.us is None or self.gammas is None or self.xis is None:
            raise ValueError("this measure carries no orbit metadata")
        return OrbitSample(
            u=self.us[i].copy(),
            xi=SpecialLinearMatrix.from_entries(self.xis[i]),
            gamma=IntegerMatrix.from_rows(self.gammas[i].tolist()),
            sigma_point=self.point(i),
            height_after=float(self.heights[i]),
        )

    def reweighted(
        self, new_weights: np.ndarray, localization_mass: Optional[float] = None
    ) -> "EmpiricalTorusMeasure":
        return EmpiricalTorusMeasure(
            coords=self.coords,
            weights=new_weights,
            numerators=self.numerators,
            denominator=self.denominator,
            us=self.us,
            gammas=self.gammas,
            xis=self.xis,
            heights=self.heights,
            localization_mass=localization_mass,
        )


def _batch_heights_2x2(reps: np.ndarray) -> np.ndarray:
    """Sup-norm first minimum of reduced 2x2 bases, vectorized.

    For a Frobenius-minimal basis the sup-shortest vector has both
    coefficients in {-1, 0, 1} (coefficient bounds via lambda_1
    lambda_2 <= 2/sqrt(3)), so four candidates certify the minimum.
    """
    c1 = reps[:, :, 0]
    c2 = reps[:, :, 1]
    cands = np.stack([c1, c2, c1 + c2, c1 - c2], axis=1)
    sup = np.abs(cands).max(axis=2)
    return 1.0 / sup.min(axis=1)


def _bulk_decompose_2x2(x_rep: SpecialLinearMatrix, us: np.ndarray, t: float, budget: int):
    """Vectorized decomposition for sig (1,1): returns (P, reps, gammas)."""
    X = x_rep.entries
    et = math.exp(t)
    emt = math.exp(-t)
    u = us[:, 0, 0]
    N = us.shape[0]
    P = np.empty((N, 2, 2))
    P[:, 0, 0] = et * (X[0, 0] + u * X[1, 0])
    P[:, 0, 1] = et * (X[0, 1] + u * X[1, 1])
    P[:, 1, 0] = emt * X[1, 0]
    P[:, 1, 1] = emt * X[1, 1]
    reps, gammas = reduce_batch_2x2(P, budget)
    # verify the defining identity and integrality in bulk
    gf = gammas.astype(float)
    recon = np.abs(P - reps @ gf).max(axis=(1, 2))
    adj = np.empty_like(reps)
    adj[:, 0, 0] = reps[:, 1, 1]
    adj[:, 0, 1] = -reps[:, 0, 1]
    adj[:, 1, 0] = -reps[:, 1, 0]
    adj[:, 1, 1] = reps[:, 0, 0]
    dets = reps[:, 0, 0] * reps[:, 1, 1] - reps[:, 0, 1] * reps[:, 1, 0]
    inv = adj / dets[:, None, None]
    scale = np.maximum(1.0, np.abs(reps).max(axis=(1, 2)))
    if np.any(recon > RECONSTRUCTION_TOL * scale):
        i = int(np.argmax(recon / scale))
        raise PrecisionError(f"bulk reconstruction residual {recon[i]:.3g} at sample {i}")
    integ = np.abs(inv @ P - gf).max(axis=(1, 2))
    if np.any(integ > INTEGRALITY_TOL):
        i = int(np.argmax(integ))
        raise PrecisionError(f"bulk integrality residual {integ[i]:.3g} at sample {i}")
    return P, reps, gammas


def _fiber_numerators(gammas: np.ndarray, num0: list, q: int) -> np.ndarray:
    """Exact numerators (gamma @ num0) mod q of the fiber points, as int64.

    The products overflow int64 once q is large (decimal strings give
    q = 2 * 10^16), so they are summed in Python ints; q < 2^63 is the
    caller's check.
    """
    exact = (gammas % q).astype(object) @ np.array(num0, dtype=object)
    return (exact % q).astype(np.int64)


def orbit_pushforward(
    y0: AffineLatticePoint,
    t: float,
    V: NeighborhoodV,
    count: int,
    seed: int,
    budget: int = DEFAULT_BUDGET,
) -> EmpiricalTorusMeasure:
    """Empirical law of the fiber coordinate along a_t V y0.

    Equal weights 1/count; any per-sample precision failure aborts the
    whole run.  Rational starting fibers stay exactly rational.
    """
    sig = V.sig
    if y0.dim != sig.d:
        raise ValueError("dimension mismatch between y0 and V")
    r0 = reduce_matrix(y0.linear, budget)
    x_rep = r0.rep
    b_start = torus_act(r0.gamma, y0.torus)
    us = sample_V(V, count, seed)
    rational = b_start.is_rational
    q = b_start.denominator() if rational else None
    if rational and q >= 2**63:
        raise PrecisionError(f"fiber denominator {q} does not fit the int64 numerators (q < 2^63)")

    if sig.d == 2 and sig.m == 1 and sig.n == 1:
        _, reps, gammas = _bulk_decompose_2x2(x_rep, us, t, budget)
        heights = _batch_heights_2x2(reps)
        if rational:
            nums = _fiber_numerators(gammas, [int(c * q) for c in b_start.coords], q)
            # once q > 2^53 the float of (q - 1) / q can round to 1.0, which is 0 on the torus
            coords = (nums.astype(float) / q) % 1.0
        else:
            nums = None
            bvec = b_start.as_floats()
            coords = (gammas.astype(float) @ bvec) % 1.0
        weights = np.full(count, 1.0 / count)
        weights[-1] = 1.0 - weights[:-1].sum()
        return EmpiricalTorusMeasure(
            coords=coords,
            weights=weights,
            numerators=nums,
            denominator=q,
            us=us,
            gammas=gammas,
            xis=reps,
            heights=heights,
        )

    # generic signature: scalar path
    d = sig.d
    coords = np.empty((count, d))
    gammas = np.empty((count, d, d), dtype=np.int64)
    xis = np.empty((count, d, d))
    heights = np.empty(count)
    nums = np.empty((count, d), dtype=np.int64) if rational else None
    for i in range(count):
        xi, gamma = decompose(x_rep, us[i], t, sig, budget)
        point = torus_act(gamma, b_start)
        coords[i] = point.as_floats()
        gammas[i] = gamma.to_int64()
        xis[i] = xi.entries
        heights[i] = 1.0 / shortest_vector(LatticeDescriptor(xi), "sup", budget)[1]
        if rational:
            nums[i] = [int(c * q) for c in point.coords]
    if rational:
        coords %= 1.0  # as in the bulk path: a float of (q - 1) / q can round to 1.0
    weights = np.full(count, 1.0 / count)
    weights[-1] = 1.0 - weights[:-1].sum()
    return EmpiricalTorusMeasure(
        coords=coords,
        weights=weights,
        numerators=nums,
        denominator=q,
        us=us,
        gammas=gammas,
        xis=xis,
        heights=heights,
    )


def _bump(s: np.ndarray) -> np.ndarray:
    """1 on [0,1], 0 on [5,inf), C^1 monotone cubic in between."""
    x = np.clip((np.asarray(s, dtype=float) - 1.0) / 4.0, 0.0, 1.0)
    return 1.0 - (3.0 * x * x - 2.0 * x * x * x)


_DET1_TABLES: dict = {}


def _det1_box_table(K: int) -> np.ndarray:
    """All integer 2x2 matrices with det +1 and entries bounded by K."""
    key = int(K)
    if key in _DET1_TABLES:
        return _DET1_TABLES[key]
    mats = []
    for a in range(-K, K + 1):
        for b in range(-K, K + 1):
            if math.gcd(abs(a), abs(b)) != 1:
                continue
            g, u, v = _ext_gcd(a, b)
            if g < 0:
                u, v = -u, -v
            x0, y0 = -v, u  # a*y0 - b*x0 = 1
            # family (x0 + k a, y0 + k b) within the box
            lo, hi = -10**9, 10**9
            ok = True
            for w0, w in ((x0, a), (y0, b)):
                if w == 0:
                    if abs(w0) > K:
                        ok = False
                else:
                    l0 = (-K - w0) / w
                    h0 = (K - w0) / w
                    if l0 > h0:
                        l0, h0 = h0, l0
                    lo = max(lo, math.ceil(l0 - 1e-9))
                    hi = min(hi, math.floor(h0 + 1e-9))
            if not ok:
                continue
            for k in range(lo, hi + 1):
                mats.append(((a, x0 + k * a), (b, y0 + k * b)))
    table = np.array(mats, dtype=float)
    _DET1_TABLES[key] = table
    return table


_LOC_K_MAX = 24
_LOC_CHUNK = 1024


def _proxy_distances_2x2(
    xis: np.ndarray,
    z_rep: SpecialLinearMatrix,
    reach: float,
    certify_below: float = 0.0,
    budget: int = DEFAULT_BUDGET,
) -> np.ndarray:
    """Proxy distances min_{gamma'} |xi gamma' z^{-1} - Id|_F, vectorized.

    Exact wherever the distance is at most `reach`; larger values may be
    overestimates (their bump weight is zero anyway).  Any coset element
    within `reach` of z has Frobenius norm at most S = |z|_F (1 + reach),
    so its coefficient matrix w.r.t. the reduced xi lies in the integer
    box of side S * lambda_2(xi); samples are bucketed by that box size.
    Samples needing a box beyond _LOC_K_MAX either certify "at most
    `certify_below`" through the capped box (the box minimum is an upper
    bound) or fall back to the scalar search.

    Each bucket runs in blocks of _LOC_CHUNK samples, so memory stays
    flat in N.  The rounding of every step is fixed, and a test pins the
    distances bit for bit: xi C is the explicit sum
    xi[:, 0] C[0] + xi[:, 1] C[1] with each product rounded before the
    add (a matmul would fuse them into an FMA); the product with z^{-1}
    is one BLAS call over the rows of a block; the squared Frobenius
    norm adds the four entries in row-major order.
    """
    from .fundamental import x_distance

    za = z_rep.entries
    z_frob = math.sqrt(float((za * za).sum()))
    S = z_frob * (1.0 + reach) + 1e-9
    N = xis.shape[0]
    dists = np.full(N, np.inf)
    frob = np.sqrt((xis * xis).sum(axis=(1, 2)))
    colmax = np.maximum(
        np.linalg.norm(xis[:, :, 0], axis=1), np.linalg.norm(xis[:, :, 1], axis=1)
    )
    # Frobenius minimality of the reduced representative: no coset
    # element can be closer than (frob - S) allows
    alive = frob <= S
    idx_alive = np.nonzero(alive)[0]
    Ks = np.ceil(S * colmax[alive] * 1.0001).astype(np.int64)
    zinv = z_rep.inverse
    eye = np.eye(2)
    capped = Ks > _LOC_K_MAX
    Ks_eff = np.minimum(Ks, _LOC_K_MAX)
    for K in np.unique(Ks_eff):
        table = _det1_box_table(int(K))
        k = table.shape[0]
        T0 = table[:, 0, :].reshape(-1)
        T1 = table[:, 1, :].reshape(-1)
        bucket = idx_alive[Ks_eff == K]
        for start in range(0, bucket.size, _LOC_CHUNK):
            rows = bucket[start : start + _LOC_CHUNK]
            X = xis[rows]
            # H[n, i, c, l] = (xi_n C_c)[i, l], laid out so that each
            # elementwise step runs along the long (c, l) axis
            H = X[:, :, 0, None] * T0 + X[:, :, 1, None] * T1
            D = (H.reshape(-1, 2) @ zinv).reshape(-1, 2, k, 2) - eye[None, :, None, :]
            Q = D * D
            dsq = ((Q[:, 0, :, 0] + Q[:, 0, :, 1]) + Q[:, 1, :, 0]) + Q[:, 1, :, 1]
            dists[rows] = np.sqrt(dsq.min(axis=1))
    # capped samples: the box minimum is only an upper bound; keep it
    # when it certifies the bump plateau, otherwise resolve exactly
    for i, row in zip(np.nonzero(capped)[0], idx_alive[capped]):
        if dists[row] <= certify_below:
            continue
        dists[row] = x_distance(xis[row], z_rep, max_distance=reach * 1.5, budget=budget)
    return dists


def localized_measure(
    orbit: EmpiricalTorusMeasure,
    z_rep: SpecialLinearMatrix,
    r: float,
    budget: int = DEFAULT_BUDGET,
) -> EmpiricalTorusMeasure:
    """Reweight by a bump in the base-point distance to z, renormalized.

    The raw (pre-normalization) bump mass is the returned measure's
    `localization_mass`.
    """
    if not r > 0:
        raise ValueError("radius must be positive")
    if orbit.xis is None:
        raise ValueError("orbit measure carries no base-point metadata")
    reach = 5.0 * r
    if orbit.dim == 2:
        dists = _proxy_distances_2x2(orbit.xis, z_rep, reach, certify_below=r, budget=budget)
    else:
        dists = np.array(
            [
                x_distance(orbit.xis[i], z_rep, max_distance=reach * 1.5, budget=budget)
                for i in range(orbit.size)
            ]
        )
    finite = np.isfinite(dists)
    omega = np.zeros(orbit.size)
    omega[finite] = _bump(dists[finite] / r)
    raw = orbit.weights * omega
    total = float(raw.sum())
    if total < 10.0 / orbit.size:
        raise EmptyLocalizationError(
            f"localized mass {total:.3g} below the 10/{orbit.size} floor"
        )
    return orbit.reweighted(raw / total, localization_mass=total)


@dataclass(frozen=True)
class GammaOrbitResult:
    """Integer-orbit multiset of gamma^T m0 over the kept samples."""

    vectors: np.ndarray
    kept_fraction: float
    total: int

    def bin_masses(self):
        """(unique vectors, relative masses among kept samples)."""
        if self.vectors.size == 0:
            return np.empty((0, 0), dtype=np.int64), np.empty(0)
        uniq, counts = np.unique(self.vectors, axis=0, return_counts=True)
        return uniq, counts / self.vectors.shape[0]


def gamma_orbit(
    x_rep: SpecialLinearMatrix,
    m0,
    s: float,
    V: NeighborhoodV,
    count: int,
    seed: int,
    eps: float,
    budget: int = DEFAULT_BUDGET,
) -> GammaOrbitResult:
    """Multiset of gamma^T m0 over samples passing the regularity gate.

    A sample is kept when the reduced endpoint is not too far in the
    cusp (matrix norm below 1/eps) and the expanding block of
    (xi^T)^{-1} m0 is not degenerate (sup norm above eps^2 |m0|);
    the kept fraction is reported alongside the multiset.
    """
    m0 = np.asarray(m0, dtype=np.int64)
    if not m0.any():
        raise ValueError("m0 must be nonzero")
    if not (0 < eps <= 0.5):
        raise ValueError("eps must lie in (0, 1/2]")
    sig = V.sig
    us = sample_V(V, count, seed)
    m0f = m0.astype(float)
    m0norm = float(np.abs(m0f).max())

    if sig.d == 2 and sig.m == 1 and sig.n == 1:
        _, reps, gammas = _bulk_decompose_2x2(x_rep, us, s, budget)
        mnorm = np.abs(reps).max(axis=(1, 2))  # = matrix norm for d = 2
        # (xi^T)^{-1} = adj(xi)^T / det; solve directly from the adjugate
        dets = reps[:, 0, 0] * reps[:, 1, 1] - reps[:, 0, 1] * reps[:, 1, 0]
        w0 = (reps[:, 1, 1] * m0f[0] - reps[:, 1, 0] * m0f[1]) / dets
        keep = (mnorm < 1.0 / eps) & (np.abs(w0) > eps * eps * m0norm)
        emitted = np.einsum("nji,j->ni", gammas[keep], m0)
        return GammaOrbitResult(emitted, float(keep.mean()), count)

    kept = []
    nkeep = 0
    for i in range(count):
        xi, gamma = decompose(x_rep, us[i], s, sig, budget)
        w = np.linalg.solve(xi.entries.T, m0f)
        ok = matrix_norm(xi) < 1.0 / eps and np.abs(w[: sig.m]).max() > eps * eps * m0norm
        if ok:
            nkeep += 1
            kept.append(gamma.transpose().to_int64() @ m0)
    vectors = np.array(kept, dtype=np.int64) if kept else np.empty((0, sig.d), dtype=np.int64)
    return GammaOrbitResult(vectors, nkeep / count, count)
