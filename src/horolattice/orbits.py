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

`decompose_batch` is the one decomposition entry point for a batch of
samples, whatever the signature.  Every signature with d <= 3 is
reduced by `fundamental`'s one protocol (seed, class sweep, per-row
certificate, exact search where the certificate fails), and a sample's
reduction has the same bits in a batch as alone; a larger d is refused.  For m = n = 1 (the hot loop of
every scaling experiment) `_bulk_decompose_2x2` keeps the certified
samples in arrays (`fundamental.reduce_batch_2x2`) and checks the
factorization certificate on the whole batch at once.  Every other
signature takes its starts from `fundamental._search_starts` and runs
`decompose` sample by sample.
Its callers (`orbit_pushforward`, `gamma_orbit`) do the rest on whole
arrays: the fiber and the regularity gate have one formula for every
signature, and only the heights branch on d.  A failure names the
stage, the sample (or the base point) and t.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from .core import (
    AffineLatticePoint,
    IntegerMatrix,
    SpecialLinearMatrix,
    SplittingSignature,
    TorusPoint,
    _bezout,
    _inv_unimodular,
    _mod1,
    diagonal_flow_vector,
    torus_act,
)
from .errors import (
    EmptyLocalizationError,
    PrecisionError,
    _naming_sample,
)
from .fundamental import (
    RESIDUAL_TOL,
    _reduce_core,
    _reduced_matrix,
    _search_starts,
    certify_factorization,
    reduce_batch_2x2,
    reduce_matrix,
    x_distance,
)
from .lattices import DEFAULT_BUDGET, LatticeDescriptor, lll_reduce_batch, shortest_vector

__all__ = [
    "NeighborhoodV",
    "OrbitSample",
    "EmpiricalTorusMeasure",
    "sample_V",
    "decompose",
    "decompose_batch",
    "sigma",
    "orbit_pushforward",
    "localized_measure",
    "gamma_orbit",
    "GammaOrbitResult",
]

_CHUNK = 4096

#: The benchmark's output checks import the certificate's tolerance
#: under these two names; both are `fundamental.RESIDUAL_TOL`.
RECONSTRUCTION_TOL = INTEGRALITY_TOL = RESIDUAL_TOL


@dataclass(frozen=True)
class NeighborhoodV:
    """The box phi([-eta, eta]^{m x n}) around the identity in H."""

    sig: SplittingSignature
    half_width: float = 0.5

    def __post_init__(self):
        if not self.half_width > 0:
            raise ValueError("half width must be positive")


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


def _flowed(x_rep: SpecialLinearMatrix, us: np.ndarray, s: float, sig: SplittingSignature) -> np.ndarray:
    """P = a_s phi(u) x_rep for each u of a stack us (N, m, n), as a stack (N, d, d)."""
    d = sig.d
    if x_rep.dim != d:
        raise ValueError("signature and representative dimensions differ")
    H = np.broadcast_to(np.eye(d), (us.shape[0], d, d)).copy()
    H[:, : sig.m, sig.m :] = us
    return diagonal_flow_vector(s, sig)[:, None] * (H @ x_rep.entries)


def decompose(
    x_rep: SpecialLinearMatrix,
    u,
    s: float,
    sig: SplittingSignature,
    budget: int = DEFAULT_BUDGET,
    start: Optional[tuple] = None,
):
    """Factor a_s phi(u) x_rep = xi . gamma; returns (xi, gamma).

    gamma is exact by construction (the unimodular transform is
    accumulated in integers), and P = xi gamma must pass the
    factorization certificate (`fundamental.certify_factorization`), as
    a batch of one.  P has det 1 by construction, so a determinant drift
    of a reduced basis is precision loss: a `PrecisionError`, like a
    failed certificate.  `start`, if given, is this sample's item of
    `fundamental._search_starts`, computed ahead over a stack: the class
    sweep's certified result or the seed of the search.
    """
    ub = np.atleast_2d(np.asarray(u, dtype=float))
    if ub.shape != (sig.m, sig.n):
        raise ValueError(f"u has shape {ub.shape}, expected ({sig.m},{sig.n})")
    P = _flowed(x_rep, ub[None], s, sig)[0]
    rep_arr, U, _, _ = _reduce_core(P, budget, start)
    xi = _reduced_matrix(rep_arr)
    gamma = U.inv().require_unimodular()
    certify_factorization(P[None], xi.entries[None], gamma.to_array()[None], None, None)
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
        return replace(self, weights=new_weights, localization_mass=localization_mass)


def _bulk_decompose_2x2(x_rep: SpecialLinearMatrix, us: np.ndarray, t: float, budget: int):
    """Vectorized decomposition for sig (1,1): returns (reps, gammas)."""
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
    reps, gammas = reduce_batch_2x2(P, budget, t=t)
    certify_factorization(P, reps, gammas, "decompose", t)
    return reps, gammas


def decompose_batch(
    x_rep: SpecialLinearMatrix,
    us: np.ndarray,
    t: float,
    sig: SplittingSignature,
    budget: int = DEFAULT_BUDGET,
):
    """Factor a_t phi(u) x_rep = xi . gamma for every row u of us.

    Returns (xis (N, d, d) float, gammas (N, d, d) int64).  Signature
    (1, 1) runs `_bulk_decompose_2x2`.  Every other signature runs the
    seeds, the class sweep and its certificate of all samples as one
    stack (`fundamental._search_starts`), then `decompose` sample by
    sample from those starts, in order, bit for bit what `decompose`
    gives each sample alone.  A failure names the sample and t; an LLL
    failure of any sample comes before the first search.
    """
    # The benchmark (perfbench/layers.py) traces `_bulk_decompose_2x2` and
    # counts one `decompose` and one `_reduce_core` call per d = 3 sample
    # where this module binds them, so the branch and the per-sample loop
    # stay until it counts the stack instead.
    if sig.d == 2:
        return _bulk_decompose_2x2(x_rep, us, t, budget)
    starts = _search_starts(_flowed(x_rep, us, t, sig), t)
    count, d = us.shape[0], sig.d
    xis = np.empty((count, d, d))
    gammas = np.empty((count, d, d), dtype=np.int64)
    for i in range(count):
        with _naming_sample("decompose", i, t):
            xi, gamma = decompose(x_rep, us[i], t, sig, budget, next(starts))
        xis[i] = xi.entries
        gammas[i] = gamma.to_int64()
    return xis, gammas


def _heights(xis: np.ndarray, t: float, budget: int) -> np.ndarray:
    """1 / (sup-norm first minimum) of each reduced basis xis[i].

    For d = 2 a closed form: the sup-shortest vector of a
    Frobenius-minimal basis has both coefficients in {-1, 0, 1}
    (coefficient bounds via lambda_1 lambda_2 <= 2/sqrt(3)), so four
    candidates certify the minimum.  Otherwise a certified search per
    basis, from the LLL of all bases as one stack; a failure names the
    sample and t.
    """
    if xis.shape[1] == 2:
        c1 = xis[:, :, 0]
        c2 = xis[:, :, 1]
        cands = np.stack([c1, c2, c1 + c2, c1 - c2], axis=1)
        sup = np.abs(cands).max(axis=2)
        return 1.0 / sup.min(axis=1)
    B, U = lll_reduce_batch(xis, stage="height", t=t)
    heights = np.empty(xis.shape[0])
    for i, xi in enumerate(xis):
        # xi passed decompose's checks, so it needs no second validation
        lattice = LatticeDescriptor(SpecialLinearMatrix(xi), _reduced=(B[i], U[i].tolist()))
        with _naming_sample("height", i, t):
            heights[i] = 1.0 / shortest_vector(lattice, budget)[1]
    return heights


def _rational_fiber(gammas: np.ndarray, num0: list, q: int):
    """Exact numerators (gamma @ num0) mod q of the fiber points, as int64, and their floats.

    The products overflow int64 once q is large (decimal strings give
    q = 2 * 10^16), so they are summed in Python ints; q < 2^63 is the
    caller's check.  Each float is the correctly rounded n / q, so it
    does not depend on whether n and q fit a double's 53 bits.
    """
    exact = ((gammas % q).astype(object) @ np.array(num0, dtype=object)) % q
    # once q > 2^53 the float of (q - 1) / q can round to 1.0, which is 0 on the torus
    return exact.astype(np.int64), (exact / q).astype(float) % 1.0


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
    whole run, and its message names the stage (reduce of the base
    point, decompose or height of a sample) and t.  Rational starting
    fibers stay exactly rational.
    """
    sig = V.sig
    if y0.dim != sig.d:
        raise ValueError("dimension mismatch between y0 and V")
    with _naming_sample("reduce", None, t):
        r0 = reduce_matrix(y0.linear, budget)
    b_start = torus_act(r0.gamma, y0.torus)
    us = sample_V(V, count, seed)
    rational = b_start.is_rational
    q = b_start.denominator() if rational else None
    if rational and q >= 2**63:
        raise PrecisionError(f"fiber denominator {q} does not fit the int64 numerators (q < 2^63)")

    xis, gammas = decompose_batch(r0.rep, us, t, sig, budget)
    heights = _heights(xis, t, budget)
    if rational:
        nums, coords = _rational_fiber(gammas, [int(c * q) for c in b_start.coords], q)
    else:
        nums = None
        coords = _mod1(gammas.astype(float) @ b_start.as_floats())
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


@functools.cache
def _det1_box_table(K: int) -> np.ndarray:
    """All integer 2x2 matrices with det +1 and entries bounded by K."""
    mats = []
    for a in range(-K, K + 1):
        for b in range(-K, K + 1):
            if math.gcd(a, b) != 1:
                continue
            u, v = _bezout((a, b))
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
    return np.array(mats, dtype=float)


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
    xis, gammas = decompose_batch(x_rep, us, s, sig, budget)
    # the matrix norm max(|xi|, |xi^{-1}|) and w = (xi^T)^{-1} m0, batched
    mnorm = np.maximum(np.abs(xis).max(axis=(1, 2)), np.abs(_inv_unimodular(xis)).max(axis=(1, 2)))
    rhs = np.broadcast_to(m0f[:, None], (count, sig.d, 1))
    w = np.linalg.solve(xis.transpose(0, 2, 1), rhs)[:, :, 0]
    keep = (mnorm < 1.0 / eps) & (np.abs(w[:, : sig.m]).max(axis=1) > eps * eps * m0norm)
    emitted = np.einsum("nji,j->ni", gammas[keep], m0)
    return GammaOrbitResult(emitted, float(keep.mean()), count)
