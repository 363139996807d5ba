"""The acceptance suite: every verification criterion, one function each.

Each criterion function returns a list of CheckResult and holds its own
parameters, seeds and tolerances; it reads no clock, so the same
arguments give the same checks.  `run_acceptance` runs a suite, printing
each check's line as it finishes and yielding the check: it is the
`acceptance` kind's runner, and `harness.run` writes its report.  The
runner alone times the criteria: it writes each one's time into its
checks and holds it to the time limit in `CRITERIA`.  The tier-1 suite
runs criteria 03-13 at reduced size through their size arguments
(tests/test_acceptance.py).  All runs are deterministic (fixed seeds
recorded in the results).

Two checks are implemented twice, as stated and in a corrected or
restricted form, because the stated form is provably or robustly
unattainable; the stated variants are marked `expected_failure` and the
analysis lives next to the code:

* dirichlet-cap: the cap exponent d/(3d+1) contradicts the type-M lower
  bound zeta >> T^{1/(M+1)} (golden ratio, d=1, M=2 gives T^{1/3} >
  T^{1/4}); the pigeonhole-provable cap N^2 floor(N^{1/d}) >= T, of
  order T^{d/(2d+1)}, is enforced with zero violations.
* gamma-orbit-mass-slope: on the stated grid s in {2,...,5} the s=2
  point has e^{ns} < 1/eps, outside the validity regime of the bin-mass
  estimate, and the measured slope is -1.67 +- 0.02 against the window
  [-2.3, -1.7]; the same data restricted to the asymptotic sub-grid
  {3,4,5} passes.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from .core import (
    AffineLatticePoint,
    IntegerMatrix,
    SpecialLinearMatrix,
    SplittingSignature,
    TorusPoint,
    _mod1,
    matrix_norm,
)
from .diophantine import WeylInstance, dirichlet_cap, zeta, zeta_property_suite
from .fundamental import _lex_first, _lex_key, reduce_matrix
from .harness import (
    CheckResult,
    decay_fit,
    effective_weyl,
    fourier_decay_fit,
    gamma_orbit_summary,
    off_grid_max,
    siegel_check,
)
from .lattices import DEFAULT_BUDGET, LatticeDescriptor, height
from .measures import FlatteningInstance, _verify_flattening, flatten_weights, fourier_spectrum
from .orbits import (
    NeighborhoodV,
    _det1_box_table,
    decompose_batch,
    gamma_orbit,
    localized_measure,
    orbit_pushforward,
)

__all__ = ["run_acceptance", "CRITERIA", "SUITES"]

_SEED = 2026

_SIG2 = SplittingSignature(1, 1)
_V2 = NeighborhoodV(_SIG2)


class _OrbitCache(dict):
    """Orbits shared between criteria (same b0, t, N, seed), each with the seconds its build took.

    `reads` collects the key of every orbit read; `run_acceptance`
    clears it before each criterion.
    """

    def __init__(self):
        super().__init__()
        self.reads = set()

    def get_orbit(self, y0key, y0, t, count, budget):
        key = (y0key, float(t), int(count))
        if key not in self:
            start = time.time()
            orbit = orbit_pushforward(y0, t, _V2, count, _SEED, budget)
            self[key] = (orbit, time.time() - start)
        self.reads.add(key)
        return self[key][0]


def _irrational_y0():
    b0 = TorusPoint.from_values([math.sqrt(2.0) - 1.0, math.sqrt(3.0) - 1.0])
    return AffineLatticePoint(SpecialLinearMatrix.from_entries(np.eye(2)), b0)


def _rational_y0():
    b0 = TorusPoint.from_values(["1/3", "2/3"])
    return AffineLatticePoint(SpecialLinearMatrix.from_entries(np.eye(2)), b0)


# -- criterion 1: Dirichlet cap ---------------------------------------------


def criterion_dirichlet_cap(budget=DEFAULT_BUDGET, cache=None) -> List[CheckResult]:
    rng = np.random.default_rng(_SEED)
    n_trials = 10_000
    viol_stated = 0
    viol_provable = 0
    for _ in range(n_trials):
        d = int(rng.integers(2, 4))
        b = tuple(rng.random(d))
        T = 10 ** rng.uniform(1.0, 9.0)
        z = zeta(b, T)
        if z > math.ceil(T ** (d / (3.0 * d + 1.0))):
            viol_stated += 1
        if z > dirichlet_cap(T, d):
            viol_provable += 1
    return [
        CheckResult(
            "01-dirichlet-cap[stated-exponent-d/(3d+1)]",
            viol_stated == 0,
            expected_failure=True,
            details={
                "violations": viol_stated,
                "trials": n_trials,
                "note": "exponent d/(3d+1) is refuted by badly approximable b; "
                "see the provable variant below",
            },
        ),
        CheckResult(
            "01-dirichlet-cap[provable-N^2*floor(N^(1/d))>=T]",
            viol_provable == 0,
            details={"violations": viol_provable, "trials": n_trials},
        ),
    ]


# -- criterion 2: zeta inequality suite --------------------------------------


def _random_gamma(rng, d: int) -> IntegerMatrix:
    while True:
        M = np.eye(d, dtype=np.int64)
        for _ in range(int(rng.integers(1, 5))):
            i, j = rng.integers(0, d, 2)
            if i == j:
                continue
            E = np.eye(d, dtype=np.int64)
            E[i, j] = rng.integers(-2, 3)
            M = M @ E
        if 1 <= np.abs(M).max() <= 5:
            return IntegerMatrix.from_rows(M.tolist())


def criterion_zeta_inequalities(budget=DEFAULT_BUDGET, cache=None) -> List[CheckResult]:
    rng = np.random.default_rng(_SEED + 1)
    rescale_viol = 0
    for _ in range(10_000):
        d = int(rng.integers(2, 4))
        b = tuple(rng.random(d))
        T = 10 ** rng.uniform(0.5, 8.0)
        c = 10 ** rng.uniform(0.01, 2.0)
        if zeta(b, c * T) > math.ceil(math.sqrt(c) * zeta(b, T)):
            rescale_viol += 1
    suite_viol = 0
    for _ in range(10_000):
        d = int(rng.integers(2, 4))
        b = tuple(rng.random(d))
        T = 10 ** rng.uniform(0.5, 7.0)
        gam = _random_gamma(rng, d)
        if not zeta_property_suite(b, T, float(10 ** rng.uniform(0.05, 1.5)), gam).all_ok:
            suite_viol += 1
    return [
        CheckResult(
            "02-zeta-inequalities",
            rescale_viol == 0 and suite_viol == 0,
            details={
                "rescaling_violations": rescale_viol,
                "gammab_violations": suite_viol,
                "trials": 10_000,
            },
        )
    ]


# -- criterion 3: effective Weyl ---------------------------------------------


def criterion_effective_weyl(budget=DEFAULT_BUDGET, cache=None) -> List[CheckResult]:
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    _, ratios, cw, passed = effective_weyl(
        WeylInstance(alpha, T, 0.3, rho)
        for alpha in (golden, math.sqrt(2.0) - 1.0, math.pi - 3.0)
        for T in (10**3, 10**4, 10**5, 10**6)
        for rho in (0.2, 0.05, 0.01)
    )
    return [
        CheckResult(
            "03-effective-weyl",
            passed,
            details={"fitted_C_W": cw, "grid_size": len(ratios)},
        )
    ]


# -- criterion 4: reduction vs brute force -----------------------------------


def criterion_reduction_oracle(budget=DEFAULT_BUDGET, cache=None, n_cases: int = 500) -> List[CheckResult]:
    box = _det1_box_table(50)
    rng = np.random.default_rng(_SEED + 4)

    def rand_g():
        g = np.eye(2)
        # words in the diagonal flow and upper/lower shears, total flow <= 6
        left = 6.0
        for _ in range(int(rng.integers(1, 4))):
            t = rng.uniform(0, left)
            left -= t
            if rng.integers(0, 2):
                S = np.array([[1.0, rng.uniform(-2, 2)], [0.0, 1.0]])
            else:
                S = np.array([[1.0, 0.0], [rng.uniform(-2, 2), 1.0]])
            g = g @ np.diag([math.exp(t), math.exp(-t)]) @ S
        return g

    def rand_gamma0():
        M = np.eye(2, dtype=object)
        for _ in range(int(rng.integers(1, 4))):
            k = int(rng.integers(-3, 4))
            if rng.integers(0, 2):
                E = np.array([[1, k], [0, 1]], dtype=object)
            else:
                E = np.array([[1, 0], [k, 1]], dtype=object)
            M = M @ E
        return IntegerMatrix.from_rows(M.tolist())

    oracle_bad = 0
    gamma_bad = 0
    rep_bad = 0
    for _ in range(n_cases):
        g = rand_g()
        r = reduce_matrix(g, budget)
        H = np.einsum("ij,kjl->kil", g, box)
        F = np.sqrt((H * H).sum(axis=(1, 2)) / 2.0)
        fmin = float(F.min())
        if r.fvalue > fmin + 1e-9:
            oracle_bad += 1
        elif fmin <= r.fvalue + 1e-9:
            ties = np.nonzero(F <= fmin + 1e-9)[0]
            pick = ties[_lex_first(_lex_key(H[ties]), [0])[0]]
            if np.abs(H[pick] - r.rep.entries).max() > 1e-8:
                oracle_bad += 1
        scale = max(1.0, matrix_norm(r.rep))
        for _ in range(5):
            gam0 = rand_gamma0()
            r2 = reduce_matrix(g @ gam0.to_array(), budget)
            if r2.gamma.rows != (r.gamma @ gam0).rows:
                gamma_bad += 1
            if np.abs(r2.rep.entries - r.rep.entries).max() > 1e-8 * scale:
                rep_bad += 1
    return [
        CheckResult(
            "04-reduction-oracle-and-invariance",
            oracle_bad == 0 and gamma_bad == 0 and rep_bad == 0,
            details={
                "oracle_mismatches": oracle_bad,
                "gamma_invariance_mismatches": gamma_bad,
                "rep_invariance_mismatches": rep_bad,
                "cases": n_cases,
                "box_size": int(box.shape[0]),
            },
        )
    ]


# -- criterion 5: iota height bound ------------------------------------------


def criterion_iota_height(budget=DEFAULT_BUDGET, cache=None, per_dim: int = 500) -> List[CheckResult]:
    rng = np.random.default_rng(_SEED + 5)
    results = []
    for d in (2, 3):
        hts = []
        norms = []
        for _ in range(per_dim):
            q, _ = np.linalg.qr(rng.normal(size=(d, d)))
            if np.linalg.det(q) < 0:
                q[:, 0] *= -1
            if d == 2:
                tau = rng.uniform(0, 3.4)
                D = np.diag([math.exp(-tau), math.exp(tau)])
                S = np.eye(2)
                S[0, 1] = rng.uniform(-1, 1)
            else:
                tau = rng.uniform(0, 1.7)
                t2 = rng.uniform(-0.5, 0.5)
                D = np.diag([math.exp(-tau), math.exp(t2), math.exp(tau - t2)])
                S = np.eye(3)
                S[0, 1], S[0, 2], S[1, 2] = rng.uniform(-1, 1, 3)
            g = q @ D @ S
            r = reduce_matrix(g, budget)
            hts.append(height(LatticeDescriptor.from_matrix(g), budget))
            norms.append(matrix_norm(r.rep))
        hts = np.array(hts)
        norms = np.array(norms)
        fitted_C = float((norms / hts ** (d - 1)).max())
        mask = hts > 1.3
        slope, _, resid = decay_fit(
            [(math.log(float(h)), float(v)) for h, v in zip(hts[mask], norms[mask])]
        )
        results.append(
            CheckResult(
                f"05-iota-height-bound[d={d}]",
                slope <= d - 1 + 0.1,
                details={
                    "fitted_C": fitted_C,
                    "slope": slope,
                    "slope_cap": d - 1 + 0.1,
                    "fit_residual": resid,
                    "lattices": per_dim,
                    "height_max": float(hts.max()),
                },
            )
        )
    return results


# -- criterion 6: cocycle exactness ------------------------------------------


def criterion_cocycle(budget=DEFAULT_BUDGET, cache=None, count: int = 100_000) -> List[CheckResult]:
    y0 = _irrational_y0()
    cache = cache if cache is not None else _OrbitCache()
    nu = cache.get_orbit("irr", y0, 12.0, count, budget)
    # independent path: decompose a_t phi(u) g0 from g0 = y0.linear itself,
    # not the orbit's reduced base point, and act on the unreduced fiber
    _, gammas2 = decompose_batch(y0.linear, nu.us, 12.0, _SIG2, budget)
    bvec = y0.torus.as_floats()
    sigma2 = _mod1(gammas2.astype(float) @ bvec)
    gap = np.abs(sigma2 - nu.coords)
    gap = np.minimum(gap, 1.0 - gap).max(axis=1)
    dets = gammas2[:, 0, 0] * gammas2[:, 1, 1] - gammas2[:, 0, 1] * gammas2[:, 1, 0]
    # both decompositions passed the factorization certificate (a failure
    # raises); reaching here means zero failures there
    return [
        CheckResult(
            "06-cocycle-exactness[t=12]",
            bool(np.all(gap <= 1e-8)) and bool(np.all(dets == 1)),
            details={
                "samples": count,
                "max_sigma_gap": float(gap.max()),
                "gamma_det_values": [int(x) for x in np.unique(dets)],
            },
        )
    ]


# -- criterion 7: X_q invariance ---------------------------------------------


def criterion_xq_invariance(budget=DEFAULT_BUDGET, cache=None, count: int = 10_000) -> List[CheckResult]:
    y0 = _rational_y0()
    nu = orbit_pushforward(y0, 7.0, _V2, count, _SEED, budget)
    on_grid = nu.is_rational and nu.denominator == 3
    spec = fourier_spectrum(nu, 6)
    worst = max(abs(spec[m] - 1.0) for m in ((3, 0), (0, 3), (3, 3), (6, 3), (-3, 3)))
    coeffs_ok = worst <= 1e-12
    return [
        CheckResult(
            "07-xq-invariance[q=3]",
            on_grid and coeffs_ok,
            details={
                "samples": count,
                "denominator": nu.denominator,
                "max_coefficient_error": worst,
            },
        )
    ]


# -- criterion 8: gamma-orbit separation --------------------------------------


def criterion_gamma_orbit(budget=DEFAULT_BUDGET, cache=None, count: int = 100_000) -> List[CheckResult]:
    x_rep = reduce_matrix(np.eye(2), budget).rep
    eps = 0.1
    ht_x = height(LatticeDescriptor(x_rep), budget)
    data = {}
    for s in (2.0, 3.0, 4.0, 5.0):
        data[s] = gamma_orbit_summary(gamma_orbit(x_rep, (1, 0), s, _V2, count, _SEED, eps, budget))
    # (a) containment with a single fitted radius constant
    rfit = max(
        data[s]["emitted_radius"] / ((1.0 / eps) * ht_x * math.exp(s)) for s in data
    )
    containment_ok = all(
        data[s]["emitted_radius"] <= rfit * (1.0 / eps) * ht_x * math.exp(s) + 1e-9
        for s in data
    ) and rfit <= 100.0
    # (b) slope of the max bin mass
    slope_stated, _, resid_stated = decay_fit(
        [(s, data[s]["max_bin_mass"]) for s in (2.0, 3.0, 4.0, 5.0)]
    )
    # the power law in e^s, fitted against log e^s = s
    slope_asym, _, resid_asym = decay_fit([(s, data[s]["max_bin_mass"]) for s in (3.0, 4.0, 5.0)])
    return [
        CheckResult(
            "08a-gamma-orbit-containment",
            containment_ok,
            details={"fitted_R": rfit, "per_s": data},
        ),
        CheckResult(
            "08b-gamma-orbit-mass-slope[stated-grid-s=2..5]",
            -2.3 <= slope_stated <= -1.7,
            expected_failure=True,
            details={
                "slope": slope_stated,
                "window": [-2.3, -1.7],
                "fit_residual": resid_stated,
                "note": "s=2 has e^{ns} < 1/eps, outside the estimate's regime; "
                "see the asymptotic variant below",
            },
        ),
        CheckResult(
            "08b-gamma-orbit-mass-slope[asymptotic-grid-s=3..5]",
            -2.3 <= slope_asym <= -1.7,
            details={"slope": slope_asym, "window": [-2.3, -1.7], "fit_residual": resid_asym},
        ),
    ]


# -- criterion 9: Fourier decay ----------------------------------------------


def criterion_fourier_decay(budget=DEFAULT_BUDGET, cache=None, count: int = 100_000) -> List[CheckResult]:
    cache = cache if cache is not None else _OrbitCache()
    y0 = _irrational_y0()
    series = []
    for t in range(2, 11):
        spec, off_grid = off_grid_max(cache.get_orbit("irr", y0, float(t), count, budget), 4)
        series.append((float(t), off_grid))
    floor = spec.noise_floor
    # strictly decreasing until the first point below the noise floor
    decreasing = True
    for i in range(len(series) - 1):
        if series[i][1] < floor:
            break
        if series[i + 1][1] >= series[i][1]:
            decreasing = False
    # with fewer than four points above the floor there is no fit, and the check fails
    slope, resid, fitted = fourier_decay_fit(series, floor)
    # control: rational fiber keeps its dual-grid coefficients pinned at 1
    y0q = _rational_y0()
    control_ok = True
    control = {}
    for t in (3.0, 6.0, 9.0):
        spec = fourier_spectrum(cache.get_orbit("rat", y0q, t, count, budget), 3)
        on = abs(spec[3, 0] - 1.0)
        off = abs(spec[1, 0])
        control[t] = {"on_grid_error": on, "off_grid": off}
        if on > 1e-12:
            control_ok = False
    offs = [control[t]["off_grid"] for t in (3.0, 6.0, 9.0)]
    control_ok = control_ok and (offs[-1] < offs[0] or offs[-1] < floor)
    return [
        CheckResult(
            "09-fourier-decay",
            slope is not None and decreasing and slope < -0.1 and resid < 0.5,
            details={
                "series": series,
                "noise_floor": floor,
                "slope": slope,
                "fit_residual": resid,
                "points_fitted": fitted,
            },
        ),
        CheckResult(
            "09-fourier-decay-control[q=3]",
            control_ok,
            details={str(t): v for t, v in control.items()},
        ),
    ]


# -- criteria 10/11/13: shared t=8 orbit --------------------------------------


def criterion_cusp_mass(budget=DEFAULT_BUDGET, cache=None, count: int = 100_000) -> List[CheckResult]:
    cache = cache if cache is not None else _OrbitCache()
    nu = cache.get_orbit("irr", _irrational_y0(), 8.0, count, budget)
    eps_grid = (0.5, 0.33, 0.25, 0.2)
    fracs = [float((nu.heights > 1.0 / e).mean()) for e in eps_grid]
    slope, _, resid = decay_fit([(math.log(e), f) for e, f in zip(eps_grid, fracs)])
    return [
        CheckResult(
            "10-cusp-mass-scaling",
            2.0 * 0.75 <= slope <= 2.0 * 1.25,
            details={
                "fractions": dict(zip(map(str, eps_grid), fracs)),
                "slope": slope,
                "window": [1.5, 2.5],
                "fit_residual": resid,
            },
        )
    ]


def criterion_ball_mass(budget=DEFAULT_BUDGET, cache=None, count: int = 100_000) -> List[CheckResult]:
    cache = cache if cache is not None else _OrbitCache()
    nu = cache.get_orbit("irr", _irrational_y0(), 8.0, count, budget)
    gz = np.array([[1.1, 0.3], [0.2, (1.0 + 0.3 * 0.2) / 1.1]])
    z = reduce_matrix(gz, budget).rep
    radii = (0.1, 0.07, 0.05)
    masses = []
    for r in radii:
        loc = localized_measure(nu, z, r, budget)
        masses.append(loc.localization_mass)
    slope, _, resid = decay_fit([(math.log(r), m) for r, m in zip(radii, masses)])
    return [
        CheckResult(
            "11-ball-mass-scaling",
            2.0 <= slope <= 4.0,
            details={
                "masses": dict(zip(map(str, radii), masses)),
                "slope": slope,
                "window": [2.0, 4.0],
                "fit_residual": resid,
            },
        )
    ]


def criterion_siegel(budget=DEFAULT_BUDGET, cache=None, count: int = 100_000) -> List[CheckResult]:
    cache = cache if cache is not None else _OrbitCache()
    nu = cache.get_orbit("irr", _irrational_y0(), 8.0, count, budget)
    check, _ = siegel_check("13-siegel-consistency", nu, 0.3, budget, oracle_stride=331)
    return [check]


# -- criterion 12: flattening finder ------------------------------------------


def criterion_flattening(budget=DEFAULT_BUDGET, cache=None, n_instances: int = 200) -> List[CheckResult]:
    rng = np.random.default_rng(_SEED + 12)
    finder_fail = 0
    oracle_fail = 0
    for trial in range(n_instances):
        nI, nJ = 30, 12
        lam = 1.0
        a = rng.uniform(0.3, 1.0, (nI, nJ)) * lam / (nI * nJ)
        theta0 = rng.uniform(0, 2 * np.pi)
        b = rng.uniform(0.5, 1.0, (nI, nJ)) * np.exp(
            1j * (theta0 + rng.normal(0, 0.5, (nI, nJ)))
        )
        tau = abs((a * b).sum()) * 0.999
        inst = FlatteningInstance(a, b, lam, tau)
        try:
            res = flatten_weights(inst, seed=trial)
        except Exception:
            finder_fail += 1
            continue
        if _verify_flattening(inst, res.cols) is None:
            finder_fail += 1
        # exhaustive oracle over all half-or-larger column subsets
        found = False
        for bits in range(1 << nJ):
            cols = tuple(j for j in range(nJ) if bits >> j & 1)
            if len(cols) * 2 < nJ:
                continue
            if _verify_flattening(inst, cols) is not None:
                found = True
                break
        if not found:
            oracle_fail += 1
    return [
        CheckResult(
            "12-flattening-finder",
            finder_fail == 0 and oracle_fail == 0,
            details={
                "finder_failures": finder_fail,
                "oracle_failures": oracle_fail,
                "instances": n_instances,
            },
        )
    ]


#: name -> (criterion, time limit in seconds or None), as `run_acceptance` applies them
CRITERIA: Dict[str, Tuple[Callable, Optional[float]]] = {
    "01-dirichlet-cap": (criterion_dirichlet_cap, 30.0),
    "02-zeta-inequalities": (criterion_zeta_inequalities, 60.0),
    "03-effective-weyl": (criterion_effective_weyl, 60.0),
    "04-reduction-oracle": (criterion_reduction_oracle, 300.0),
    "05-iota-height": (criterion_iota_height, None),
    "06-cocycle-exactness": (criterion_cocycle, 300.0),
    "07-xq-invariance": (criterion_xq_invariance, None),
    "08-gamma-orbit": (criterion_gamma_orbit, 600.0),
    "09-fourier-decay": (criterion_fourier_decay, 600.0),
    "10-cusp-mass": (criterion_cusp_mass, None),
    "11-ball-mass": (criterion_ball_mass, None),
    "12-flattening": (criterion_flattening, 120.0),
    "13-siegel": (criterion_siegel, None),
}

SUITES = {
    "all": tuple(CRITERIA),
    "exact": (
        "01-dirichlet-cap",
        "02-zeta-inequalities",
        "04-reduction-oracle",
        "06-cocycle-exactness",
        "07-xq-invariance",
        "12-flattening",
    ),
    "scaling": (
        "03-effective-weyl",
        "05-iota-height",
        "08-gamma-orbit",
        "09-fourier-decay",
        "10-cusp-mass",
        "11-ball-mass",
        "13-siegel",
    ),
}


def run_acceptance(suite: str = "all", budget: int = DEFAULT_BUDGET) -> Iterator[CheckResult]:
    """Run the named suite; print each check's line as its criterion finishes, and yield the check.

    Each criterion is timed once: its checks carry the time in
    `details["seconds"]`, and a check not marked `expected_failure`
    fails if the criterion took its limit or longer.  The time is what
    the criterion would take alone: it includes the build of every
    shared orbit it reads, whichever criterion built it first.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    cache = _OrbitCache()
    for name in SUITES[suite]:
        criterion, limit = CRITERIA[name]
        built = set(cache)
        cache.reads.clear()
        start = time.time()
        results = criterion(budget=budget, cache=cache)
        seconds = time.time() - start + sum(cache[key][1] for key in cache.reads & built)
        for res in results:
            res.details["seconds"] = seconds
            if limit is not None and seconds >= limit and not res.expected_failure:
                res.passed = False
            print(res.line(), flush=True)
            yield res
