"""Experiment configuration, deterministic runners, and report plumbing.

Every experiment is described by an `ExperimentConfig` (JSON round-trip,
schema-versioned, rationals as "p/q" strings) and produces a `RunReport`
plus flat CSV/JSON artifacts.  The same (config, seed) always produces
byte-identical CSV: all randomness flows through the chunked streams in
`orbits.sample_V`, floats are printed at 17 significant digits, and rows
are emitted in a fixed order.

Statistical checks never claim decay below the CLT floor 5/sqrt(N);
fits drop points under the floor and report it.
"""

from __future__ import annotations

import dataclasses
import json
import math
import platform
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

from . import __version__
from .core import (
    AffineLatticePoint,
    IntegerMatrix,
    SpecialLinearMatrix,
    SplittingSignature,
    TorusPoint,
    matrix_from_json,
    matrix_to_json,
    torus_from_json,
    torus_to_json,
)
from .diophantine import WeylInstance, dirichlet_cap, weyl_bound, weyl_count, zeta
from .errors import ConfigError
from .fundamental import ReducedRepresentative, factorization_residuals, reduce_matrix
from .lattices import DEFAULT_BUDGET, LatticeDescriptor, RadialStepFunction, siegel_average_2x2, siegel_transform
from .measures import fourier_spectrum, max_concentration
from .orbits import NeighborhoodV, gamma_orbit, localized_measure, orbit_pushforward

__all__ = [
    "ExperimentConfig",
    "CheckResult",
    "RunReport",
    "decay_fit",
    "loglog_fit",
    "run",
    "KINDS",
]

KINDS = (
    "zeta",
    "weyl",
    "reduce",
    "orbit",
    "fourier",
    "concentration",
    "gamma-orbit",
    "siegel",
    "acceptance",
)

_STATISTICAL_KINDS = {"orbit", "fourier", "concentration", "gamma-orbit", "siegel"}

#: Caps on n * |t| within which double precision is certified, by
#: signature (m, n), measured from the identity lattice.  (1, 1): against
#: an exact oracle (xi* = P gamma^{-1} in rationals must be F-minimal
#: against the static candidate table), the bulk path returns no wrong
#: gamma at t = 12 and 12.5 (20,000 samples, seeds 0-2), while 6 of
#: 60,000 are wrong at t = 14, and no residual check fires there.  The
#: d = 3 path: (1, 2) runs clean at t = 8 and 8.5; (2, 1) runs
#: clean at t = 5 (20,000 samples), while 1 in 20,000 samples fails at
#: t = 5.5, 0.35 % at 5.75 and 4 % at 6.  Other signatures are uncapped
#: (their reduction is not certified).
PRECISION_CAPS = {(1, 1): 12.0, (1, 2): 16.0, (2, 1): 5.0}


@dataclass
class ExperimentConfig:
    """Flat description of one experiment run.

    Rationals in `b0` travel as "p/q" strings; `g0` is a row-major
    matrix.  `t_grid` supersedes `t` where both make sense.
    """

    kind: str
    m: int = 1
    n: int = 1
    t: Optional[float] = None
    t_grid: tuple = ()
    samples: int = 10_000
    seed: int = 0
    b0: tuple = ()
    g0: Optional[list] = None
    epsilon: float = 0.1
    rho: float = 0.05
    max_freq: int = 4
    T: float = 100.0
    alpha: Optional[float] = None
    x0: float = 0.3
    radius: float = 0.3
    out: Optional[str] = None
    budget: int = DEFAULT_BUDGET
    suite: str = "all"
    schema: int = 1

    @property
    def sig(self) -> SplittingSignature:
        return SplittingSignature(self.m, self.n)

    def times(self) -> tuple:
        if self.t_grid:
            return tuple(float(x) for x in self.t_grid)
        if self.t is not None:
            return (float(self.t),)
        return ()

    def validate(self) -> "ExperimentConfig":
        if self.kind not in KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if self.schema != 1:
            raise ConfigError(f"unsupported config schema {self.schema}")
        if self.m < 1 or self.n < 1:
            raise ConfigError("m and n must be positive")
        cap = PRECISION_CAPS.get((self.m, self.n))
        for t in self.times():
            if cap is not None and self.n * abs(t) > cap:
                raise ConfigError(
                    f"flow time {t} exceeds the certified precision cap n*t <= {cap} "
                    f"for signature ({self.m},{self.n})"
                )
        if self.kind in _STATISTICAL_KINDS and self.samples < 100:
            raise ConfigError("statistical experiments need at least 100 samples")
        if self.budget < 1:
            raise ConfigError("budget must be positive")
        return self

    def to_json(self) -> dict:
        out = dataclasses.asdict(self)
        out["t_grid"] = list(self.t_grid)
        out["b0"] = list(self.b0)
        return out

    @classmethod
    def from_json(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        extra = set(data) - known
        if extra:
            raise ConfigError(f"unknown config fields: {sorted(extra)}")
        kwargs = dict(data)
        if "t_grid" in kwargs:
            kwargs["t_grid"] = tuple(kwargs["t_grid"])
        if "b0" in kwargs:
            kwargs["b0"] = tuple(kwargs["b0"])
        return cls(**kwargs).validate()

    def y0(self) -> AffineLatticePoint:
        d = self.m + self.n
        g = matrix_from_json(self.g0) if self.g0 is not None else SpecialLinearMatrix.from_entries(np.eye(d))
        if self.b0:
            b = torus_from_json(list(self.b0))
        else:
            b = TorusPoint.from_values([0.0] * d)
        return AffineLatticePoint(g, b)


@dataclass
class CheckResult:
    """One named pass/fail with its evidence."""

    name: str
    passed: bool
    expected_failure: bool = False
    details: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.passed or self.expected_failure

    def line(self) -> str:
        if self.passed:
            status = "PASS"
        elif self.expected_failure:
            status = "FAIL (expected; see notes)"
        else:
            status = "FAIL"
        return f"{self.name}: {status}"


@dataclass
class RunReport:
    """Config echo, per-check outcomes, fits, and provenance."""

    config: dict
    checks: list
    artifacts: list = field(default_factory=list)
    wall_time: float = 0.0
    #: the structured answer of a kind that has one (`reduce`), else None
    result: Optional[dict] = None
    versions: dict = field(
        default_factory=lambda: {
            "horolattice": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        }
    )

    @property
    def exit_code(self) -> int:
        return 0 if all(c.ok for c in self.checks) else 1

    def to_json(self) -> dict:
        return {
            "config": self.config,
            "checks": [dataclasses.asdict(c) for c in self.checks],
            "artifacts": self.artifacts,
            "wall_time": self.wall_time,
            "versions": self.versions,
        }


def decay_fit(series: Sequence[tuple]) -> tuple:
    """OLS of log(value) against the raw predictor.

    Returns (slope, intercept, residual); residual is the RMS of the
    log-scale fit errors.  Values must be positive and at least four
    points are required.
    """
    pts = [(float(x), float(v)) for x, v in series]
    if len(pts) < 4:
        raise ValueError("need at least four points")
    if any(v <= 0 for _, v in pts):
        raise ValueError("values must be positive")
    if np.ptp([x for x, _ in pts]) == 0:
        raise ValueError("degenerate series: constant predictor")
    return _log_value_fit(pts)


def loglog_fit(series: Sequence[tuple]) -> tuple:
    """decay_fit with the predictor on a log scale (power-law exponents)."""
    pts = [(math.log(float(x)), float(v)) for x, v in series]
    if len(pts) < 4:
        # power-law fits in the suite sometimes have three points; fit
        # them directly, with the same conventions but no checks
        return _log_value_fit(pts)
    return decay_fit(pts)


def _log_value_fit(pts: list) -> tuple:
    """(slope, intercept, RMS residual) of the least-squares line log v ~ x."""
    xs = np.array([x for x, _ in pts])
    ys = np.log(np.array([v for _, v in pts]))
    A = np.vstack([xs, np.ones(len(xs))]).T
    sol, *_ = np.linalg.lstsq(A, ys, rcond=None)
    resid = float(np.sqrt(np.mean((A @ sol - ys) ** 2)))
    return float(sol[0]), float(sol[1]), resid


def _write_csv(path: str, header: Sequence[str], rows) -> str:
    """Write header and rows as comma-separated lines; returns path.

    A float cell (any `float`, numpy's float64 included) is printed as
    `%.17g`, 17 significant digits, so it reads back as the same double;
    every other cell as `%s`, its `str`.  Each row is written with one
    `%` format, built once per tuple of cell types.
    """
    formats = {}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            row = tuple(row)
            types = tuple(map(type, row))
            fmt = formats.get(types)
            if fmt is None:
                fmt = formats[types] = (
                    ",".join("%.17g" if issubclass(tp, float) else "%s" for tp in types) + "\n"
                )
            fh.write(fmt % row)
    return path


def _out_path(cfg: ExperimentConfig, name: str) -> Optional[str]:
    if cfg.out is None:
        return None
    import os

    os.makedirs(cfg.out, exist_ok=True)
    return os.path.join(cfg.out, name)


# -- experiment runners ------------------------------------------------------


def _run_zeta(cfg: ExperimentConfig) -> RunReport:
    b = torus_from_json(list(cfg.b0)) if cfg.b0 else TorusPoint.from_values([0.5])
    Ts = cfg.times() or (cfg.T,)
    rows = []
    checks = []
    values = []
    for T in Ts:
        z = zeta(b, T)
        values.append(z)
        rows.append(tuple(torus_to_json(b)) + (float(T), z))
        cap = dirichlet_cap(T, b.dim)
        checks.append(
            CheckResult(
                f"zeta-dirichlet-cap[T={T:g}]",
                z <= cap,
                details={"zeta": z, "cap": cap},
            )
        )
    checks.append(
        CheckResult(
            "zeta-monotone-in-T",
            all(values[i] <= values[i + 1] for i in range(len(values) - 1))
            if sorted(Ts) == list(Ts)
            else True,
            details={"values": values},
        )
    )
    report = RunReport(config=cfg.to_json(), checks=checks)
    path = _out_path(cfg, "zeta.csv")
    if path:
        header = [f"b{i+1}" for i in range(b.dim)] + ["T", "zeta"]
        report.artifacts.append(_write_csv(path, header, rows))
    return report


def _run_weyl(cfg: ExperimentConfig) -> RunReport:
    if cfg.alpha is None:
        raise ConfigError("weyl experiment needs --alpha")
    Ts = [int(T) for T in (cfg.times() or (cfg.T,))]
    rows = []
    ratios = []
    for T in Ts:
        w = WeylInstance(cfg.alpha, T, cfg.x0, cfg.rho)
        count = weyl_count(w)
        bound = weyl_bound(w)
        rows.append((float(cfg.alpha), T, float(cfg.rho), count, float(bound)))
        ratios.append(count / T / bound)
    cw = max(ratios)
    checks = [
        CheckResult(
            "weyl-count-bounded",
            cw <= 20.0,
            details={"fitted_C_W": cw, "ratios": ratios},
        )
    ]
    report = RunReport(config=cfg.to_json(), checks=checks)
    path = _out_path(cfg, "weyl.csv")
    if path:
        report.artifacts.append(
            _write_csv(path, ["alpha", "T", "rho", "count", "bound"], rows)
        )
    return report


def _run_reduce(cfg: ExperimentConfig) -> RunReport:
    if cfg.g0 is None:
        raise ConfigError("reduce experiment needs --g0")
    g = matrix_from_json(cfg.g0)
    r = reduce_matrix(g, cfg.budget)
    payload = {
        "rep": matrix_to_json(r.rep),
        "gamma": [list(row) for row in r.gamma.rows],
        "fvalue": r.fvalue,
        "certificate": r.certificate,
        "certified": r.certified,
    }
    # the worst residual of the factorization certificate, as a fraction of its tolerance
    ratio = float(factorization_residuals(g.entries[None], r.rep.entries[None], r.gamma.to_array()[None]).max())
    checks = [
        CheckResult(
            "reduce-coset-preserved",
            ratio <= 1.0,
            details={"fvalue": r.fvalue, "certificate": r.certificate, "residual_ratio": ratio},
        )
    ]
    report = RunReport(config=cfg.to_json(), checks=checks, result=payload)
    path = _out_path(cfg, "reduce.json")
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        report.artifacts.append(path)
    return report


def _orbit_rows(nu) -> Iterator[tuple]:
    """Rows (u..., gamma..., sigma..., height_after) of an orbit cloud, as Python scalars."""
    n = nu.size
    cols = (
        nu.us.reshape(n, -1).astype(float, copy=False).T.tolist()
        + nu.gammas.reshape(n, -1).astype(np.int64, copy=False).T.tolist()
        + nu.coords.reshape(n, -1).astype(float, copy=False).T.tolist()
        + [nu.heights.astype(float, copy=False).tolist()]
    )
    return zip(*cols)


def _orbit_header(sig: SplittingSignature) -> list:
    head = [f"u{i+1}" for i in range(sig.m * sig.n)]
    head += [f"gamma{i+1}{j+1}" for i in range(sig.d) for j in range(sig.d)]
    head += [f"sigma{i+1}" for i in range(sig.d)]
    head += ["height_after"]
    return head


def _run_orbit(cfg: ExperimentConfig) -> RunReport:
    times = cfg.times()
    if not times:
        raise ConfigError("orbit experiment needs --t or --t-grid")
    V = NeighborhoodV(cfg.sig)
    y0 = cfg.y0()
    checks = []
    report = RunReport(config=cfg.to_json(), checks=checks)
    for t in times:
        nu = orbit_pushforward(y0, t, V, cfg.samples, cfg.seed, cfg.budget)
        checks.append(
            CheckResult(
                f"orbit-weights-normalized[t={t:g}]",
                abs(float(nu.weights.sum()) - 1.0) <= 1e-12,
                details={"samples": nu.size, "rational": nu.is_rational},
            )
        )
        path = _out_path(cfg, f"orbit_t{t:g}.csv")
        if path:
            report.artifacts.append(_write_csv(path, _orbit_header(cfg.sig), _orbit_rows(nu)))
    return report


def _run_fourier(cfg: ExperimentConfig) -> RunReport:
    times = cfg.times()
    if not times:
        raise ConfigError("fourier experiment needs --t or --t-grid")
    V = NeighborhoodV(cfg.sig)
    y0 = cfg.y0()
    checks = []
    report = RunReport(config=cfg.to_json(), checks=checks)
    series = []
    for t in times:
        nu = orbit_pushforward(y0, t, V, cfg.samples, cfg.seed, cfg.budget)
        spec = fourier_spectrum(nu, cfg.max_freq)
        zero = spec[(0,) * nu.dim]
        nonzero = max(
            abs(c) for m, c in spec.coeffs.items() if any(m)
        )
        series.append((t, nonzero))
        checks.append(
            CheckResult(
                f"fourier-zero-mode[t={t:g}]",
                abs(zero - 1.0) <= 1e-12,
                details={"max_nontrivial": nonzero, "noise_floor": spec.noise_floor},
            )
        )
        path = _out_path(cfg, f"fourier_t{t:g}.csv")
        if path:
            rows = [
                tuple(m) + (c.real, c.imag, abs(c))
                for m, c in sorted(spec.coeffs.items())
            ]
            header = [f"m{i+1}" for i in range(nu.dim)] + ["re", "im", "abs"]
            report.artifacts.append(_write_csv(path, header, rows))
    if len(series) >= 4:
        floor = 5.0 / math.sqrt(cfg.samples)
        fitted = [(t, v) for t, v in series if v >= floor]
        if len(fitted) >= 4:
            slope, intercept, resid = decay_fit(fitted)
            checks.append(
                CheckResult(
                    "fourier-decay-fit",
                    slope < 0,
                    details={"slope": slope, "residual": resid, "points_used": len(fitted)},
                )
            )
    return report


def _run_concentration(cfg: ExperimentConfig) -> RunReport:
    times = cfg.times()
    if not times:
        raise ConfigError("concentration experiment needs --t or --t-grid")
    V = NeighborhoodV(cfg.sig)
    y0 = cfg.y0()
    checks = []
    rows = []
    report = RunReport(config=cfg.to_json(), checks=checks)
    for t in times:
        nu = orbit_pushforward(y0, t, V, cfg.samples, cfg.seed, cfg.budget)
        p, mass = max_concentration(nu, cfg.rho)
        rows.append(tuple(float(c) for c in p.as_floats()) + (float(cfg.rho), float(mass)))
        checks.append(
            CheckResult(
                f"concentration[t={t:g}]",
                mass <= 1.0 + 1e-12,
                details={"mass": mass},
            )
        )
    path = _out_path(cfg, "concentration.csv")
    if path:
        d = cfg.m + cfg.n
        header = [f"p{i+1}" for i in range(d)] + ["rho", "mass"]
        report.artifacts.append(_write_csv(path, header, rows))
    return report


def _run_gamma_orbit(cfg: ExperimentConfig) -> RunReport:
    times = cfg.times()
    if not times:
        raise ConfigError("gamma-orbit experiment needs --t or --t-grid")
    V = NeighborhoodV(cfg.sig)
    g = matrix_from_json(cfg.g0) if cfg.g0 is not None else SpecialLinearMatrix.from_entries(np.eye(cfg.sig.d))
    x_rep = reduce_matrix(g, cfg.budget).rep
    m0 = (1,) + (0,) * (cfg.sig.d - 1)
    checks = []
    rows = []
    report = RunReport(config=cfg.to_json(), checks=checks)
    for s in times:
        res = gamma_orbit(x_rep, m0, s, V, cfg.samples, cfg.seed, cfg.epsilon, cfg.budget)
        _, masses = res.bin_masses()
        max_bin = float(masses.max()) if masses.size else 0.0
        radius = float(np.abs(res.vectors).max()) if res.vectors.size else 0.0
        rows.append((float(s), float(res.kept_fraction), radius, max_bin))
        checks.append(
            CheckResult(
                f"gamma-orbit[s={s:g}]",
                res.kept_fraction > 0,
                details={
                    "kept_fraction": res.kept_fraction,
                    "max_bin_mass": max_bin,
                    "emitted_radius": radius,
                },
            )
        )
    path = _out_path(cfg, "gamma_orbit.csv")
    if path:
        report.artifacts.append(
            _write_csv(path, ["s", "kept_fraction", "emitted_radius", "max_bin_mass"], rows)
        )
    return report


def _run_siegel(cfg: ExperimentConfig) -> RunReport:
    times = cfg.times() or (8.0,)
    V = NeighborhoodV(cfg.sig)
    y0 = cfg.y0()
    f = RadialStepFunction([(cfg.radius, 1.0)], norm="euclidean")
    checks = []
    report = RunReport(config=cfg.to_json(), checks=checks)
    target = math.pi * cfg.radius**2 if cfg.sig.d == 2 else None
    for t in times:
        nu = orbit_pushforward(y0, t, V, cfg.samples, cfg.seed, cfg.budget)
        values = siegel_average_2x2(nu.xis, cfg.radius, cfg.budget) if cfg.sig.d == 2 else np.array(
            [
                siegel_transform(f, LatticeDescriptor.from_matrix(nu.xis[i]), cfg.budget)
                for i in range(nu.size)
            ]
        )
        avg = float(values @ nu.weights)
        details = {"average": avg}
        passed = True
        if target is not None:
            details["integral"] = target
            passed = abs(avg - target) <= 0.1 * target
        checks.append(CheckResult(f"siegel-average[t={t:g}]", passed, details=details))
        path = _out_path(cfg, f"siegel_t{t:g}.csv")
        if path:
            rows = [(i, float(values[i])) for i in range(len(values))]
            report.artifacts.append(_write_csv(path, ["sample", "value"], rows))
    return report


_RUNNERS = {
    "zeta": _run_zeta,
    "weyl": _run_weyl,
    "reduce": _run_reduce,
    "orbit": _run_orbit,
    "fourier": _run_fourier,
    "concentration": _run_concentration,
    "gamma-orbit": _run_gamma_orbit,
    "siegel": _run_siegel,
}


def run(cfg: ExperimentConfig) -> RunReport:
    """Execute one experiment; returns the report with artifacts written."""
    cfg.validate()
    start = time.time()
    if cfg.kind == "acceptance":
        from .acceptance import run_acceptance

        report = run_acceptance(suite=cfg.suite, out=cfg.out, budget=cfg.budget)
    else:
        report = _RUNNERS[cfg.kind](cfg)
    report.wall_time = time.time() - start
    if cfg.out is not None:
        path = _out_path(cfg, "report.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report.to_json(), fh, indent=2)
        report.artifacts.append(path)
    return report
