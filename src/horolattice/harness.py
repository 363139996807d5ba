"""Experiment configuration, the runner registry, and the one report path.

Every experiment is described by an `ExperimentConfig` (JSON round-trip,
schema-versioned, rationals as "p/q" strings).  `run` looks its kind up
in the registry: the runner, acceptance included, only yields
`CheckResult`s and `Table`s, and `run` alone builds the `RunReport`,
times the run and writes every artifact (the tables in the order they
arrive, then `report.json`).  The same (config, seed) always produces
byte-identical CSV: all randomness flows through the chunked streams in
`orbits.sample_V`, floats are printed at 17 significant digits, and rows
are emitted in a fixed order.

Each statistic that a kind and an acceptance criterion both report is
defined once here: the off-grid Fourier maximum and its decay fit, the
Gamma-orbit summary, the Siegel average check and the effective Weyl
constant, over the one least-squares fit `decay_fit`.  Decay is never
claimed below `FourierSpectrum.noise_floor`, the CLT floor; the fit
drops points under it and reports how many it used.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import platform
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from . import __version__
from .core import (
    AffineLatticePoint,
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
from .fundamental import factorization_residuals, reduce_matrix
from .lattices import DEFAULT_BUDGET, lll_reduce_batch, siegel_transform, siegel_values
from .measures import fourier_spectrum, max_concentration
from .orbits import GammaOrbitResult, NeighborhoodV, gamma_orbit, orbit_pushforward

__all__ = [
    "ExperimentConfig",
    "CheckResult",
    "RunReport",
    "decay_fit",
    "Table",
    "run",
    "KINDS",
]

_STATISTICAL_KINDS = {"orbit", "fourier", "concentration", "gamma-orbit", "siegel"}

#: Caps on n * |t| within which double precision is certified, by
#: signature (m, n), measured from the identity lattice.  (1, 1): against
#: an exact oracle (xi* = P gamma^{-1} in rationals must be F-minimal
#: against the static candidate table), the bulk path returns no wrong
#: gamma at t = 12 and 12.5 (20,000 samples, seeds 0-2), while 6 of
#: 60,000 are wrong at t = 14, and no residual check fires there.  The
#: d = 3 path: (1, 2) runs clean at t = 8 and 8.5; (2, 1) runs
#: clean at t = 5 (20,000 samples), while 1 in 20,000 samples fails at
#: t = 5.5, 0.35 % at 5.75 and 4 % at 6.  `validate` refuses a flowing
#: kind of any other signature: d > 3 has no certified reduction.
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
        """`t_grid`, else (`t`,): flow times, or horizons T for zeta and weyl; a ConfigError without either."""
        if self.t_grid:
            return tuple(float(x) for x in self.t_grid)
        if self.t is None:
            raise ConfigError(f"{self.kind} experiment needs --t or --t-grid")
        return (float(self.t),)

    def validate(self) -> "ExperimentConfig":
        if self.kind not in KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if self.schema != 1:
            raise ConfigError(f"unsupported config schema {self.schema}")
        if self.m < 1 or self.n < 1:
            raise ConfigError("m and n must be positive")
        if self.kind in _STATISTICAL_KINDS:
            # zeta and weyl read cfg.times() as horizons T, not flow times
            cap = PRECISION_CAPS.get((self.m, self.n))
            if cap is None:
                raise ConfigError(f"signature ({self.m},{self.n}) has no certified reduction (d > 3)")
            for t in self.times():
                if self.n * abs(t) > cap:
                    raise ConfigError(
                        f"flow time {t} exceeds the certified precision cap n*t <= {cap} "
                        f"for signature ({self.m},{self.n})"
                    )
            if self.samples < 100:
                raise ConfigError("statistical experiments need at least 100 samples")
        if self.kind == "fourier" and self.max_freq < 1:
            # the box |m| <= max_freq must hold a frequency m != 0
            raise ConfigError(f"fourier needs --max-freq >= 1, got {self.max_freq}")
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
    """OLS of log(value) against the predictor.

    Returns (slope, intercept, residual); residual is the RMS of the
    log-scale fit errors.  Values must be positive, the predictor not
    constant, and at least three points are required.  A power-law
    exponent is the fit against log x: its caller passes `math.log(x)`.
    """
    pts = [(float(x), float(v)) for x, v in series]
    if len(pts) < 3:
        raise ValueError("need at least three points")
    if any(v <= 0 for _, v in pts):
        raise ValueError("values must be positive")
    if np.ptp([x for x, _ in pts]) == 0:
        raise ValueError("degenerate series: constant predictor")
    xs = np.array([x for x, _ in pts])
    ys = np.log(np.array([v for _, v in pts]))
    A = np.vstack([xs, np.ones(len(xs))]).T
    sol, *_ = np.linalg.lstsq(A, ys, rcond=None)
    resid = float(np.sqrt(np.mean((A @ sol - ys) ** 2)))
    return float(sol[0]), float(sol[1]), resid


# -- statistics shared by the kinds and the acceptance criteria --------------


def off_grid_max(nu, max_freq: int) -> tuple:
    """(spectrum of nu on the box |m| <= max_freq, max |c(m)| over its m != 0 off the dual grid).

    A cloud of denominator q > 1 has c(m) = 1 wherever m = 0 mod q, so
    those m are left out.  A cloud of denominator 1 is the fixed point 0,
    which does not equidistribute: every coefficient is 1.
    """
    spec = fourier_spectrum(nu, max_freq)
    q = nu.denominator or 1
    off_grid = max(abs(c) for m, c in spec.coeffs.items() if any(m) and (q == 1 or any(k % q for k in m)))
    return spec, off_grid


def fourier_decay_fit(series: Sequence[tuple], floor: float) -> tuple:
    """`decay_fit` of a series (t, off-grid max) over its points at or above the noise floor.

    Returns (slope, residual, points used); slope and residual are None
    when fewer than four points are left.
    """
    above = [(t, v) for t, v in series if v >= floor]
    slope, _, resid = decay_fit(above) if len(above) >= 4 else (None, None, None)
    return slope, resid, len(above)


def gamma_orbit_summary(res: GammaOrbitResult) -> dict:
    """The kept fraction, the largest relative bin mass and the sup radius of what a Gamma-orbit emitted."""
    _, masses = res.bin_masses()
    return {
        "kept_fraction": res.kept_fraction,
        "max_bin_mass": float(masses.max()) if masses.size else 0.0,
        "emitted_radius": float(np.abs(res.vectors).max()) if res.vectors.size else 0.0,
    }


def siegel_check(name: str, nu, radius: float, budget: int, oracle_stride: int = 0) -> tuple:
    """(check, per-sample values) of the Siegel average of nu's bases for the ball of the radius.

    For d = 2 the check holds the average within 10 % of the integral
    pi r^2; for other d it reports the average.  With oracle_stride > 0,
    every stride-th sample is recounted by enumeration
    (`siegel_transform`, over one stacked LLL): a disagreement fails the
    check, and its details name the first disagreeing sample.
    """
    values = siegel_values(nu.xis, radius, budget)
    avg = float(values @ nu.weights)
    details = {"average": avg}
    passed = True
    if nu.dim == 2:
        target = math.pi * radius**2
        details.update(integral=target, relative_error=abs(avg / target - 1.0))
        passed = abs(avg - target) <= 0.1 * target
    if oracle_stride:
        recounted, _ = lll_reduce_batch(nu.xis[::oracle_stride], stage=None)
        exact = np.array([siegel_transform(B, radius, budget) for B in recounted])
        wrong = np.flatnonzero(np.abs(exact - values[::oracle_stride]) > 1e-9) * oracle_stride
        details.update(oracle_samples=len(exact), oracle_first_disagreement=int(wrong[0]) if wrong.size else None)
        passed = passed and not wrong.size
    return CheckResult(name, passed, details=details), values


def effective_weyl(instances) -> tuple:
    """(rows, ratios, C_W, passed) over WeylInstances.

    Each instance gives a row (alpha, T, rho, count, bound) and a ratio
    count / T / bound; C_W is the largest ratio, and it passes at most 20.
    """
    rows, ratios = [], []
    for w in instances:
        count, bound = weyl_count(w), weyl_bound(w)
        rows.append((float(w.alpha), w.T, float(w.rho), count, float(bound)))
        ratios.append(count / w.T / bound)
    cw = max(ratios)
    return rows, ratios, cw, cw <= 20.0


def _write_csv(path: str, header: Sequence[str], columns: Sequence) -> str:
    """Write the header line and the rows of equal-length columns; returns path.

    A column is a sequence of cells: a 1-D numpy array or a list.  A float
    cell (any `float`, numpy's float64 included) is printed as `%.17g`, so
    it reads back as the same double; every other cell as its `str`.
    `csvformat.lines` formats `csvformat.BLOCK_ROWS` rows at a time, with
    numpy kernels for float64 and integer arrays, to the bytes of that rule.
    """
    from . import csvformat  # imported on first use: a run that writes no CSV does not compile it

    n = len(columns[0]) if columns else 0
    if any(len(column) != n for column in columns):
        raise ValueError(f"CSV columns differ in length: {[len(column) for column in columns]}")
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        for start in range(0, n, csvformat.BLOCK_ROWS):
            fh.write(csvformat.lines([column[start : start + csvformat.BLOCK_ROWS] for column in columns]))
    return path


@dataclass
class Table:
    """One artifact of a run: a CSV `header` and its equal-length columns in `data`, or a JSON payload.

    A table with `header` None is JSON, its payload in `data`; `run`
    writes the others with `_write_csv`.
    """

    name: str
    header: Optional[Sequence[str]]
    data: object


def _write_artifact(out: str, table: Table) -> str:
    """Write `table` into directory `out` (made if missing); returns its path."""
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, table.name)
    if table.header is not None:
        return _write_csv(path, table.header, table.data)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table.data, fh, indent=2)
    return path


# -- experiment runners ------------------------------------------------------
#
# A runner yields the CheckResults and Tables of one experiment, in order,
# and writes no file: `run` files the checks and writes each table as it
# arrives, so a t-grid run holds one orbit at a time.


def _orbits(cfg: ExperimentConfig) -> Iterator[tuple]:
    """(t, orbit pushforward of cfg.y0() at t) for each flow time, built one after another."""
    V = NeighborhoodV(cfg.sig)
    y0 = cfg.y0()
    for t in cfg.times():
        yield t, orbit_pushforward(y0, t, V, cfg.samples, cfg.seed, cfg.budget)


def _run_zeta(cfg: ExperimentConfig) -> Iterator:
    b = torus_from_json(list(cfg.b0)) if cfg.b0 else TorusPoint.from_values([0.5])
    Ts = cfg.times()
    values = []
    for T in Ts:
        z = zeta(b, T)
        values.append(z)
        cap = dirichlet_cap(T, b.dim)
        yield CheckResult(
            f"zeta-dirichlet-cap[T={T:g}]",
            z <= cap,
            details={"zeta": z, "cap": cap},
        )
    yield CheckResult(
        "zeta-monotone-in-T",
        sorted(Ts) != list(Ts) or all(a <= b for a, b in zip(values, values[1:])),
        details={"values": values},
    )
    header = [f"b{i+1}" for i in range(b.dim)] + ["T", "zeta"]
    columns = [[c] * len(Ts) for c in torus_to_json(b)] + [[float(T) for T in Ts], values]
    yield Table("zeta.csv", header, columns)


def _run_weyl(cfg: ExperimentConfig) -> Iterator:
    if cfg.alpha is None:
        raise ConfigError("weyl experiment needs --alpha")
    instances = (WeylInstance(cfg.alpha, int(T), cfg.x0, cfg.rho) for T in cfg.times())
    rows, ratios, cw, passed = effective_weyl(instances)
    yield CheckResult("weyl-count-bounded", passed, details={"fitted_C_W": cw, "ratios": ratios})
    yield Table("weyl.csv", ["alpha", "T", "rho", "count", "bound"], list(zip(*rows)))


def _run_reduce(cfg: ExperimentConfig) -> Iterator:
    """The check, then the reduction itself as the JSON table `reduce.json` (the report's `result`)."""
    if cfg.g0 is None:
        raise ConfigError("reduce experiment needs --g0")
    g = matrix_from_json(cfg.g0)
    r = reduce_matrix(g, cfg.budget)
    # the worst residual of the factorization certificate, as a fraction of its tolerance
    ratio = float(factorization_residuals(g.entries[None], r.rep.entries[None], r.gamma.to_array()[None]).max())
    yield CheckResult(
        "reduce-coset-preserved",
        ratio <= 1.0,
        details={"fvalue": r.fvalue, "certificate": r.certificate, "residual_ratio": ratio},
    )
    payload = {
        "rep": matrix_to_json(r.rep),
        "gamma": [list(row) for row in r.gamma.rows],
        "fvalue": r.fvalue,
        "certificate": r.certificate,
    }
    yield Table("reduce.json", None, payload)


def _orbit_columns(nu) -> list:
    """Columns (u..., gamma..., sigma..., height_after) of an orbit cloud: float64 and int64 arrays."""
    n = nu.size
    return [
        *nu.us.reshape(n, -1).astype(float, copy=False).T,
        *nu.gammas.reshape(n, -1).astype(np.int64, copy=False).T,
        *nu.coords.reshape(n, -1).astype(float, copy=False).T,
        nu.heights.astype(float, copy=False),
    ]


def _orbit_header(sig: SplittingSignature) -> list:
    head = [f"u{i+1}" for i in range(sig.m * sig.n)]
    head += [f"gamma{i+1}{j+1}" for i in range(sig.d) for j in range(sig.d)]
    head += [f"sigma{i+1}" for i in range(sig.d)]
    head += ["height_after"]
    return head


def _run_orbit(cfg: ExperimentConfig) -> Iterator:
    for t, nu in _orbits(cfg):
        yield CheckResult(
            f"orbit-weights-normalized[t={t:g}]",
            abs(float(nu.weights.sum()) - 1.0) <= 1e-12,
            details={"samples": nu.size, "rational": nu.is_rational},
        )
        yield Table(f"orbit_t{t:g}.csv", _orbit_header(cfg.sig), _orbit_columns(nu))


def _run_fourier(cfg: ExperimentConfig) -> Iterator:
    series = []
    for t, nu in _orbits(cfg):
        spec, off_grid = off_grid_max(nu, cfg.max_freq)
        series.append((t, off_grid))
        yield CheckResult(
            f"fourier-zero-mode[t={t:g}]",
            abs(spec[(0,) * nu.dim] - 1.0) <= 1e-12,
            details={"max_nontrivial": off_grid, "noise_floor": spec.noise_floor},
        )
        ms, cs = zip(*sorted(spec.coeffs.items()))
        header = [f"m{i+1}" for i in range(nu.dim)] + ["re", "im", "abs"]
        columns = list(zip(*ms)) + [[c.real for c in cs], [c.imag for c in cs], [abs(c) for c in cs]]
        yield Table(f"fourier_t{t:g}.csv", header, columns)
    slope, resid, used = fourier_decay_fit(series, spec.noise_floor)
    if slope is not None:
        yield CheckResult(
            "fourier-decay-fit",
            slope < 0,
            details={"slope": slope, "residual": resid, "points_used": used},
        )


def _run_concentration(cfg: ExperimentConfig) -> Iterator:
    rows = []
    for t, nu in _orbits(cfg):
        p, mass = max_concentration(nu, cfg.rho)
        rows.append(tuple(float(c) for c in p.as_floats()) + (float(cfg.rho), float(mass)))
        yield CheckResult(
            f"concentration[t={t:g}]",
            mass <= 1.0 + 1e-12,
            details={"mass": mass},
        )
    header = [f"p{i+1}" for i in range(cfg.sig.d)] + ["rho", "mass"]
    yield Table("concentration.csv", header, list(zip(*rows)))


def _run_gamma_orbit(cfg: ExperimentConfig) -> Iterator:
    V = NeighborhoodV(cfg.sig)
    x_rep = reduce_matrix(cfg.y0().linear, cfg.budget).rep
    m0 = (1,) + (0,) * (cfg.sig.d - 1)
    rows = []
    for s in cfg.times():
        summary = gamma_orbit_summary(gamma_orbit(x_rep, m0, s, V, cfg.samples, cfg.seed, cfg.epsilon, cfg.budget))
        rows.append((float(s), summary["kept_fraction"], summary["emitted_radius"], summary["max_bin_mass"]))
        yield CheckResult(f"gamma-orbit[s={s:g}]", summary["kept_fraction"] > 0, details=summary)
    yield Table("gamma_orbit.csv", ["s", "kept_fraction", "emitted_radius", "max_bin_mass"], list(zip(*rows)))


def _run_siegel(cfg: ExperimentConfig) -> Iterator:
    for t, nu in _orbits(cfg):
        check, values = siegel_check(f"siegel-average[t={t:g}]", nu, cfg.radius, cfg.budget)
        yield check
        yield Table(f"siegel_t{t:g}.csv", ["sample", "value"], [np.arange(len(values)), values])


def _run_acceptance(cfg: ExperimentConfig) -> Iterator:
    from .acceptance import run_acceptance  # imported late: acceptance imports this module

    return run_acceptance(cfg.suite, cfg.budget)


_RUNNERS = {
    "zeta": _run_zeta,
    "weyl": _run_weyl,
    "reduce": _run_reduce,
    "orbit": _run_orbit,
    "fourier": _run_fourier,
    "concentration": _run_concentration,
    "gamma-orbit": _run_gamma_orbit,
    "siegel": _run_siegel,
    "acceptance": _run_acceptance,
}

KINDS = tuple(_RUNNERS)


def run(cfg: ExperimentConfig) -> RunReport:
    """Execute one experiment: the one place that builds its report and writes its artifacts.

    Checks are filed in the order the runner yields them.  With `cfg.out`,
    each table is written there as it arrives, and `report.json` last; a
    JSON table is also the report's `result`.  `wall_time` covers the
    tables but not `report.json`.
    """
    cfg.validate()
    start = time.time()
    report = RunReport(config=cfg.to_json(), checks=[])
    for item in _RUNNERS[cfg.kind](cfg):
        if isinstance(item, CheckResult):
            report.checks.append(item)
            continue
        if item.header is None:
            report.result = item.data
        if cfg.out is not None:
            report.artifacts.append(_write_artifact(cfg.out, item))
    report.wall_time = time.time() - start
    if cfg.out is not None:
        report.artifacts.append(_write_artifact(cfg.out, Table("report.json", None, report.to_json())))
    return report
