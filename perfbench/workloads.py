"""The benchmark's workloads.

Each workload builds its inputs from the seed in `setup` (untimed, but
reported as setup_s), does the timed work in `run`, and checks what
`run` returned in `check`.  `fingerprint` is a cheap digest of one
iteration's output: iterations with equal fingerprints have equal
outputs, so each distinct output is checked once.  See README.md for
why each workload exists and which layers it exercises.
"""

from __future__ import annotations

import hashlib
import math
import tempfile
from dataclasses import dataclass

import numpy as np

from horolattice import fundamental, harness, measures, orbits
from horolattice.core import AffineLatticePoint, SpecialLinearMatrix, SplittingSignature, TorusPoint

from checks import Verdict, check_concentration, check_localization, check_orbit, check_spectrum, digest

#: b0 = (sqrt 2 - 1, sqrt 3 - 1): an irrational fiber, carried as floats.
B0_IRRATIONAL = (math.sqrt(2.0) - 1.0, math.sqrt(3.0) - 1.0)
#: Per-seed shift of the d2-orbit-cusp fiber (seed 0 keeps B0_IRRATIONAL).
B0_SEED_STEP = (math.sqrt(5.0) - 2.0, math.sqrt(7.0) - 2.0)
SIG_2 = SplittingSignature(1, 1)
#: Columns of the sig (1, 1) orbit CSV, in the order `OrbitCsv.check` parses them.
CSV_HEADER = ["u1", "gamma11", "gamma12", "gamma21", "gamma22", "sigma1", "sigma2", "height_after"]
SIG_3 = SplittingSignature(1, 2)


def _y0(b0) -> AffineLatticePoint:
    d = len(b0)
    return AffineLatticePoint(SpecialLinearMatrix.from_entries(np.eye(d)), TorusPoint.from_values(list(b0)))


def _orbit_arrays(nu) -> tuple:
    arrays = (nu.us, nu.coords, nu.weights, nu.gammas, nu.xis, nu.heights)
    return arrays + ((nu.numerators,) if nu.is_rational else ())


def _check_cloud(nu, y0, sig, t) -> Verdict:
    return check_orbit(
        y0, sig, t, nu.us, nu.gammas, nu.coords, nu.heights,
        xis=nu.xis, numerators=nu.numerators, denominator=nu.denominator,
    )


def _file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


@dataclass
class OrbitCsv:
    """harness.run of kind orbit writing its CSV: the bulk d = 2 path."""

    name = "d2-orbit-csv"
    t = 4.0
    samples: int = 100_000

    def setup(self, seed: int, scratch: str) -> dict:
        out = tempfile.mkdtemp(prefix="csv-", dir=scratch)
        cfg = harness.ExperimentConfig(
            kind="orbit", m=1, n=1, t=self.t, samples=self.samples, seed=seed, b0=B0_IRRATIONAL, out=out
        )
        return {"cfg": cfg.validate(), "y0": cfg.y0()}

    def run(self, state: dict):
        report = harness.run(state["cfg"])
        return report.artifacts[0]  # the orbit CSV; report.json follows it

    def fingerprint(self, out) -> str:
        return _file_sha256(out)

    def check(self, state: dict, out) -> tuple:
        with open(out, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
        rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        v = Verdict()
        v.record("csv-header", header == CSV_HEADER)
        v.record("csv-rows", rows.shape == (self.samples, 8))
        us = rows[:, 0].reshape(-1, 1, 1)
        gammas = rows[:, 1:5].astype(np.int64).reshape(-1, 2, 2)
        v.record("csv-gamma-integral", np.array_equal(gammas.reshape(-1, 4), rows[:, 1:5]))
        coords, heights = rows[:, 5:7], rows[:, 7]
        v.merge(check_orbit(state["y0"], SIG_2, self.t, us, gammas, coords, heights), "orbit")
        return v, {"arrays": digest(us, gammas, coords, heights), "csv": self.fingerprint(out)}


@dataclass
class OrbitCusp:
    """orbit_pushforward at t = 8: the scalar fallback dominates.

    The u-draws come from program seed `stream_seed` whatever the
    benchmark seed; the seed moves the fiber instead.  README.md says why.
    """

    name = "d2-orbit-cusp"
    t = 8.0
    stream_seed = 0
    samples: int = 100_000

    def setup(self, seed: int, scratch: str) -> dict:
        b0 = [(b + seed * s) % 1.0 for b, s in zip(B0_IRRATIONAL, B0_SEED_STEP)]
        return {"y0": _y0(b0), "V": orbits.NeighborhoodV(SIG_2)}

    def run(self, state: dict):
        return orbits.orbit_pushforward(state["y0"], self.t, state["V"], self.samples, self.stream_seed)

    def fingerprint(self, nu) -> str:
        return digest(*_orbit_arrays(nu))

    def check(self, state: dict, nu) -> tuple:
        return _check_cloud(nu, state["y0"], SIG_2, self.t), {"arrays": self.fingerprint(nu)}


@dataclass
class OrbitD3:
    """orbit_pushforward for signature (1, 2): the per-sample scalar path."""

    name = "d3-orbit"
    t = 4.0
    samples: int = 1000
    budget: int = fundamental.DEFAULT_BUDGET

    def setup(self, seed: int, scratch: str) -> dict:
        return {"y0": _y0(["1/3", "2/3", "1/5"]), "V": orbits.NeighborhoodV(SIG_3), "seed": seed}

    def run(self, state: dict):
        return orbits.orbit_pushforward(
            state["y0"], self.t, state["V"], self.samples, state["seed"], self.budget
        )

    def fingerprint(self, nu) -> str:
        return digest(*_orbit_arrays(nu))

    def check(self, state: dict, nu) -> tuple:
        return _check_cloud(nu, state["y0"], SIG_3, self.t), {"arrays": self.fingerprint(nu)}


@dataclass
class Measures:
    """Fourier, concentration and localization on clouds built in setup."""

    name = "d2-measures"
    rho = 0.05
    localization_t = 8.0
    radii = (0.1, 0.07, 0.05)  # criterion 11
    fourier_samples: int = 20_000
    max_freq: int = 16
    concentration_samples: int = 5000
    localization_samples: int = 20_000

    def setup(self, seed: int, scratch: str) -> dict:
        V = orbits.NeighborhoodV(SIG_2)
        y_irr, y_rat = _y0(B0_IRRATIONAL), _y0(["1/3", "2/3"])
        clouds = {
            "irrational": (y_irr, 4.0, self.fourier_samples),
            "rational": (y_rat, 4.0, self.fourier_samples),
            "concentration": (y_irr, 4.0, self.concentration_samples),
            "localization": (y_irr, self.localization_t, self.localization_samples),
        }
        state = {key: orbits.orbit_pushforward(y, t, V, n, seed) for key, (y, t, n) in clouds.items()}
        state["inputs"] = clouds
        gz = np.array([[1.1, 0.3], [0.2, (1.0 + 0.3 * 0.2) / 1.1]])
        state["z"] = fundamental.reduce_matrix(gz).rep
        return state

    def run(self, state: dict):
        spectra = [measures.fourier_spectrum(state[k], self.max_freq) for k in ("irrational", "rational")]
        centre, mass = measures.max_concentration(state["concentration"], self.rho)
        locs = [orbits.localized_measure(state["localization"], state["z"], r) for r in self.radii]
        return spectra, centre, mass, locs

    def _arrays(self, out) -> tuple:
        spectra, centre, mass, locs = out
        coeffs = [np.array([s.coeffs[k] for k in sorted(s.coeffs)]) for s in spectra]
        masses = np.array([mass] + [loc.localization_mass for loc in locs])
        return (*coeffs, centre.as_floats(), masses, *(loc.weights for loc in locs))

    def fingerprint(self, out) -> str:
        return digest(*self._arrays(out))

    def check(self, state: dict, out) -> tuple:
        spectra, centre, mass, locs = out
        v = Verdict()
        if "clouds" not in state:  # inputs never change within a run
            state["clouds"] = Verdict()
            for key, (y, t, _) in state["inputs"].items():
                state["clouds"].merge(_check_cloud(state[key], y, SIG_2, t), key)
        v.merge(state["clouds"], "cloud")
        for key, spec in zip(("irrational", "rational"), spectra):
            v.merge(check_spectrum(spec), f"fourier.{key}")
        v.merge(check_concentration(state["concentration"], self.rho, centre, mass), "concentration")
        masses = [loc.localization_mass for loc in locs]
        v.merge(check_localization(state["localization"], masses), "localization")
        return v, {"arrays": self.fingerprint(out)}


WORKLOADS = {w.name: w for w in (OrbitCsv, OrbitCusp, OrbitD3, Measures)}
