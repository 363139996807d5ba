import dataclasses
import json
import math
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horolattice import cli, csvformat, harness
from horolattice.core import IntegerMatrix
from horolattice.errors import ConfigError


def test_reduce_passes_coset_check():
    assert cli.main(["reduce", "--g0", "[[2, 1], [1, 1]]"]) == 0


def test_reduce_non_unimodular_input_exits_2(capsys):
    assert cli.main(["reduce", "--g0", "[[2, 0], [0, 1]]"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("determinant error:") and err.count("\n") == 1


def test_reduce_corrupted_gamma_fails_coset_check(monkeypatch):
    real = harness.reduce_matrix
    shear = IntegerMatrix.from_rows([[1, 1], [0, 1]])

    def corrupted(g, budget):
        r = real(g, budget)
        return dataclasses.replace(r, gamma=r.gamma @ shear)

    monkeypatch.setattr(harness, "reduce_matrix", corrupted)
    report = harness.run(harness.ExperimentConfig.from_json({"kind": "reduce", "g0": [[2, 1], [1, 1]]}))
    (check,) = report.checks
    assert check.name == "reduce-coset-preserved" and not check.passed
    assert check.details["residual_ratio"] > 1.0
    assert cli.main(["reduce", "--g0", "[[2, 1], [1, 1]]"]) == 1


def test_orbit_fiber_denominator_over_cap_exits_2(capsys):
    assert cli.main(["orbit", "--t", "1", "--samples", "100", "--b0", f"1/{2**63},0"]) == 2
    assert "denominator" in capsys.readouterr().err


@pytest.mark.parametrize("m, n, t_max", [(1, 1, 12.0), (1, 2, 8.0), (2, 1, 5.0)])
def test_flow_cap_edge(m, n, t_max, capsys):
    assert harness.PRECISION_CAPS[(m, n)] == n * t_max
    b0 = ",".join(["1/3", "2/3", "1/5"][: m + n])
    base = ["orbit", "--m", str(m), "--n", str(n), "--samples", "100", "--b0", b0]
    assert cli.main(base + ["--t", str(t_max)]) == 0
    assert cli.main(base + ["--t", str(t_max + 0.01)]) == 2
    assert capsys.readouterr().err.startswith("configuration error:")


@pytest.mark.parametrize("kind", ["zeta", "weyl"])
def test_horizon_cap_edge(kind):
    # validate alone: test_diophantine counts at the weyl cap
    cap = harness.HORIZON_CAPS[kind]
    for T in (1.0, cap):
        harness.ExperimentConfig(kind=kind, t=T).validate()
    for T in (math.nextafter(1.0, 0.0), math.nextafter(cap, math.inf)):
        with pytest.raises(ConfigError, match=f"^{kind} horizon T = "):
            harness.ExperimentConfig(kind=kind, t=T).validate()


def test_samples_cap_edge(capsys):
    # validate alone at the cap, which no test runs
    cap = harness.MAX_SAMPLES
    for kind in ("orbit", "fourier", "siegel"):
        harness.ExperimentConfig(kind=kind, t=1.0, samples=cap).validate()
    assert cli.main(["orbit", "--t", "1", "--samples", str(cap + 1)]) == 2
    err = capsys.readouterr().err
    assert err == f"configuration error: statistical experiments take at most {cap} samples, not {cap + 1}\n"


def test_siegel_enumeration_failure_names_its_sample(capsys):
    # at t = 4 the orbit reduces within a budget of 20; the count of sample 26
    # is the first whose ball enumeration it does not cover
    assert cli.main(["siegel", "--t", "4", "--samples", "100", "--radius", "1.5", "--budget", "20"]) == 2
    assert capsys.readouterr().err == "budget/precision error: siegel of sample 26 at t = 4: enumeration node budget exceeded\n"


@pytest.mark.parametrize(
    "argv, config, checks, headers",
    [
        # zeta and weyl read the grid as horizons T, so the flow-time cap does not apply
        (
            ["zeta", "--b0", "0.3,0.7", "--t-grid", "10,100,1000"],
            None,
            ["zeta-dirichlet-cap[T=10]", "zeta-dirichlet-cap[T=100]", "zeta-dirichlet-cap[T=1000]", "zeta-monotone-in-T"],
            {"zeta.csv": "b1,b2,T,zeta"},
        ),
        (
            ["weyl", "--alpha", "0.6180339887", "--t-grid", "1000,10000"],
            None,
            ["weyl-count-bounded"],
            {"weyl.csv": "alpha,T,rho,count,bound"},
        ),
        (["weyl", "--alpha", "0.6180339887", "--t", "1000"], None, ["weyl-count-bounded"], {"weyl.csv": "alpha,T,rho,count,bound"}),
        (
            ["fourier", "--t-grid", "1,2", "--samples", "500", "--b0", "1/3,2/3"],
            None,
            ["fourier-zero-mode[t=1]", "fourier-zero-mode[t=2]"],
            {"fourier_t1.csv": "m1,m2,re,im,abs", "fourier_t2.csv": "m1,m2,re,im,abs"},
        ),
        # a float fiber (only a config file carries one) decays enough for the fit
        (
            ["fourier", "--samples", "500"],
            {"b0": [math.sqrt(2) - 1, math.sqrt(3) - 1], "t_grid": [0.5, 1, 1.5, 2]},
            [f"fourier-zero-mode[t={t}]" for t in ("0.5", "1", "1.5", "2")] + ["fourier-decay-fit"],
            {f"fourier_t{t}.csv": "m1,m2,re,im,abs" for t in ("0.5", "1", "1.5", "2")},
        ),
        (["concentration", "--t", "2", "--samples", "500"], None, ["concentration[t=2]"], {"concentration.csv": "p1,p2,rho,mass"}),
        (
            ["gamma-orbit", "--t-grid", "2,3", "--samples", "500"],
            None,
            ["gamma-orbit[s=2]", "gamma-orbit[s=3]"],
            {"gamma_orbit.csv": "s,kept_fraction,emitted_radius,max_bin_mass"},
        ),
        (
            ["siegel", "--m", "1", "--n", "2", "--t", "1", "--samples", "100", "--radius", "0.5"],
            None,
            ["siegel-average[t=1]"],
            {"siegel_t1.csv": "sample,value"},
        ),
    ],
    ids=["zeta-T-grid", "weyl-T-grid", "weyl", "fourier", "fourier-decay-fit", "concentration", "gamma-orbit", "siegel-d3"],
)
def test_kind_runs_to_its_artifacts(argv, config, checks, headers, tmp_path):
    out = tmp_path / "out"
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        argv = argv + ["--config", str(tmp_path / "config.json")]
    assert cli.main(argv + ["--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert [c["name"] for c in report["checks"]] == checks
    assert [Path(p).name for p in report["artifacts"]] == list(headers)
    for name, header in headers.items():
        assert (out / name).read_text().split("\n", 1)[0] == header


_CONFIG, _BUDGET = "configuration error:", "budget/precision error:"
#: (argv, message, stderr prefix) of each bad input
_BAD_INPUT = [
    (["orbit", "--m", "2", "--n", "2", "--t", "2", "--samples", "200"], "signature (2,2) has no certified reduction", _CONFIG),
    (["orbit", "--t", "1", "--samples", "100", "--b0", "1/3"], "torus part 1", _CONFIG),
    (["orbit", "--t", "1", "--samples", "100", "--b0", "abc,1"], "Invalid literal for Fraction", _CONFIG),
    (["orbit", "--m", "1", "--n", "2", "--t", "9", "--samples", "100"], "exceeds the certified precision cap", _CONFIG),
    (["concentration", "--t", "1", "--samples", "100", "--rho", "0.7"], "rho must lie in", _CONFIG),
    (["fourier", "--t", "1", "--samples", "100", "--max-freq", "0"], "fourier needs --max-freq >= 1", _CONFIG),
    (["siegel", "--t", "2", "--samples", "100", "--radius", "0"], "siegel needs a finite positive --radius", _CONFIG),
    (["siegel", "--t", "2", "--samples", "100", "--radius", "inf"], "siegel needs a finite positive --radius", _CONFIG),
    (["siegel", "--t", "2", "--samples", "100", "--radius", "nan"], "siegel needs a finite positive --radius", _CONFIG),
    (["siegel", "--t", "2", "--samples", "100", "--radius", "-0.5"], "siegel needs a finite positive --radius", _CONFIG),
    (["siegel", "--m", "1", "--n", "2", "--t", "2", "--samples", "100", "--radius", "-0.5"], "siegel needs a finite positive --radius", _CONFIG),
    (["zeta", "--t", "inf"], "time inf is not finite", _CONFIG),
    (["weyl", "--t", "inf", "--alpha", "0.3"], "time inf is not finite", _CONFIG),
    (["orbit", "--t", "nan", "--samples", "100"], "time nan is not finite", _CONFIG),
    (["orbit", "--t-grid", "1,-inf", "--samples", "100"], "time -inf is not finite", _CONFIG),
    (["weyl", "--t", "1e12", "--alpha", "0.3"], "weyl horizon T = 1e+12 lies outside [1, 1e+07]", _CONFIG),
    (["weyl", "--t-grid", "100,0.5", "--alpha", "0.3"], "weyl horizon T = 0.5 lies outside", _CONFIG),
    (["zeta", "--t", "1e300"], "zeta horizon T = 1e+300 lies outside [1, 1e+10]", _CONFIG),
    (["zeta", "--t", "0"], "zeta horizon T = 0 lies outside", _CONFIG),
    (["weyl", "--t", "10", "--alpha", "0.3", "--x0", "nan"], "alpha, x0 and rho must be finite, not 0.3, nan, 0.05", _CONFIG),
    (["weyl", "--t", "10", "--alpha", "nan"], "alpha, x0 and rho must be finite, not nan, 0.3, 0.05", _CONFIG),
    (["weyl", "--t", "10", "--alpha", "0.3", "--rho", "inf"], "alpha, x0 and rho must be finite, not 0.3, 0.3, inf", _CONFIG),
    (["concentration", "--t", "1", "--samples", "100", "--rho", "nan"], "alpha, x0 and rho must be finite, not None, 0.3, nan", _CONFIG),
    (["reduce", "--g0", "[[1e160, 0], [0, 1e-160]]"], "entry scale 1e+160 is beyond the determinant check's range", _BUDGET),
    (["reduce", "--g0", "[[1e200, 0], [0, 1e-200]]"], "entry scale 1e+200 is beyond the determinant check's range", _BUDGET),
    # det 1 within a finite tolerance, so the search runs: the minima are found,
    # and the ball of candidate columns holds more points than the budget
    (["reduce", "--g0", "[[1e100, 0], [0, 1e-100]]"], "enumeration node budget exceeded", _BUDGET),
    # a shear whose transform would leave int64, refused before its cast
    (["reduce", "--g0", "[[1, 1e20], [0, 1]]"], "Lagrange shear 1e+20 takes the transform beyond int64", _BUDGET),
    (["orbit", "--t", "1", "--samples", "100", "--b0", "1/0,1/2"], "torus coordinate '1/0' has a zero denominator", _CONFIG),
    (["zeta", "--t", "10", "--b0", "1/0"], "torus coordinate '1/0' has a zero denominator", _CONFIG),
    # a ball of infinite span holds more points than any budget, refused before the walk
    (["siegel", "--t", "2", "--samples", "100", "--radius", "1e200"], "siegel of sample 0 at t = 2: enumeration node budget exceeded", _BUDGET),
    # a level whose range alone passes the budget, refused on entry, not walked
    (["siegel", "--t", "2", "--samples", "100", "--radius", "1e20"], "siegel of sample 0 at t = 2: enumeration node budget exceeded", _BUDGET),
    (["reduce", "--g0", "[[1e8, 0, 0], [0, 1e-4, 0], [0, 0, 1e-4]]"], "enumeration node budget exceeded", _BUDGET),
]


@pytest.mark.parametrize(
    "argv, message, prefix",
    _BAD_INPUT,
    # a row is named by its index and message alone
    ids=[f"argv{i}-{message}" for i, (_, message, _) in enumerate(_BAD_INPUT)],
)
def test_bad_input_exits_2_with_one_line(argv, message, prefix, capsys):
    # exit 1 is kept for a failed invariant; a ValueError of any kind is bad
    # input, and a matrix too large to reduce is a budget or precision error;
    # a warning would print a second stderr line outside the test runner
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(argv) == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith(prefix) and message in err and err.count("\n") == 1


_MISTYPED = {
    "kind": 5, "m": "1", "n": 1.5, "t": "1", "t_grid": 3, "samples": "many", "seed": True, "b0": [[1], 0],
    "g0": [[1, 0], 1], "epsilon": "0.1", "rho": [0.05], "max_freq": 2.0, "alpha": "0.3", "x0": None,
    "radius": {}, "out": 5, "budget": 1e6, "suite": ["all"], "schema": "1",
}


@pytest.mark.parametrize("field", sorted(_MISTYPED))
def test_mistyped_config_field_exits_2_with_one_line(field, tmp_path, capsys):
    assert set(_MISTYPED) == {f.name for f in dataclasses.fields(harness.ExperimentConfig)}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"kind": "orbit", "t": 1, "samples": 100, field: _MISTYPED[field]}))
    assert cli.main(["orbit", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: config field {field!r} must be ") and err.count("\n") == 1


def test_fourier_decay_skips_the_dual_grid_of_a_rational_fiber(capsys):
    argv = ["fourier", "--t-grid", "1,2,3,4", "--b0", "1/3,2/3"]
    # c(m) = 1 on m = 0 mod 3; off that grid, at N = 500, only two maxima
    # reach the floor 5/sqrt(N), so no fit is made
    assert cli.main(argv + ["--samples", "500"]) == 0
    assert "fourier-decay-fit" not in capsys.readouterr().out
    assert cli.main(argv + ["--samples", "100000"]) == 0
    assert "fourier-decay-fit: PASS" in capsys.readouterr().out.splitlines()
    # the default b0 = 0 is the fixed point 0, which does not equidistribute:
    # every coefficient is 1, and the fit reads slope 0 and fails
    assert cli.main(["fourier", "--t-grid", "1,2,3,4", "--samples", "500"]) == 1
    assert "fourier-decay-fit: FAIL" in capsys.readouterr().out.splitlines()


def test_fourier_fiber_denominator_over_phase_cap_exits_2(capsys):
    # decimal strings give a fiber denominator of 10^16
    assert cli.main(["fourier", "--t", "1", "--samples", "100", "--b0", "0.4142135623730951,0.7320508075688772"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("budget/precision error:") and "denominator q = 10000000000000000" in err


def reference_log_fit(pts):
    """The least-squares body both fits used to carry."""
    xs = np.array([x for x, _ in pts])
    ys = np.log(np.array([v for _, v in pts]))
    A = np.vstack([xs, np.ones(len(xs))]).T
    sol, *_ = np.linalg.lstsq(A, ys, rcond=None)
    return float(sol[0]), float(sol[1]), float(np.sqrt(np.mean((A @ sol - ys) ** 2)))


def test_fits_share_one_least_squares_body():
    # power-law fits pass log x, so they keep the bits of the log-log fit they replaced
    rng = np.random.default_rng(5)
    for n in (3, 4, 7):
        series = [(float(x), float(v)) for x, v in zip(np.sort(rng.uniform(1, 9, n)), rng.uniform(0.1, 2, n))]
        logs = [(math.log(x), v) for x, v in series]
        assert harness.decay_fit(logs) == reference_log_fit(logs)
        assert harness.decay_fit(series) == reference_log_fit(series)
    assert not hasattr(harness, "loglog_fit")
    with pytest.raises(ValueError, match="constant predictor"):
        harness.decay_fit([(2.0, 1.0)] * 3)
    with pytest.raises(ValueError, match="at least three points"):
        harness.decay_fit([(1.0, 1.0), (2.0, 0.5)])


def test_reduce_result_is_a_report_field():
    assert "result" in {f.name for f in dataclasses.fields(harness.RunReport)}
    assert harness.RunReport(config={}, checks=[]).result is None
    report = harness.run(harness.ExperimentConfig.from_json({"kind": "reduce", "g0": [[2, 1], [1, 1]]}))
    assert report.result["gamma"] and report.result["certificate"] > 0


def reference_write_csv(path, header, columns):
    """The per-cell CSV writer that the block kernels replaced, over the rows of the columns."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join(f"{float(x):.17g}" if isinstance(x, float) else str(x) for x in row) + "\n")
    return path


def reference_orbit_columns(nu):
    """The orbit columns as lists of Python scalars, one cell at a time."""
    rows = []
    for i in range(nu.size):
        row = tuple(float(x) for x in nu.us[i].ravel())
        row += tuple(int(x) for x in nu.gammas[i].ravel())
        row += tuple(float(x) for x in nu.coords[i])
        row += (float(nu.heights[i]),)
        rows.append(row)
    return [list(column) for column in zip(*rows)]


def run_csv_files(config, out):
    """{name: bytes} of the CSV artifacts of one run of the config into directory out."""
    report = harness.run(harness.ExperimentConfig.from_json({"out": str(out), **config}))
    return {Path(p).name: Path(p).read_bytes() for p in report.artifacts if p.endswith(".csv")}


@pytest.mark.parametrize(
    "config",
    [
        {"kind": "orbit", "t": 4.0, "samples": 5000, "b0": [math.sqrt(2) - 1, math.sqrt(3) - 1]},
        {"kind": "orbit", "m": 1, "n": 2, "t": 2.0, "samples": 150, "b0": ["1/3", "2/3", "1/5"]},
        {"kind": "orbit", "t_grid": [2.0, 6.0], "samples": 1000, "b0": ["1/3", "2/3"]},
        {"kind": "zeta", "t_grid": [10, 50, 200], "b0": [math.sqrt(2) - 1]},
        {"kind": "zeta", "t_grid": [10, 50], "b0": ["1/3"]},
        {"kind": "weyl", "t_grid": [100, 1000], "alpha": math.sqrt(2) - 1},
        {"kind": "fourier", "t_grid": [1.0, 2.0, 3.0, 4.0], "samples": 500, "max_freq": 2, "b0": [0.1, 0.2]},
        {"kind": "concentration", "t_grid": [1.0, 2.0], "samples": 300, "rho": 0.1, "b0": ["1/3", "1/2"]},
        {"kind": "gamma-orbit", "t_grid": [1.0, 2.0], "samples": 300},
        {"kind": "siegel", "t": 4.0, "samples": 1000, "radius": 0.3},
        {"kind": "siegel", "t": 4.0, "samples": 200, "radius": 1.5},
    ],
    ids=[
        "float-fiber-11", "rational-fiber-12", "t-grid", "zeta", "zeta-rational", "weyl",
        "fourier", "concentration", "gamma-orbit", "siegel-closed-form", "siegel-enumerated",
    ],
)
def test_orbit_csv_matches_per_cell_reference(config, tmp_path, monkeypatch):
    # every CSV kind; the 5000-row orbit spans two blocks of the writer; siegel's
    # values are float64 by the closed form and by enumeration alike, and the
    # int64 kernel runs on the gamma columns and on siegel's sample column
    got = run_csv_files(config, tmp_path / "new")
    one_per_t = config["kind"] in ("orbit", "fourier", "siegel")
    assert len(got) == (len(config.get("t_grid", [0])) if one_per_t else 1)
    monkeypatch.setattr(harness, "_write_csv", reference_write_csv)
    monkeypatch.setattr(harness, "_orbit_columns", reference_orbit_columns)
    assert got == run_csv_files(config, tmp_path / "reference")


def test_write_csv_matches_per_cell_reference_on_every_cell_type(tmp_path):
    cells = (
        -0.0, math.nan, math.inf, -math.inf, 5e-324, 0.1, 1e300, np.float64(2 / 3), np.int64(-3),
        np.float32(0.1), np.bool_(False), True, 7, Fraction(1, 3), "a%s,b",
    )
    floats = np.array([-0.0, math.nan, math.inf, -math.inf, 5e-324, 0.1, 1e300, 2 / 3, -1e-5, 123456.75])
    singles = np.array([0.1, 2 / 3, -1e-5, 3e38, 1e-45, -0.0, math.nan, math.inf, 7.0, 123456.75], dtype=np.float32)
    long = np.random.default_rng(0).standard_normal(10_000) * 10.0 ** np.arange(-8, 17).repeat(400)
    tables = [
        # each cell type in a column, as in the two rows (cells, reversed cells)
        [[c, r] for c, r in zip(cells, reversed(cells))],
        [[1.5], [2]],
        # one column changes type from row to row
        [[0.25, 3, np.int64(4), np.float64(0.5), "x", Fraction(5, 2), 0.25], [1] * 7],
        # the kernels' columns next to the per-cell ones: float32 and bool arrays
        [floats, np.arange(-5, 5), np.arange(10, dtype=np.int32), singles, floats > 0],
        [np.array([2**63 - 1, -(2**63), 0]), np.array([-1, 10**18, -(10**17)])],
        # more rows than one block: long runs split into several
        [long, np.arange(10_000) * 7919 - 10**7, long.astype(np.float32)],
        [np.array([]), np.array([], dtype=np.int64)],
    ]
    for i, columns in enumerate(tables):
        header = [f"c{j}" for j in range(len(columns))]
        got = harness._write_csv(str(tmp_path / f"new{i}.csv"), header, columns)
        ref = reference_write_csv(str(tmp_path / f"ref{i}.csv"), header, columns)
        assert Path(got).read_bytes() == Path(ref).read_bytes(), i
    with pytest.raises(ValueError, match="differ in length"):
        harness._write_csv(str(tmp_path / "ragged.csv"), ["a", "b"], [[1.5], [2, 3]])


def kernel_cells(column):
    """The cells of a one-column table (a numpy array), as the block writer prints them."""
    return csvformat.lines([column]).decode().split("\n")[:-1]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats() | st.floats(1e-7, 1e18) | st.floats(-1e18, -1e-7), min_size=1, max_size=40))
def test_float_kernel_prints_every_double_as_printf(values):
    assert kernel_cells(np.array(values, dtype=np.float64)) == ["%.17g" % v for v in values]


def test_float_kernel_prints_the_edges_as_printf():
    edges = []
    for k in range(-8, 19):
        p = float(f"1e{k}")
        edges += [np.nextafter(p, 0), p, np.nextafter(p, math.inf)]
    # the fixed/exponent switches at 1e-4 and 1e17 are among the powers above
    edges += [9.9999999999999991e-05, 0.0001, 99999999999999984.0, 1e17]
    # dyadic half-way ties: 18 significant digits ending in 5, so the 17th
    # rounds to even, down (...312|5) and up (...937|5)
    ties = [(2**17 + 1) / 2**17, (2**17 + 3) / 2**17, (2**18 - 1) / 2**18, 9 + 2**-17]
    for tie in ties:
        digits = Decimal(tie).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5, tie
    # the doubles just below each 10^(17-s), s = 0..22, the ones nearest to
    # carrying into the next exponent: scaled by 10^s each stays a whole 8
    # or more below 1e17, so 17-digit rounding never reaches 10^17
    below = []
    for s in range(23):
        x = float(Fraction(10) ** (17 - s))
        below.append(x if Fraction(x) < Fraction(10) ** (17 - s) else float(np.nextafter(x, 0)))
        assert Fraction(10) ** 17 - Fraction(below[-1]) * 10**s >= 8
    subnormals = [5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308]
    special = [0.0, -0.0, math.nan, math.inf, -math.inf]
    values = edges + ties + below + subnormals
    values = values + [-v for v in values] + special
    assert kernel_cells(np.array(values)) == ["%.17g" % v for v in values]


def test_int_kernel_prints_as_str():
    values = [2**63 - 1, -(2**63 - 1), -(2**63), 0, -1, 9, 10, -10**18, 10**18 - 1]
    assert kernel_cells(np.array(values, dtype=np.int64)) == [str(v) for v in values]


def test_every_field_flag_reaches_the_config(tmp_path):
    argv = [
        "zeta", "--m", "2", "--n", "2", "--t", "2", "--t-grid", "2,5", "--samples", "500", "--seed", "3",
        "--b0", "1/3", "--g0", "[[1, 0], [0, 1]]", "--epsilon", "0.2", "--rho", "0.1", "--max-freq", "2",
        "--alpha", "0.5", "--x0", "0.1", "--radius", "0.2", "--budget", "1000", "--out", str(tmp_path),
    ]
    assert cli.main(argv) == 0
    config = json.loads((tmp_path / "report.json").read_text())["config"]
    assert config == {
        "kind": "zeta", "m": 2, "n": 2, "t": 2.0, "t_grid": [2.0, 5.0], "samples": 500, "seed": 3, "b0": ["1/3"],
        "g0": [[1, 0], [0, 1]], "epsilon": 0.2, "rho": 0.1, "max_freq": 2, "alpha": 0.5, "x0": 0.1,
        "radius": 0.2, "out": str(tmp_path), "budget": 1000, "suite": "all", "schema": 1,
    }
    assert {f.name for f in dataclasses.fields(harness.ExperimentConfig)} == set(config)
    # no field has a second flag: --d (m = d - 1, n = 1) and --T (the horizon of zeta and weyl) are gone
    for alias in (["--d", "3"], ["--T", "50"]):
        with pytest.raises(SystemExit):
            cli.main(["zeta", "--t", "10"] + alias)
