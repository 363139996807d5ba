import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from horolattice import cli, harness
from horolattice.core import IntegerMatrix


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["orbit", "--m", "2", "--n", "2", "--t", "2", "--samples", "200"], "signature (2,2) has no certified reduction"),
        (["orbit", "--t", "1", "--samples", "100", "--b0", "1/3"], "torus part 1"),
        (["orbit", "--t", "1", "--samples", "100", "--b0", "abc,1"], "Invalid literal for Fraction"),
        (["orbit", "--m", "1", "--n", "2", "--t", "9", "--samples", "100"], "exceeds the certified precision cap"),
        (["concentration", "--t", "1", "--samples", "100", "--rho", "0.7"], "rho must lie in"),
        (["fourier", "--t", "1", "--samples", "100", "--max-freq", "0"], "fourier needs --max-freq >= 1"),
    ],
)
def test_bad_input_exits_2_with_one_line(argv, message, capsys):
    # exit 1 is kept for a failed invariant; a ValueError of any kind is bad input
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and message in err and err.count("\n") == 1


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


def reference_write_csv(path, header, rows):
    """The per-cell CSV writer the cached row formats replaced."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{float(x):.17g}" if isinstance(x, float) else str(x) for x in row) + "\n")
    return path


def reference_orbit_rows(nu):
    """The per-cell orbit rows the column conversion replaced."""
    rows = []
    for i in range(nu.size):
        row = tuple(float(x) for x in nu.us[i].ravel())
        row += tuple(int(x) for x in nu.gammas[i].ravel())
        row += tuple(float(x) for x in nu.coords[i])
        row += (float(nu.heights[i]),)
        rows.append(row)
    return rows


@pytest.mark.parametrize(
    "config",
    [
        {"m": 1, "n": 1, "t": 4.0, "samples": 3000, "b0": [math.sqrt(2) - 1, math.sqrt(3) - 1]},
        {"m": 1, "n": 2, "t": 2.0, "samples": 150, "b0": ["1/3", "2/3", "1/5"]},
        {"m": 1, "n": 1, "t_grid": [2.0, 6.0], "samples": 1000, "b0": ["1/3", "2/3"]},
    ],
    ids=["float-fiber-11", "rational-fiber-12", "t-grid"],
)
def test_orbit_csv_matches_per_cell_reference(config, tmp_path, monkeypatch):
    def csv_files(out):
        report = harness.run(harness.ExperimentConfig.from_json({"kind": "orbit", "out": str(out), **config}))
        paths = [p for p in report.artifacts if p.endswith(".csv")]
        assert len(paths) == len(config.get("t_grid", [0]))
        return {Path(p).name: Path(p).read_bytes() for p in paths}

    got = csv_files(tmp_path / "new")
    monkeypatch.setattr(harness, "_write_csv", reference_write_csv)
    monkeypatch.setattr(harness, "_orbit_rows", reference_orbit_rows)
    assert got == csv_files(tmp_path / "reference")


def test_write_csv_matches_per_cell_reference_on_every_cell_type(tmp_path):
    from fractions import Fraction

    cells = (
        -0.0, math.nan, math.inf, -math.inf, 5e-324, 0.1, 1e300, np.float64(2 / 3), np.int64(-3),
        np.float32(0.1), np.bool_(False), True, 7, Fraction(1, 3), "a%s,b",
    )
    rows = [cells, tuple(reversed(cells)), [1.5, 2]]
    # one column changes type from row to row
    rows += [(x, 1) for x in (0.25, 3, np.int64(4), np.float64(0.5), "x", Fraction(5, 2), 0.25)]
    header = ["c"] * len(cells)
    got = harness._write_csv(str(tmp_path / "new.csv"), header, rows)
    ref = reference_write_csv(str(tmp_path / "ref.csv"), header, rows)
    assert Path(got).read_bytes() == Path(ref).read_bytes()


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
