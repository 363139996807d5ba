import dataclasses
import math

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
    assert check.details["residual"] > check.details["tolerance"]
    assert cli.main(["reduce", "--g0", "[[2, 1], [1, 1]]"]) == 1


def test_orbit_fiber_denominator_over_cap_exits_2(capsys):
    assert cli.main(["orbit", "--t", "1", "--samples", "100", "--b0", f"1/{2**63},0"]) == 2
    assert "denominator" in capsys.readouterr().err


@pytest.mark.parametrize("m, n, t_max", [(1, 2, 8.0), (2, 1, 5.0)])
def test_d3_flow_cap_edge(m, n, t_max, capsys):
    assert harness.PRECISION_CAPS[(m, n)] == n * t_max
    base = ["orbit", "--m", str(m), "--n", str(n), "--samples", "100", "--b0", "1/3,2/3,1/5"]
    assert cli.main(base + ["--t", str(t_max)]) == 0
    assert cli.main(base + ["--t", str(t_max + 0.01)]) == 2
    assert capsys.readouterr().err.startswith("configuration error:")


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
    rng = np.random.default_rng(5)
    for n in (3, 4, 7):
        series = [(float(x), float(v)) for x, v in zip(np.sort(rng.uniform(1, 9, n)), rng.uniform(0.1, 2, n))]
        assert harness.loglog_fit(series) == reference_log_fit([(math.log(x), v) for x, v in series])
        if n >= 4:
            assert harness.decay_fit(series) == reference_log_fit(series)
    with pytest.raises(ValueError, match="constant predictor"):
        harness.decay_fit([(2.0, 1.0)] * 4)


def test_reduce_result_is_a_report_field():
    assert "result" in {f.name for f in dataclasses.fields(harness.RunReport)}
    assert harness.RunReport(config={}, checks=[]).result is None
    report = harness.run(harness.ExperimentConfig.from_json({"kind": "reduce", "g0": [[2, 1], [1, 1]]}))
    assert report.result["gamma"] and report.result["certified"]
