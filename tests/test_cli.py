import dataclasses

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
