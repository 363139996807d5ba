"""The acceptance criteria at reduced size, and the acceptance kind's report."""

import functools
import json
import types

import pytest

from horolattice import acceptance, cli, harness, lattices
from horolattice.harness import CheckResult

# criterion, size arguments, and the names of the checks it returns; 01
# and 02 have no size argument and take seconds, so only the CLI runs them
SMOKE = [
    ("03-effective-weyl", {}, ["03-effective-weyl"]),
    ("04-reduction-oracle", {"n_cases": 20}, ["04-reduction-oracle-and-invariance"]),
    ("05-iota-height", {"per_dim": 40}, ["05-iota-height-bound[d=2]", "05-iota-height-bound[d=3]"]),
    ("06-cocycle-exactness", {"count": 2000}, ["06-cocycle-exactness[t=12]"]),
    ("07-xq-invariance", {"count": 2000}, ["07-xq-invariance[q=3]"]),
    (
        "08-gamma-orbit",
        {"count": 2000},
        [
            "08a-gamma-orbit-containment",
            "08b-gamma-orbit-mass-slope[stated-grid-s=2..5]",
            "08b-gamma-orbit-mass-slope[asymptotic-grid-s=3..5]",
        ],
    ),
    ("09-fourier-decay", {"count": 2000}, ["09-fourier-decay", "09-fourier-decay-control[q=3]"]),
    ("10-cusp-mass", {"count": 2000}, ["10-cusp-mass-scaling"]),
    ("11-ball-mass", {"count": 5000}, ["11-ball-mass-scaling"]),
    ("12-flattening", {"n_instances": 5}, ["12-flattening-finder"]),
    ("13-siegel", {"count": 2000}, ["13-siegel-consistency"]),
]


def test_smoke_covers_every_sized_criterion():
    assert [name for name, _, _ in SMOKE] == list(acceptance.CRITERIA)[2:]


@pytest.mark.parametrize("name, size, checks", SMOKE, ids=[name for name, _, _ in SMOKE])
def test_criterion_runs_at_reduced_size(name, size, checks):
    results = acceptance.CRITERIA[name][0](cache=acceptance._OrbitCache(), **size)
    assert [r.name for r in results] == checks
    for r in results:
        assert type(r) is CheckResult and isinstance(r.passed, bool)
        json.dumps(r.details, allow_nan=False)


@pytest.mark.parametrize("name, size", [(name, size) for name, size, _ in SMOKE], ids=[name for name, _, _ in SMOKE])
def test_criterion_is_a_pure_function_of_its_arguments(name, size):
    # no criterion reads the clock: timing is the suite runner's
    criterion = acceptance.CRITERIA[name][0]
    assert criterion(**size) == criterion(**size)


def test_runner_fails_a_check_whose_criterion_reaches_its_limit(monkeypatch, capsys):
    def stub(budget, cache):
        return [CheckResult("a", True), CheckResult("b", False, expected_failure=True)]

    monkeypatch.setitem(acceptance.SUITES, "scaling", ("03-effective-weyl", "10-cusp-mass"))
    monkeypatch.setitem(acceptance.CRITERIA, "03-effective-weyl", (stub, 0.0))
    monkeypatch.setitem(acceptance.CRITERIA, "10-cusp-mass", (stub, None))
    checks = list(acceptance.run_acceptance("scaling"))
    assert [(c.name, c.passed, c.ok) for c in checks] == [
        ("a", False, False),
        ("b", False, True),
        ("a", True, True),
        ("b", False, True),
    ]
    assert all(c.details["seconds"] >= 0.0 for c in checks)
    assert capsys.readouterr().out.splitlines() == [
        "a: FAIL", "b: FAIL (expected; see notes)", "a: PASS", "b: FAIL (expected; see notes)",
    ]


def test_criterion_time_does_not_depend_on_suite_order(monkeypatch, capsys):
    # a fake clock: a criterion's own work takes 1 s, and building an orbit 7 s
    clock = [0.0]
    monkeypatch.setattr(acceptance, "time", types.SimpleNamespace(time=lambda: clock[0]))

    def build(y0, t, V, count, seed, budget):
        clock[0] += 7.0
        return ("orbit", t)

    monkeypatch.setattr(acceptance, "orbit_pushforward", build)

    def reading(name, times):
        def criterion(budget, cache):
            clock[0] += 1.0
            return [CheckResult(name, all(cache.get_orbit("irr", None, t, 10, budget) == ("orbit", t) for t in times))]

        return criterion

    monkeypatch.setitem(acceptance.CRITERIA, "10-cusp-mass", (reading("a", (8.0,)), 5.0))
    monkeypatch.setitem(acceptance.CRITERIA, "11-ball-mass", (reading("b", (8.0, 9.0, 8.0)), 20.0))
    for order in (("10-cusp-mass", "11-ball-mass"), ("11-ball-mass", "10-cusp-mass")):
        monkeypatch.setitem(acceptance.SUITES, "scaling", order)
        # each is charged for every orbit it reads, once, whoever built it:
        # 1 + 7 s against a's limit of 5 s, and 1 + 2 * 7 s against b's 20 s
        seconds = {c.name: (c.details["seconds"], c.passed) for c in acceptance.run_acceptance("scaling")}
        assert seconds == {"a": (8.0, False), "b": (15.0, True)}
    capsys.readouterr()


def test_fourier_decay_with_too_few_points_above_the_floor_is_a_failed_check():
    # at 2,000 samples the floor 5/sqrt(N) leaves fewer than four points to fit
    decay = acceptance.criterion_fourier_decay(count=2000)[0]
    assert decay.details["points_fitted"] < 4 and decay.details["slope"] is None
    assert not decay.passed and not decay.ok


def test_ball_mass_localization_masses_are_pinned_at_smoke_size():
    # the three localization masses of criterion 11 at 5,000 samples, bit for bit
    masses = acceptance.criterion_ball_mass(count=5000)[0].details["masses"]
    assert {r: m.hex() for r, m in masses.items()} == {
        "0.1": "0x1.0710168487c98p-4",
        "0.07": "0x1.7b789f560e53cp-6",
        "0.05": "0x1.1eac88b1afccdp-7",
    }


def test_acceptance_kind_writes_only_its_report(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(acceptance.SUITES, "scaling", ("03-effective-weyl",))
    cfg = harness.ExperimentConfig(kind="acceptance", suite="scaling", out=str(tmp_path)).validate()
    report = harness.run(cfg)
    assert [c.name for c in report.checks] == ["03-effective-weyl"]
    assert report.artifacts == [str(tmp_path / "report.json")]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]
    assert json.loads((tmp_path / "report.json").read_text())["config"] == cfg.to_json()
    assert capsys.readouterr().out == "03-effective-weyl: PASS\n"
    assert cli.main(["acceptance", "--suite", "scaling"]) == 0
    assert capsys.readouterr().out == "03-effective-weyl: PASS\n"  # printed once


def test_a_siegel_oracle_disagreement_is_a_failed_check(tmp_path, monkeypatch, capsys):
    # an enumeration that disagrees with the closed form fails criterion
    # 13 and names the first disagreeing sample; the CLI exits 1, with no traceback
    real = lattices.siegel_transform

    def shifted(*args, **kwargs):
        return real(*args, **kwargs) + 2.0

    monkeypatch.setattr(lattices, "siegel_transform", shifted)
    monkeypatch.setattr(harness, "siegel_transform", shifted)
    (check,) = acceptance.criterion_siegel(count=2000)
    assert check.name == "13-siegel-consistency" and not check.passed
    assert check.details["oracle_first_disagreement"] == 0
    monkeypatch.setitem(acceptance.SUITES, "scaling", ("13-siegel",))
    monkeypatch.setitem(acceptance.CRITERIA, "13-siegel", (functools.partial(acceptance.criterion_siegel, count=2000), None))
    assert cli.main(["acceptance", "--suite", "scaling", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().out == "13-siegel-consistency: FAIL\n"


@pytest.mark.parametrize("offs, passed", [((0.3, 0.2, 0.13), True), ((0.0, 0.0, 0.0), False)])
def test_fourier_control_holds_the_exact_q3_limit(monkeypatch, offs, passed):
    # the q = 3 limit is uniform on the 8 nonzero points of (Z/3)^2, so
    # |c(1, 0)| tends to 1/8; a control that decays to 0 misses it
    spectra = iter([{(3, 0): 1.0, (1, 0): off} for off in offs])
    monkeypatch.setattr(acceptance, "fourier_spectrum", lambda nu, max_freq: next(spectra))
    decay, control = acceptance.criterion_fourier_decay(count=2000)
    assert decay.details["noise_floor"] < 0.125 and control.details["limit"] == 0.125
    assert control.passed is passed
