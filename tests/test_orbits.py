import hashlib
import math
import traceback
import warnings

import numpy as np
import pytest

from horolattice.core import (
    AffineLatticePoint,
    IntegerMatrix,
    SpecialLinearMatrix,
    SplittingSignature,
    TorusPoint,
    diagonal_flow,
    _stack_adjugate,
    horo_embed,
    torus_act,
)
from horolattice.errors import (
    BudgetExceededError,
    EmptyLocalizationError,
    PrecisionError,
)
from horolattice import fundamental, lattices, orbits, sweep
from horolattice.fundamental import _proxy_distances, reduce_batch_2x2, reduce_matrix, x_distance
from horolattice.lattices import DEFAULT_BUDGET, lll_reduce, shortest_vector
from horolattice.orbits import (
    EmpiricalTorusMeasure,
    NeighborhoodV,
    decompose,
    decompose_batch,
    gamma_orbit,
    localized_measure,
    orbit_pushforward,
    sample_V,
    sigma,
)

SIG = SplittingSignature(1, 1)
V = NeighborhoodV(SIG)


def test_sample_V_deterministic_and_chunk_stable():
    a = sample_V(V, 5000, seed=42)
    b = sample_V(V, 5000, seed=42)
    assert np.array_equal(a, b)
    # chunk independence: a longer run starts with the shorter one
    c = sample_V(V, 9000, seed=42)
    assert np.array_equal(c[:5000], a)
    assert not np.array_equal(sample_V(V, 5000, seed=43), a)


def test_sample_V_statistics():
    us = sample_V(V, 40_000, seed=7)[:, 0, 0]
    eta = V.half_width
    assert abs(us.mean()) <= 3 * eta / math.sqrt(len(us) * 12) * 2
    # coverage of a sub-box of volume ratio v
    v = 0.25
    frac = float(((us > -eta) & (us < -eta + v * 2 * eta)).mean())
    assert abs(frac - v) <= 3 * math.sqrt(v / len(us))
    assert np.all(np.abs(us) <= eta)


def test_decompose_at_identity():
    x_rep = reduce_matrix(np.eye(2)).rep
    xi, gamma = decompose(x_rep, [[0.0]], 0.0, SIG)
    assert np.array_equal(xi.entries, x_rep.entries)
    assert gamma.rows == ((1, 0), (0, 1))


def test_decompose_matches_brute_force_shear():
    # s=1, u=0.3 on the unit-lattice coset, against the full gamma box
    x_rep = reduce_matrix(np.eye(2)).rep
    xi, gamma = decompose(x_rep, [[0.3]], 1.0, SIG)
    P = diagonal_flow(1.0, SIG).entries @ horo_embed([[0.3]], SIG).entries @ x_rep.entries
    assert np.abs(xi.entries @ gamma.to_array() - P).max() < 1e-9
    # oracle: F over P gamma' for all gamma' with entries <= 1000, chunked
    from tests.test_fundamental import sl2z_box

    box = sl2z_box(60)  # the optimum here is tiny; 60 covers it many times over
    H = np.einsum("ij,kjl->kil", P, box)
    fmin = float(fundamental._f_of_stack(H).min())
    assert fundamental._f_of_stack(xi.entries) <= fmin + 1e-9


def test_decompose_reconstruction_random():
    rng = np.random.default_rng(1)
    x_rep = reduce_matrix(np.array([[1.0, 0.4], [0.3, 1.12]])).rep
    for _ in range(50):
        u = rng.uniform(-0.5, 0.5)
        s = rng.uniform(0, 8)
        xi, gamma = decompose(x_rep, [[u]], s, SIG)
        P = diagonal_flow(s, SIG).entries @ horo_embed([[u]], SIG).entries @ x_rep.entries
        scale = max(1.0, np.abs(xi.entries).max(), np.abs(xi.inverse).max())
        assert np.abs(xi.entries @ gamma.to_array() - P).max() <= 1e-6 * scale
        assert gamma.det() == 1


def test_sigma_reduced_input_unchanged():
    rep = reduce_matrix(np.array([[1.0, 0.2], [0.1, (1 + 0.02) / 1.0]])).rep
    b = TorusPoint.from_values(["1/5", "2/5"])
    y = AffineLatticePoint(rep, b)
    assert sigma(y).coords == b.coords


def test_sigma_rational_denominator_divides():
    rng = np.random.default_rng(2)
    b = TorusPoint.from_values(["1/6", "5/6"])
    for _ in range(10):
        g = SpecialLinearMatrix.from_entries(
            np.diag([math.exp(0.5), math.exp(-0.5)]) @ np.array([[1, rng.uniform(-3, 3)], [0, 1]])
        )
        s = sigma(AffineLatticePoint(g, b))
        assert all(6 % c.denominator == 0 for c in s.coords)


def test_orbit_continuity_at_identity():
    b = TorusPoint.from_values([0.21, 0.77])
    y0 = AffineLatticePoint(SpecialLinearMatrix.from_entries(np.eye(2)), b)
    tiny = NeighborhoodV(SIG, half_width=1e-6)
    nu = orbit_pushforward(y0, 0.0, tiny, 200, seed=0)
    base = sigma(y0).as_floats()
    gap = np.abs(nu.coords - base)
    assert np.minimum(gap, 1 - gap).max() < 1e-4


def test_orbit_siggam_cocycle_independent_path():
    b0 = TorusPoint.from_values([math.sqrt(2) - 1, 0.3])
    g0 = SpecialLinearMatrix.from_entries(np.array([[1.0, 0.25], [0.5, 1.125]]))
    y0 = AffineLatticePoint(g0, b0)
    t = 5.0
    nu = orbit_pushforward(y0, t, V, 300, seed=5)
    for i in range(0, 300, 23):
        mover = diagonal_flow(t, SIG).compose(horo_embed(nu.us[i], SIG))
        direct = sigma(AffineLatticePoint(mover.compose(y0.linear), y0.torus)).as_floats()
        gap = np.abs(direct - nu.coords[i])
        assert np.minimum(gap, 1 - gap).max() < 1e-8


def test_orbit_rational_grid_exact():
    y0 = AffineLatticePoint(
        SpecialLinearMatrix.from_entries(np.eye(2)), TorusPoint.from_values(["1/3", "2/3"])
    )
    nu = orbit_pushforward(y0, 6.0, V, 5000, seed=11)
    assert nu.is_rational and nu.denominator == 3
    assert np.all((nu.numerators >= 0) & (nu.numerators < 3))
    assert abs(float(nu.weights.sum()) - 1.0) <= 1e-12


@pytest.mark.parametrize(
    "b0, q, sig, count",
    [
        # decimal strings parse as rationals over q = 2 * 10^16; gamma @ num0
        # in plain int64 overflows for some rows
        (["0.41421356237309515", "0.7320508075688772"], 2 * 10**16, SIG, 4096),
        # numerators are int64, so 2^63 - 1 is the largest denominator accepted;
        # a negative gamma entry gives a numerator q - k, and (q - k) / q
        # rounds to 1.0 as a float
        ([f"1/{2**63 - 1}", "0"], 2**63 - 1, SIG, 4096),
        ([f"1/{2**63 - 1}", "0", "0"], 2**63 - 1, SplittingSignature(2, 1), 32),
    ],
    ids=["decimal-strings", "int64-edge", "int64-edge-generic"],
)
def test_orbit_rational_fiber_exact_at_large_denominator(b0, q, sig, count):
    y0 = AffineLatticePoint(SpecialLinearMatrix.from_entries(np.eye(sig.d)), TorusPoint.from_values(b0))
    nu = orbit_pushforward(y0, 4.0, NeighborhoodV(sig), count, seed=0)
    assert nu.denominator == q
    assert np.all((nu.coords >= 0) & (nu.coords < 1))
    b_start = torus_act(reduce_matrix(y0.linear).gamma, y0.torus)
    num0 = [int(c * q) for c in b_start.coords]
    for gamma, got, coords in zip(nu.gammas.tolist(), nu.numerators.tolist(), nu.coords.tolist()):
        expected = [sum(g * n for g, n in zip(row, num0)) % q for row in gamma]
        assert got == expected
        # each coordinate is the correctly rounded n / q, folded onto [0, 1)
        assert coords == [(n / q) % 1.0 for n in expected]


def test_float_fiber_does_not_depend_on_the_memory_layout_of_gammas(monkeypatch):
    y0 = AffineLatticePoint(
        SpecialLinearMatrix.from_entries(np.eye(2)), TorusPoint.from_values([0.3, 0.4])
    )
    want = orbit_pushforward(y0, 4.0, V, 5000, seed=0).coords
    blocks = orbits._decomposed_blocks

    def fortran_gammas(*args):
        for rows, xis, gammas in blocks(*args):
            yield rows, xis, np.asfortranarray(gammas)

    monkeypatch.setattr(orbits, "_decomposed_blocks", fortran_gammas)
    got = orbit_pushforward(y0, 4.0, V, 5000, seed=0)
    assert not got.gammas.flags.c_contiguous
    assert got.coords.tobytes() == want.tobytes()


@pytest.mark.parametrize("sig", [SIG, SplittingSignature(2, 1)])
def test_orbit_rational_fiber_denominator_over_cap(sig):
    over = AffineLatticePoint(
        SpecialLinearMatrix.from_entries(np.eye(sig.d)),
        TorusPoint.from_values([f"1/{2**63}"] + ["0"] * (sig.d - 1)),
    )
    with pytest.raises(PrecisionError, match="denominator"):
        orbit_pushforward(over, 4.0, NeighborhoodV(sig), 16, seed=0)


def test_scalar_path_errors_name_stage_sample_and_t():
    sig = SplittingSignature(1, 2)
    b = TorusPoint.from_values(["1/3", "2/3", "1/5"])
    y0 = AffineLatticePoint(SpecialLinearMatrix.from_entries(np.eye(3)), b)
    # the class sweep certifies the base point and most samples without a
    # search; the first sample that runs `_search` fails a budget of 1
    P = orbits._flowed(y0.linear, sample_V(NeighborhoodV(sig), 20, seed=0), 4.0, sig)
    first = next(i for i, start in enumerate(fundamental._search_starts(P)) if start[3] is None)
    with pytest.raises(BudgetExceededError) as info:
        orbit_pushforward(y0, 4.0, NeighborhoodV(sig), 20, seed=0, budget=1)
    assert str(info.value).startswith(f"decompose of sample {first} at t = 4: ")
    assert info.value.nodes == 2
    # the traceback still ends in the enumeration that ran out
    assert traceback.extract_tb(info.value.__traceback__)[-1].filename.endswith("lattices.py")
    # a base point that runs `_search` fails there, and is no sample
    searched = AffineLatticePoint(SpecialLinearMatrix.from_entries(P[first]), b)
    with pytest.raises(BudgetExceededError) as info:
        orbit_pushforward(searched, 4.0, NeighborhoodV(sig), 20, seed=0, budget=1)
    assert str(info.value).startswith("reduce of the base point at t = 4: ")
    assert "sample" not in str(info.value)

    # beyond the (2, 1) cap, seed 2 fails on the integrality check of sample 0
    V21 = NeighborhoodV(SplittingSignature(2, 1))
    with pytest.raises(PrecisionError, match=r"^decompose of sample 0 at t = 6.5: integrality"):
        orbit_pushforward(y0, 6.5, V21, 20, seed=2)
    # the reduced basis drifts from det 1 by rounding only: a precision failure
    with pytest.raises(PrecisionError, match=r"^decompose of sample 3 at t = 6.5: determinant"):
        orbit_pushforward(y0, 6.5, V21, 20, seed=0)


def _lll_converges(basis, max_rounds, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(lattices, "_LLL_MAX_ROUNDS", max_rounds)
        try:
            lll_reduce(basis)
        except BudgetExceededError:
            return False
    return True


def test_batched_lll_errors_name_the_sample_and_t(monkeypatch):
    sig = SplittingSignature(1, 2)
    x = SpecialLinearMatrix.from_entries(np.eye(3))
    us = sample_V(NeighborhoodV(sig), 20, seed=0)
    # the round budget: the batch names the first sample whose LLL alone runs out
    P = orbits._flowed(x, us, 4.0, sig)
    rounds = [next(r for r in range(1, 100) if _lll_converges(p, r, monkeypatch)) for p in P]
    budget = sorted(rounds)[len(rounds) // 2]
    first = next(i for i, r in enumerate(rounds) if r > budget)
    monkeypatch.setattr(lattices, "_LLL_MAX_ROUNDS", budget)
    with pytest.raises(BudgetExceededError) as info:
        decompose_batch(x, us, 4.0, sig)
    assert str(info.value) == f"decompose of sample {first} at t = 4: LLL failed to converge within the round budget"
    monkeypatch.undo()
    # a transform beyond int64 is a precision failure, never a wrapped integer
    shear = np.eye(3)
    shear[0, 1] = 2.0**70
    with pytest.raises(PrecisionError, match=r"^decompose of sample 0 at t = 1: LLL transform leaves int64"):
        decompose_batch(SpecialLinearMatrix.from_entries(shear), us, 1.0, sig)


def test_bulk_residual_error_names_the_sample_and_t():
    y0 = AffineLatticePoint(SpecialLinearMatrix.from_entries(np.eye(2)), TorusPoint.from_values(["0", "0"]))
    with pytest.raises(PrecisionError, match=r"^decompose of sample 14 at t = 25: reconstruction residual "):
        orbit_pushforward(y0, 25.0, V, 100, seed=0)


def test_bulk_base_point_error_names_the_base_point_and_t():
    # a base point deep in the cusp, which the certificate leaves to the search
    x = np.diag([1e3, 1e-3])
    assert next(fundamental._search_starts(x[None]))[3] is None
    y0 = AffineLatticePoint(SpecialLinearMatrix.from_entries(x), TorusPoint.from_values(["0", "0"]))
    with pytest.raises(BudgetExceededError) as info:
        orbit_pushforward(y0, 4.0, V, 20, seed=0, budget=1)
    assert str(info.value).startswith("reduce of the base point at t = 4: ")
    assert "sample" not in str(info.value)


def test_bulk_fallback_error_names_the_sample_and_t():
    # the certificate reduces the base point; the first sample it leaves to
    # the search sits deep in the cusp and runs out of a budget of 11 there
    y0 = AffineLatticePoint(SpecialLinearMatrix.from_entries(np.eye(2)), TorusPoint.from_values([0.1, 0.2]))
    P = orbits._flowed(reduce_matrix(np.eye(2)).rep, sample_V(V, 100_000, seed=0), 12.0, SIG)
    first = next(i for i, start in enumerate(fundamental._search_starts(P)) if start[3] is None)
    with pytest.raises(BudgetExceededError) as info:
        orbit_pushforward(y0, 12.0, V, 100_000, seed=0, budget=11)
    assert str(info.value) == f"decompose of sample {first} at t = 12: enumeration node budget exceeded"
    assert info.value.nodes == 12
    assert traceback.extract_tb(info.value.__traceback__)[-1].filename.endswith("lattices.py")
    # the same batch reduced outside a flow names no site, and carries the row;
    # the minima fit in a budget of 3, the ball of candidate columns does not
    with pytest.raises(BudgetExceededError, match=r"^enumeration node budget exceeded") as info:
        reduce_batch_2x2(np.array([np.eye(2), [[1e3, 0.0], [0.0, 1e-3]]]), budget=3)
    assert info.value.row == 1


def test_failures_in_later_blocks_name_the_sample_by_its_index_in_the_orbit(monkeypatch):
    # d = 2, the search: sample 53770 of this orbit is row 770 of its block of 1,000
    y0 = AffineLatticePoint(SpecialLinearMatrix.from_entries(np.eye(2)), TorusPoint.from_values([0.1, 0.2]))
    P = orbits._flowed(reduce_matrix(np.eye(2)).rep, sample_V(V, 100_000, seed=0), 12.0, SIG)
    first = next(i for i, start in enumerate(fundamental._search_starts(P)) if start[3] is None)
    monkeypatch.setattr(orbits, "_BLOCK", 1000)
    assert first % 1000 > 0
    with pytest.raises(BudgetExceededError) as info:
        orbit_pushforward(y0, 12.0, V, 100_000, seed=0, budget=11)
    assert str(info.value) == f"decompose of sample {first} at t = 12: enumeration node budget exceeded"
    assert info.value.nodes == 12

    # d = 2, the certificate: two blocks of samples that pass, then one that
    # fails; it names its worst failing row, and no earlier block fails
    us = sample_V(V, 100, seed=0)
    P = orbits._flowed(reduce_matrix(np.eye(2)).rep, us, 25.0, SIG)
    ratios = fundamental.factorization_residuals(P, *reduce_batch_2x2(P))
    passing = np.flatnonzero(ratios.max(axis=1) <= 1.0)[:16]
    failing = np.flatnonzero(ratios[:, 0] > 1.0)[:8]
    assert passing.size == 16 and failing.size == 8
    worst = 16 + int(ratios[failing, 0].argmax())
    assert worst != 16 + ratios[failing, 0].size - 1
    monkeypatch.setattr(orbits, "_BLOCK", 8)
    with pytest.raises(PrecisionError, match=rf"^decompose of sample {worst} at t = 25: reconstruction residual "):
        decompose_batch(SpecialLinearMatrix.from_entries(np.eye(2)), us[np.concatenate([passing, failing])], 25.0, SIG)

    # d = 3, LLL: at one round below the most any sample's LLL takes, only that sample runs out
    sig, x = S12, SpecialLinearMatrix.from_entries(np.eye(3))
    us = sample_V(NeighborhoodV(sig), 20, seed=0)
    rounds = [next(r for r in range(1, 100) if _lll_converges(p, r, monkeypatch)) for p in orbits._flowed(x, us, 4.0, sig)]
    first = int(np.argmax(rounds))
    monkeypatch.setattr(orbits, "_BLOCK", 4)
    monkeypatch.setattr(lattices, "_LLL_MAX_ROUNDS", max(rounds) - 1)
    assert first >= 4 and rounds.count(max(rounds)) == 1
    with pytest.raises(BudgetExceededError) as info:
        decompose_batch(x, us, 4.0, sig)
    assert str(info.value) == f"decompose of sample {first} at t = 4: LLL failed to converge within the round budget"
    monkeypatch.undo()

    # d = 3, the determinant of a reduced basis (as in the scalar-path test), in the second block of 2
    monkeypatch.setattr(orbits, "_BLOCK", 2)
    y0 = AffineLatticePoint(x, TorusPoint.from_values(["1/3", "2/3", "1/5"]))
    with pytest.raises(PrecisionError, match=r"^decompose of sample 3 at t = 6.5: determinant"):
        orbit_pushforward(y0, 6.5, NeighborhoodV(S21), 20, seed=0)


def test_a_height_failure_in_a_later_block_names_the_sample_by_its_index_in_the_orbit(monkeypatch):
    # d = 3: with a box of reach -1 the height certificate holds no row, so
    # every row walks (`shortest_vector`); sample 9 is row 1 of the third
    # block of 4, and its walk runs out
    y0 = AffineLatticePoint(SpecialLinearMatrix.from_entries(np.eye(3)), TorusPoint.from_values(["1/3", "2/3", "1/5"]))
    target = lll_reduce(orbit_pushforward(y0, 4.0, NeighborhoodV(S12), 12, seed=0).xis[9])[0]
    real = lattices.shortest_vector

    def spy(B, budget):
        if B.tobytes() == target.tobytes():
            raise BudgetExceededError("shortest-vector search budget exceeded", nodes=7)
        return real(B, budget)

    monkeypatch.setattr(lattices, "_BOX", -1)
    monkeypatch.setattr(lattices, "shortest_vector", spy)
    monkeypatch.setattr(orbits, "_BLOCK", 4)
    with pytest.raises(BudgetExceededError) as info:
        orbit_pushforward(y0, 4.0, NeighborhoodV(S12), 12, seed=0)
    assert str(info.value) == "height of sample 9 at t = 4: shortest-vector search budget exceeded"
    assert (info.value.row, info.value.nodes) == (9, 7)
    assert traceback.extract_tb(info.value.__traceback__)[-1].name == "spy"


def test_a_non_finite_sample_in_a_later_block_fails_fast_and_names_it(monkeypatch):
    # d = 2 as d = 3: a PrecisionError naming the sample by its index in the
    # orbit and t, with no warning (inf u times a zero entry of the base
    # point would warn in the flow) and no Lagrange pass over its block
    what = "horospherical coordinate u is not finite"
    real = fundamental._lagrange_2x2
    for value in (np.nan, np.inf, -np.inf):
        us = sample_V(V, 3 * orbits._BLOCK, seed=0)
        bad = orbits._BLOCK + 7
        us[bad, 0, 0] = value
        us3 = sample_V(NeighborhoodV(S12), 12, seed=0)
        us3[7, 0, 1] = value
        blocks = []
        with monkeypatch.context() as m, warnings.catch_warnings():
            warnings.simplefilter("error")
            m.setattr(fundamental, "_lagrange_2x2", lambda P: blocks.append(len(P)) or real(P))
            with pytest.raises(PrecisionError) as info:
                decompose_batch(SpecialLinearMatrix.from_entries(np.eye(2)), us, 2.0, SIG)
            assert str(info.value) == f"decompose of sample {bad} at t = 2: {what}"
            assert blocks == [orbits._BLOCK]
            m.setattr(orbits, "_BLOCK", 4)
            with pytest.raises(PrecisionError, match=rf"^decompose of sample 7 at t = 2: {what}$"):
                decompose_batch(SpecialLinearMatrix.from_entries(np.eye(3)), us3, 2.0, S12)
            # one sample alone names no site
            for x, sig, u in ((np.eye(2), SIG, us[bad]), (np.eye(3), S12, us3[7])):
                with pytest.raises(PrecisionError, match=rf"^{what}$"):
                    orbits.decompose(SpecialLinearMatrix.from_entries(x), u, 2.0, sig)


def _orbit_arrays(nu):
    return {name: getattr(nu, name) for name in ("xis", "gammas", "heights", "coords", "numerators")}


@pytest.mark.parametrize(
    "sig, t, b0, count, blocks",
    [
        (SIG, 4.0, [0.3, 0.4], 10_000, (1000, 4097)),
        (SIG, 12.0, [0.3, 0.4], 10_000, (1000, 4097)),
        (SIG, 4.0, ["1/3", "2/3"], 10_000, (1000, 4097)),
        (SIG, 12.0, ["1/3", "2/3"], 10_000, (1000, 4097)),
        (SplittingSignature(1, 2), 4.0, [0.11, 0.5, 0.77], 300, (64,)),
    ],
    ids=["11-float-t4", "11-float-t12", "11-rational-t4", "11-rational-t12", "12-float-t4"],
)
def test_a_row_has_the_same_bits_in_any_block(sig, t, b0, count, blocks, monkeypatch):
    y0 = AffineLatticePoint(SpecialLinearMatrix.from_entries(np.eye(sig.d)), TorusPoint.from_values(b0))
    monkeypatch.setattr(orbits, "_BLOCK", count)
    whole = orbit_pushforward(y0, t, NeighborhoodV(sig), count, seed=7)
    want = _orbit_arrays(whole)
    for block in blocks:
        monkeypatch.setattr(orbits, "_BLOCK", block)
        got = _orbit_arrays(orbit_pushforward(y0, t, NeighborhoodV(sig), count, seed=7))
        for name, array in want.items():
            if array is None:
                assert got[name] is None, name
            else:
                assert got[name].dtype == array.dtype and got[name].shape == array.shape, name
                assert got[name].tobytes() == array.tobytes(), name
        # decompose_batch is the concatenation of its blocks, each decomposed alone
        args = (reduce_matrix(y0.linear).rep, whole.us, t, sig)
        xis, gammas = decompose_batch(*args)
        parts = [decompose_batch(args[0], whole.us[lo : lo + block], t, sig) for lo in range(0, count, block)]
        assert xis.tobytes() == np.concatenate([p[0] for p in parts]).tobytes() == whole.xis.tobytes()
        assert gammas.tobytes() == np.concatenate([p[1] for p in parts]).tobytes() == whole.gammas.tobytes()


def test_decompose_batch_memory_beyond_its_outputs_is_flat_in_n():
    import tracemalloc

    x = reduce_matrix(np.eye(2)).rep
    extra = []
    for count in (50_000, 200_000):
        us = sample_V(V, count, seed=0)
        tracemalloc.start()
        try:
            xis, gammas = decompose_batch(x, us, 4.0, SIG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra.append(peak - xis.nbytes - gammas.nbytes)
    assert abs(extra[1] - extra[0]) <= 2 * 2**20, extra


def _per_sample_orbit(y0, t, sig, count, seed, budget=DEFAULT_BUDGET):
    """The per-sample loop decompose_batch replaced: decompose, torus_act, shortest_vector.

    Returns (us, coords, numerators, gammas, xis, heights) as orbit_pushforward stores them.
    """
    r0 = reduce_matrix(y0.linear, budget)
    b_start = torus_act(r0.gamma, y0.torus)
    us = sample_V(NeighborhoodV(sig), count, seed)
    rational = b_start.is_rational
    q = b_start.denominator() if rational else None
    d = sig.d
    coords = np.empty((count, d))
    gammas = np.empty((count, d, d), dtype=np.int64)
    xis = np.empty((count, d, d))
    heights = np.empty(count)
    nums = np.empty((count, d), dtype=np.int64) if rational else None
    for i in range(count):
        xi, gamma = decompose(r0.rep, us[i], t, sig, budget)
        point = torus_act(gamma, b_start)
        coords[i] = point.as_floats()
        gammas[i] = gamma.to_int64()
        xis[i] = xi.entries
        heights[i] = 1.0 / shortest_vector(lll_reduce(xi.entries)[0], budget)[1]
        if rational:
            nums[i] = [int(c * q) for c in point.coords]
    if rational:
        coords %= 1.0
    return us, coords, nums, gammas, xis, heights


def _off_identity():
    """A fixed non-integral base matrix, its first column scaled to det 1."""
    M = np.array([[1.3, 0.4, -0.2], [0.1, 0.9, 0.5], [-0.3, 0.2, 1.1]])
    M[:, 0] /= np.linalg.det(M)
    return M


S12, S21 = SplittingSignature(1, 2), SplittingSignature(2, 1)


@pytest.mark.parametrize("sig", [SIG, S12, S21], ids=["11", "12", "21"])
def test_flowed_gives_a_row_the_same_bits_in_a_stack_as_alone(sig):
    # a stack and `decompose`'s stack of one take different branches of the entrywise formula
    linear = _off_identity() if sig.d == 3 else np.array([[1.1, 0.3], [0.2, 1.06 / 1.1]])
    x = reduce_matrix(linear).rep
    us = sample_V(NeighborhoodV(sig), 300, seed=9)
    P = orbits._flowed(x, us, 4.0, sig)
    assert b"".join(orbits._flowed(x, u[None], 4.0, sig).tobytes() for u in us) == P.tobytes()


@pytest.mark.parametrize(
    "sig, b0, t, linear",
    [
        (S12, [0.11, 0.5, 0.77], 3.0, None),
        (S21, [0.11, 0.5, 0.77], 3.0, None),
        (S12, ["1/3", "2/3", "1/5"], 3.0, None),
        (S21, ["1/3", "2/3", "1/5"], 3.0, None),
        # q = 2 * 10^16 > 2^53: each coordinate is the correctly rounded n / q
        (S21, ["0.41421356237309515", "0.7320508075688772", "0.1"], 3.0, None),
        # at the caps of PRECISION_CAPS, where the reductions work hardest
        (S12, [0.11, 0.5, 0.77], 8.0, None),
        (S21, ["1/3", "2/3", "1/5"], 5.0, None),
        (S12, [0.11, 0.5, 0.77], 4.0, _off_identity()),
        (S21, ["1/3", "2/3", "1/5"], 3.0, _off_identity()),
        # (1, 1) at t = 8 sends samples through the batch reduction's scalar fallback
        (SIG, [0.11, 0.5], 8.0, None),
        (SIG, ["1/3", "2/3"], 8.0, None),
        (SIG, [0.11, 0.5], 4.0, np.array([[1.1, 0.3], [0.2, 1.06 / 1.1]])),
    ],
    ids=[
        "12-float", "21-float", "12-rational", "21-rational", "21-decimal-strings", "12-float-t8",
        "21-rational-t5", "12-float-off-identity", "21-rational-off-identity",
        "11-float", "11-rational", "11-float-off-identity",
    ],
)
def test_decompose_batch_matches_per_sample_reference(sig, b0, t, linear):
    linear = np.eye(sig.d) if linear is None else linear
    y0 = AffineLatticePoint(SpecialLinearMatrix.from_entries(linear), TorusPoint.from_values(b0))
    count = 400 if sig == SIG else 60
    nu = orbit_pushforward(y0, t, NeighborhoodV(sig), count, seed=3)
    assert nu.size == count
    assert nu.heights.min() >= 1.0 - 1e-9
    assert IntegerMatrix.from_rows(nu.gammas[0].tolist()).det() == 1
    ref = _per_sample_orbit(y0, t, sig, count, seed=3)
    if sig == SIG:
        # the vectorized reduction agrees with the scalar one bit for bit (both build P
        # by `_flowed`); the d = 2 heights are a closed form, not the reference's walk
        _, _, _, gammas, xis, _ = ref
        assert np.array_equal(nu.gammas, gammas)
        assert nu.xis.tobytes() == xis.tobytes()
        return
    got = (nu.us, nu.coords, nu.numerators, nu.gammas, nu.xis, nu.heights)
    for name, a, b in zip(("us", "coords", "numerators", "gammas", "xis", "heights"), got, ref):
        if b is None:
            assert a is None, name
        else:
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("sig", [SplittingSignature(2, 2), SplittingSignature(1, 3)], ids=["22", "13"])
def test_decompose_batch_refuses_d_above_3(sig):
    # d = 4 has no certified reduction: its LLL seeds, once returned as
    # representatives, lay outside the fundamental domain for about 18 % of samples
    eye = SpecialLinearMatrix.from_entries(np.eye(4))
    with pytest.raises(ValueError, match=r"certified for d in \{2, 3\} only, not d = 4"):
        decompose_batch(eye, sample_V(NeighborhoodV(sig), 60, 3), 1.0, sig)
    with pytest.raises(ValueError, match=r"certified for d in \{2, 3\} only"):
        orbit_pushforward(AffineLatticePoint(eye, TorusPoint.from_values([0.11, 0.5, 0.77, 0.3])), 1.0, NeighborhoodV(sig), 60, seed=3)
    with pytest.raises(ValueError, match=r"certified for d in \{2, 3\} only"):
        reduce_matrix(np.eye(4))


def test_stacked_lll_gives_the_scalar_minima(monkeypatch):
    # the batch hands each search of a row that the class sweep does not
    # certify the LLL of its validated bases; the minima from them are
    # those of the bases reduced alone, bit for bit
    real = fundamental._minima_sq_of
    ready = []

    def spy(B, budget, reduced=None):
        got = real(B, budget, reduced)
        assert np.array(got).tobytes() == np.array(real(B, budget)).tobytes()
        ready.append(reduced is not None)
        return got

    real_search = fundamental._search
    searched = []

    def counting(*args):
        searched.append(args[0])
        return real_search(*args)

    monkeypatch.setattr(fundamental, "_minima_sq_of", spy)
    monkeypatch.setattr(fundamental, "_search", counting)
    b = TorusPoint.from_values([0.1, 0.2, 0.3])
    for sig, t, linear in ((S12, 8.0, np.eye(3)), (S21, 5.0, np.eye(3)), (S12, 4.0, _off_identity())):
        orbit_pushforward(AffineLatticePoint(SpecialLinearMatrix.from_entries(linear), b), t, NeighborhoodV(sig), 200, seed=4)
    # a base point is a stack of one, so every search gets its reductions ready-made
    assert len(searched) > 0 and ready.count(True) == 2 * len(searched) and ready.count(False) == 0


def test_class_sweep_gives_the_search_gamma_from_the_same_seed(monkeypatch):
    # the scalar search is the oracle: the same seeds, with every certificate refused
    kinds = {"certified": 0, "searched": 0}
    for sig, t, linear in (
        (S12, 4.0, np.eye(3)),
        (S12, 8.0, np.eye(3)),
        (S21, 2.0, np.eye(3)),
        (S21, 5.0, np.eye(3)),
        (S12, 4.0, _off_identity()),
    ):
        P = orbits._flowed(reduce_matrix(linear).rep, sample_V(NeighborhoodV(sig), 300, seed=5), t, sig)
        starts = list(fundamental._search_starts(P))
        with monkeypatch.context() as m:
            m.setattr(sweep, "_sweep_certified", lambda h, *_: (np.zeros(len(h), dtype=bool), None))
            seeds = list(fundamental._search_starts(P))
        reps, gammas = [], []
        for p, start, seed in zip(P, starts, seeds):
            rep, U, *_ = fundamental._reduce_core(p, DEFAULT_BUDGET, start)
            ref, U_ref, *_ = fundamental._reduce_core(p, DEFAULT_BUDGET, seed)
            assert U == U_ref
            assert np.abs(rep - ref).max() <= 1e-9 * max(1.0, np.abs(ref).max())
            kinds["certified" if start[3] is not None else "searched"] += 1
            reps.append(rep)
            gammas.append(U.inv().to_int64())
        fundamental.certify_factorization(P, np.array(reps), np.array(gammas))
    assert min(kinds.values()) > 0, kinds


def test_certified_rows_hold_every_near_minimal_transform_in_the_table(monkeypatch):
    # the claim of the certificate, checked by the exact search's own enumeration
    table = {C.tobytes() for C in sweep._ternary_classes().variants.astype(np.int64).reshape(-1, 3, 3)}
    real = sweep._sweep_certified
    bases = []

    def recording(h, *rest):
        certified, certificate = real(h, *rest)
        bases.extend(h[certified])
        return certified, certificate

    monkeypatch.setattr(sweep, "_sweep_certified", recording)
    for sig, t in ((S12, 8.0), (S21, 5.0)):
        P = orbits._flowed(reduce_matrix(np.eye(3)).rep, sample_V(NeighborhoodV(sig), 150, seed=6), t, sig)
        list(fundamental._search_starts(P))
    assert len(bases) > 200
    for h in bases:
        f_max = fundamental._f_of_stack(h) + fundamental.TIE_TOL
        dual = fundamental._inv_unimodular(h).T
        prim_min = fundamental._minima_sq_of(h, DEFAULT_BUDGET)
        dual_min = fundamental._minima_sq_of(dual, DEFAULT_BUDGET)
        cands = fundamental._candidates_3d(h, fundamental._side_bound_sq(f_max, sum(dual_min)), prim_min, DEFAULT_BUDGET)
        dual_cands = fundamental._candidates_3d(dual, fundamental._side_bound_sq(f_max, sum(prim_min)), dual_min, DEFAULT_BUDGET)
        cands += [np.array(rows).T for rows in (_stack_adjugate(np.array(dual_cands)) if dual_cands else [])]
        for C in np.array(cands, dtype=np.int64):
            if fundamental._f_of_stack(h @ C) <= f_max:
                assert C.tobytes() in table


#: The fiber (sqrt 2 - 1, sqrt 3 - 1), as floats: the benchmark's irrational fiber.
Y0_IRRATIONAL = AffineLatticePoint(
    SpecialLinearMatrix.from_entries(np.eye(2)), TorusPoint.from_values([math.sqrt(2.0) - 1.0, math.sqrt(3.0) - 1.0])
)


def stacked_heights_2x2(xis):
    """The d = 2 heights as a stack of the four candidate vectors, the form the entrywise one replaced."""
    c1, c2 = xis[:, :, 0], xis[:, :, 1]
    cands = np.stack([c1, c2, c1 + c2, c1 - c2], axis=1)
    return 1.0 / np.abs(cands).max(axis=2).min(axis=1)


def test_d2_heights_equal_the_stacked_candidates_bit_for_bit():
    xis = [orbit_pushforward(Y0_IRRATIONAL, t, V, 5000, seed=1).xis for t in (0.5, 4.0, 8.0, 12.0)]
    # ties between candidates, and entries of -0.0
    xis.append(np.array([np.eye(2), -np.eye(2), [[-0.0, -1.0], [1.0, -0.0]], [[1.0, 0.5], [0.0, 1.0]], [[1.0, -0.5], [-0.0, 1.0]]]))
    xis = np.concatenate(xis)
    heights = orbits._heights(xis, DEFAULT_BUDGET)
    assert heights.tobytes() == stacked_heights_2x2(xis).tobytes()


@pytest.mark.parametrize(
    "t, pins",
    [
        (
            8.0,
            {
                "xis": "b68bc841d27cc9e98f698599272e6b2f0d9740abde0f4c2d3ac63897426c324b",
                "gammas": "22519e6c2787cda84c4017cc9bb7ef4df649adfe0505e04a71fc00a66c9c7cec",
                "heights": "f9befeaae4cec58a54021b06389ce2c62f488fe803d31766b536fbb5c3a6483e",
                "coords": "c49fb17ca92d50dae592e06ea1db1648d92b777f885c66551e357caf96802930",
            },
        ),
        (
            4.0,
            {
                "xis": "dfe18b518c0fce9c7219545526e137b08b37cd6d72777b64dbbe726ab3334986",
                "gammas": "111bee98d1e4c0eb6318f01c59356eb90340917cb45fb20947665a6bf3796d00",
                "heights": "06e70df67a45c4187f7910078a1c094a0e6a3db0a9b1671bb3dd7eeb27bb6ce3",
                "coords": "c6e8a524c4aab67504f57c14b27880fe452f45d63e47f18a7adc7976230d11af",
            },
        ),
    ],
)
def test_the_11_orbit_keeps_its_bits(t, pins):
    # the sha256 of each output array of a 20,000-sample (1,1) orbit from
    # program seed 0, pinned before the sweep's identity screen and the
    # entrywise certificate and heights; t = 8 is the cusp benchmark's input
    nu = orbit_pushforward(Y0_IRRATIONAL, t, V, 20_000, seed=0)
    for name, pin in pins.items():
        array = getattr(nu, name)
        assert array.flags.c_contiguous
        assert hashlib.sha256(array.tobytes()).hexdigest() == pin, name


def test_float_fibers_wrap_into_the_unit_interval():
    # x % 1.0 is 1.0 for a tiny negative x; that point is 0 on the torus
    assert TorusPoint.from_values([-1e-17]).coords == (0.0,)
    assert TorusPoint.from_values([0.25, -0.25]).coords == (0.25, 0.75)
    b = TorusPoint.from_values((0.1, 0.2, 0.3))
    assert torus_act(IntegerMatrix.from_rows([[-7, 2, 1], [0, 1, 0], [0, 0, 1]]), b).coords == (0.0, 0.2, 0.3)
    # this orbit raised "coordinates must be normalized into [0, 1)" at row 696
    y0 = AffineLatticePoint(SpecialLinearMatrix.from_entries(np.eye(3)), b)
    nu = orbit_pushforward(y0, 2.0, NeighborhoodV(SplittingSignature(2, 1)), 1000, seed=2)
    assert nu.coords.max() < 1.0
    b_start = torus_act(reduce_matrix(y0.linear).gamma, b)
    raw = (nu.gammas.astype(float) @ b_start.as_floats()) % 1.0
    assert np.array_equal(nu.coords, np.where(raw == 1.0, 0.0, raw))
    assert np.nonzero(raw == 1.0)[0].tolist() == [696]


def test_orbit_sample_accessor():
    y0 = AffineLatticePoint(
        SpecialLinearMatrix.from_entries(np.eye(2)), TorusPoint.from_values(["1/3", "2/3"])
    )
    nu = orbit_pushforward(y0, 3.0, V, 500, seed=2)
    assert nu.is_rational and nu.heights[7] >= 1.0 - 1e-9
    recon = nu.xis[7] @ nu.gammas[7]
    P = (
        diagonal_flow(3.0, SIG).entries
        @ horo_embed(nu.us[7], SIG).entries
        @ reduce_matrix(np.eye(2)).rep.entries
    )
    assert np.abs(recon - P).max() < 1e-6


def test_localized_measure_retains_everything_at_large_radius():
    y0 = AffineLatticePoint(
        SpecialLinearMatrix.from_entries(np.eye(2)), TorusPoint.from_values([0.3, 0.4])
    )
    nu = orbit_pushforward(y0, 0.5, V, 200, seed=4)
    dense_idx = int(np.argmin(nu.heights))
    z = SpecialLinearMatrix.from_entries(nu.xis[dense_idx])
    loc = localized_measure(nu, z, 10.0)
    assert loc.localization_mass == pytest.approx(1.0, abs=1e-9)


def test_localized_measure_empty_at_tiny_radius():
    y0 = AffineLatticePoint(
        SpecialLinearMatrix.from_entries(np.eye(2)), TorusPoint.from_values([0.3, 0.4])
    )
    nu = orbit_pushforward(y0, 4.0, V, 2000, seed=4)
    gz = np.array([[1.7, 0.3], [0.2, (1 + 0.06) / 1.7]])
    z = reduce_matrix(gz).rep
    with pytest.raises(EmptyLocalizationError):
        localized_measure(nu, z, 1e-7)


def test_localized_measure_matches_ball_fraction():
    y0 = AffineLatticePoint(
        SpecialLinearMatrix.from_entries(np.eye(2)), TorusPoint.from_values([0.3, 0.4])
    )
    nu = orbit_pushforward(y0, 6.0, V, 20_000, seed=12)
    gz = np.array([[1.1, 0.3], [0.2, (1 + 0.06) / 1.1]])
    z = reduce_matrix(gz).rep
    r = 0.12
    loc = localized_measure(nu, z, r)
    dists = _proxy_distances(nu.xis, z, 5 * r)
    inner = float(nu.weights[dists <= r].sum())
    outer = float(nu.weights[dists <= 5 * r].sum())
    assert inner - 1e-12 <= loc.localization_mass <= outer + 1e-12


def test_localized_measure_d3_runs_the_candidate_distance():
    # d = 3 takes the coefficient windows of `fundamental._proxy_distances`,
    # as d = 2 does.  The box V is narrow so that the 20 samples crowd round
    # sample 7 and clear the 10/N mass floor.  The weights' bytes are
    # pinned: they are those of the per-sample candidate-basis distance
    # this kernel replaced.
    sig = SplittingSignature(1, 2)
    y0 = AffineLatticePoint(SpecialLinearMatrix.from_entries(np.eye(3)), TorusPoint.from_values([0.1, 0.2, 0.3]))
    nu = orbit_pushforward(y0, 0.5, NeighborhoodV(sig, 0.002), 20, seed=0)
    loc = localized_measure(nu, SpecialLinearMatrix.from_entries(nu.xis[7]), 0.005)
    assert loc.weights[7] == loc.weights.max()
    assert hashlib.sha256(loc.weights.tobytes()).hexdigest() == (
        "3b025e179b16ad4ce6f61acc31ad5d30f72957c85d02e9f6154f44ce59cad6fd"
    )


def einsum_proxy_distances_2x2(xis, z_rep, reach):
    """Oracle: the minimum over every det-1 C in the box of side
    ceil(S colmax(xi) 1.0001), with one einsum and one stacked matmul per
    box size; also returns the largest box side used."""
    from horolattice.acceptance import _det1_box_table

    za = z_rep.entries
    S = math.sqrt(float((za * za).sum())) * (1.0 + reach) + 1e-9
    dists = np.full(xis.shape[0], np.inf)
    frob = np.sqrt((xis * xis).sum(axis=(1, 2)))
    colmax = np.maximum(
        np.linalg.norm(xis[:, :, 0], axis=1), np.linalg.norm(xis[:, :, 1], axis=1)
    )
    idx_alive = np.nonzero(frob <= S)[0]
    Ks = np.ceil(S * colmax[idx_alive] * 1.0001).astype(np.int64)
    for K in np.unique(Ks):
        rows = idx_alive[Ks == K]
        H = np.einsum("nij,kjl->nkil", xis[rows], _det1_box_table(int(K)))
        D = H @ z_rep.inverse - np.eye(2)
        dists[rows] = np.sqrt((D * D).sum(axis=(2, 3)).min(axis=1))
    return dists, int(Ks.max())


def test_proxy_distances_match_einsum_form_bit_for_bit():
    y0 = AffineLatticePoint(
        SpecialLinearMatrix.from_entries(np.eye(2)), TorusPoint.from_values([0.3, 0.4])
    )
    nu = orbit_pushforward(y0, 6.0, V, 1200, seed=5)
    z = reduce_matrix(np.array([[1.1, 0.3], [0.2, (1 + 0.06) / 1.1]])).rep
    for r in (0.05, 0.12, 0.6):
        reach = 5 * r
        want, side = einsum_proxy_distances_2x2(nu.xis, z, reach)
        got = _proxy_distances(nu.xis, z, reach)
        within = want <= reach
        assert within.sum() > 20
        assert np.array_equal(got <= reach, within)
        assert got[within].tobytes() == want[within].tobytes()
    assert side > 24  # r = 0.6 needs boxes of side above 24


def test_proxy_distances_run_in_blocks_of_bounded_memory(monkeypatch):
    # diag(4, 1/4) under shears at reach 4: about 280 first columns and
    # 650 candidates per row, 1,000 rows
    import tracemalloc

    shear = np.broadcast_to(np.eye(2), (1000, 2, 2)).copy()
    shear[:, 0, 1] = np.linspace(-0.5, 0.5, 1000)
    xis = np.diag([4.0, 0.25]) @ shear
    z = SpecialLinearMatrix.from_entries(np.eye(2))
    tracemalloc.start()
    try:
        dists = _proxy_distances(xis, z, 4.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert np.all(dists <= 4.0)
    monkeypatch.setattr(fundamental, "_LOC_BLOCK", 1)
    assert _proxy_distances(xis, z, 4.0).tobytes() == dists.tobytes()
    # 10^7 first columns put every row into one block
    monkeypatch.setattr(fundamental, "_LOC_BLOCK", 10**7)
    assert _proxy_distances(xis[::10], z, 4.0).tobytes() == dists[::10].tobytes()


def _det1_box_3x3():
    """Every integer 3x3 matrix with det +1 and entries in [-2, 2], (K, 3, 3)."""
    v = np.array([(a, b, c) for a in range(-2, 3) for b in range(-2, 3) for c in range(-2, 3)], dtype=np.int64)
    c1, c2 = np.repeat(v, len(v), axis=0), np.tile(v, (len(v), 1))
    pair, k = np.nonzero(np.cross(c1, c2) @ v.T == 1)
    return np.stack([c1[pair], c2[pair], v[k]], axis=2)


def box_proxy_distances_3x3(xis, z_rep, box):
    """Oracle: the minimum over every C of the box, scored one matrix at a time
    (a stacked (3, 3) @ (3, 3) product with z^{-1}), the sum in row-major order."""
    C = box.astype(float)
    out = np.empty(xis.shape[0])
    for i, X in enumerate(xis):
        H = X[:, 0, None] * C[:, None, 0, :]
        H += X[:, 1, None] * C[:, None, 1, :]
        H += X[:, 2, None] * C[:, None, 2, :]
        D = H @ z_rep.inverse - np.eye(3)
        Q = (D * D).reshape(-1, 9)
        dsq = Q[:, 0] + Q[:, 1]
        for k in range(2, 9):
            dsq += Q[:, k]
        out[i] = math.sqrt(dsq.min())
    return out


@pytest.mark.parametrize("m, n", [(1, 2), (2, 1)])
def test_proxy_distances_d3_match_a_box_of_every_det1_matrix_bit_for_bit(m, n, monkeypatch):
    box = _det1_box_3x3()
    assert box.shape == (67704, 3, 3)
    assert np.all(np.rint(np.linalg.det(box.astype(float))) == 1)
    y0 = AffineLatticePoint(SpecialLinearMatrix.from_entries(np.eye(3)), TorusPoint.from_values([0.0, 0.0, 0.0]))
    nu = orbit_pushforward(y0, 0.3, NeighborhoodV(SplittingSignature(m, n)), 40, seed=1)
    z = SpecialLinearMatrix.from_entries(nu.xis[7])
    reach = 0.8
    # the kernel's coefficient windows; the box is complete on the rows inside it
    adj = fundamental._inv_unimodular(nu.xis)
    half = np.sqrt((adj * adj).sum(axis=2))[:, :, None] * np.sqrt((z.entries**2).sum(axis=0)) * (reach + 1e-9) * 1.0001
    centre = adj @ z.entries
    inside = ((np.ceil(centre - half) >= -2) & (np.floor(centre + half) <= 2)).all(axis=(1, 2))
    assert inside.sum() >= 35
    xis = nu.xis[inside]
    want = box_proxy_distances_3x3(xis, z, box)
    got = _proxy_distances(xis, z, reach)
    within = want <= reach
    assert within.sum() >= 10 and not within.all()
    # no candidate is missed, and the distances within reach have the oracle's bits
    assert np.array_equal(got <= reach, within)
    assert got[within].tobytes() == want[within].tobytes()
    # one candidate per block and every row in one block give the same bits
    for block in (1, 10**7):
        monkeypatch.setattr(fundamental, "_LOC_BLOCK", block)
        assert _proxy_distances(xis, z, reach).tobytes() == got.tobytes()


@pytest.mark.parametrize("m, n", [(1, 1), (1, 2), (2, 1)])
def test_x_distance_is_the_stacked_kernel_row(m, n):
    sig = SplittingSignature(m, n)
    y0 = AffineLatticePoint(SpecialLinearMatrix.from_entries(np.eye(sig.d)), TorusPoint.from_values([0.0] * sig.d))
    nu = orbit_pushforward(y0, 0.3, NeighborhoodV(sig), 200, seed=3)
    z = SpecialLinearMatrix.from_entries(nu.xis[7])
    stacked = _proxy_distances(nu.xis, z, 0.8)
    lone = np.array([x_distance(xi, z, 0.8) for xi in nu.xis])
    assert lone.tobytes() == stacked.tobytes()
    assert np.count_nonzero(stacked <= 0.8) >= 10 and (stacked > 0.8).any()


def test_distances_within_a_smaller_reach_equal_those_of_a_larger_one():
    # the d2-measures localization cloud: one call at the largest radius
    # gives the distances of every smaller one
    y0 = AffineLatticePoint(
        SpecialLinearMatrix.from_entries(np.eye(2)),
        TorusPoint.from_values([math.sqrt(2.0) - 1.0, math.sqrt(3.0) - 1.0]),
    )
    nu = orbit_pushforward(y0, 8.0, V, 2000, seed=0)
    z = reduce_matrix(np.array([[1.1, 0.3], [0.2, (1.0 + 0.3 * 0.2) / 1.1]])).rep
    small = _proxy_distances(nu.xis, z, 5 * 0.05)
    large = _proxy_distances(nu.xis, z, 5 * 0.1)
    within = small <= 0.25
    assert within.sum() > 20
    assert np.array_equal(within, large <= 0.25)
    assert small[within].tobytes() == large[within].tobytes()


def test_localization_mass_is_a_constructor_field():
    y0 = AffineLatticePoint(
        SpecialLinearMatrix.from_entries(np.eye(2)), TorusPoint.from_values([0.3, 0.4])
    )
    nu = orbit_pushforward(y0, 0.5, V, 200, seed=4)
    assert nu.localization_mass is None
    z = SpecialLinearMatrix.from_entries(nu.xis[int(np.argmin(nu.heights))])
    loc = localized_measure(nu, z, 0.5)
    assert 0.0 < loc.localization_mass <= 1.0
    assert nu.reweighted(loc.weights).localization_mass is None


def test_gamma_orbit_trivial_at_time_zero():
    x_rep = reduce_matrix(np.eye(2)).rep
    tiny = NeighborhoodV(SIG, half_width=1e-4)
    res = gamma_orbit(x_rep, (1, 0), 0.0, tiny, 500, seed=1, eps=0.5)
    assert res.kept_fraction == 1.0
    uniq, masses = res.bin_masses()
    assert uniq.shape[0] == 1
    assert masses[0] == pytest.approx(1.0)


def test_gamma_orbit_kept_fraction_grows_with_eps_shrinking():
    x_rep = reduce_matrix(np.eye(2)).rep
    s = 4.0
    kept = []
    for eps in (0.4, 0.2, 0.1, 0.05):
        res = gamma_orbit(x_rep, (1, 0), s, V, 20_000, seed=6, eps=eps)
        kept.append(res.kept_fraction)
    # V_{x, eps} exhausts V as eps shrinks: 1 - kept <= C eps^beta
    drops = [1 - k for k in kept]
    assert all(drops[i + 1] <= drops[i] + 1e-12 for i in range(len(drops) - 1))
    assert drops[-1] < 0.05


def test_gamma_orbit_inputs_validated():
    x_rep = reduce_matrix(np.eye(2)).rep
    with pytest.raises(ValueError):
        gamma_orbit(x_rep, (0, 0), 1.0, V, 100, seed=0, eps=0.1)
    with pytest.raises(ValueError):
        gamma_orbit(x_rep, (1, 0), 1.0, V, 100, seed=0, eps=0.7)


@pytest.mark.parametrize("sig", [SplittingSignature(1, 2), SplittingSignature(2, 1)], ids=["12", "21"])
def test_gamma_orbit_gate_matches_per_sample_reference(sig):
    # the per-sample gate the batched one replaced: matrix_norm and one solve per sample
    from horolattice.core import matrix_norm

    x_rep = reduce_matrix(np.eye(3)).rep
    m0, s, count, eps = np.array([0, 1, 2]), 2.0, 120, 0.3
    res = gamma_orbit(x_rep, m0, s, NeighborhoodV(sig), count, seed=5, eps=eps)
    us = sample_V(NeighborhoodV(sig), count, seed=5)
    kept = []
    for u in us:
        xi, gamma = decompose(x_rep, u, s, sig)
        w = np.linalg.solve(xi.entries.T, m0.astype(float))
        if matrix_norm(xi) < 1.0 / eps and np.abs(w[: sig.m]).max() > eps * eps * 2.0:
            kept.append(gamma.transpose().to_int64() @ m0)
    assert 0 < len(kept) < count
    assert np.array_equal(res.vectors, np.array(kept, dtype=np.int64))
    assert res.kept_fraction == len(kept) / count and res.total == count


def test_inductive_structure_identity_and_boundary_bound():
    # The inductive structure rests on a_s u0 a_{t-s} phi(A) =
    # a_t phi(A + e^{-(m+n)(t-s)} A0): (1) test that identity per sample
    # through two independent reduction paths; (2) the measure-level gap
    # between the t-translate and the pushed (t-s)-translate is a
    # boundary-strip term of relative size delta/(2 eta) with
    # delta = e^{-(m+n) dt} |A0| and dt = t - s, so it obeys the
    # explicit bound |gap| <= |f|_inf * delta/eta plus Monte Carlo
    # noise.  (The rate itself is not resolvable below the CLT floor
    # at desk sample sizes; the noise-floor rule applies.)
    y0 = AffineLatticePoint(
        SpecialLinearMatrix.from_entries(np.eye(2)), TorusPoint.from_values([0.21, 0.77])
    )
    t = 6.0
    u0 = 0.37
    eta = V.half_width

    # (1) exact two-path identity on a handful of samples
    for dt in (1.0, 2.5):
        s = t - dt
        mover = diagonal_flow(s, SIG).compose(horo_embed([[u0]], SIG))
        for A in (-0.31, 0.07, 0.44):
            inner = diagonal_flow(t - s, SIG).compose(horo_embed([[A]], SIG)).compose(y0.linear)
            lhs = sigma(AffineLatticePoint(mover.compose(inner), y0.torus))
            outer = diagonal_flow(t, SIG).compose(horo_embed([[A + math.exp(-SIG.d * dt) * u0]], SIG))
            rhs = sigma(AffineLatticePoint(outer.compose(y0.linear), y0.torus))
            gap = np.abs(lhs.as_floats() - rhs.as_floats())
            assert np.minimum(gap, 1 - gap).max() < 1e-8

    # (2) measure-level consistency with the boundary-strip bound
    count = 20_000
    us = sample_V(V, count, seed=9)

    def trigpoly(coords):
        return np.cos(2 * np.pi * coords[:, 0]) + np.sin(
            2 * np.pi * (coords[:, 0] + coords[:, 1])
        )

    from horolattice.fundamental import reduce_batch_2x2

    x_rep = reduce_matrix(np.eye(2)).rep
    X = x_rep.entries
    b = torus_act(reduce_matrix(np.eye(2)).gamma, y0.torus).as_floats()

    def orbit_mean(shift):
        u = us[:, 0, 0] + shift
        P = np.empty((count, 2, 2))
        P[:, 0, 0] = math.exp(t) * (X[0, 0] + u * X[1, 0])
        P[:, 0, 1] = math.exp(t) * (X[0, 1] + u * X[1, 1])
        P[:, 1, 0] = math.exp(-t) * X[1, 0]
        P[:, 1, 1] = math.exp(-t) * X[1, 1]
        _, gammas = reduce_batch_2x2(P)
        coords = (gammas.astype(float) @ b) % 1.0
        return float(trigpoly(coords).mean())

    val_t = orbit_mean(0.0)
    f_sup = 2.0
    noise = 6.0 / math.sqrt(count)  # two independent clouds of |f| <= 2
    for dt in (0.5, 1.0, 2.0, 3.0):
        delta = math.exp(-SIG.d * dt) * u0
        gap = abs(orbit_mean(delta) - val_t)
        assert gap <= f_sup * delta / eta + noise


def test_empirical_measure_validation():
    with pytest.raises(ValueError):
        EmpiricalTorusMeasure(coords=np.zeros((3, 2)), weights=np.array([0.5, 0.5, 0.5]))
    with pytest.raises(ValueError):
        EmpiricalTorusMeasure(coords=np.full((2, 2), 1.5), weights=np.array([0.5, 0.5]))
