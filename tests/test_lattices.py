import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horolattice.core import (
    AffineLatticePoint,
    IntegerMatrix,
    SpecialLinearMatrix,
    SplittingSignature,
    TorusPoint,
    _bezout,
    _complete_to_unimodular,
    _int_det,
    _inv_unimodular,
    _renormalized,
    diagonal_flow_vector,
)
from horolattice.errors import BudgetExceededError, PrecisionError
from horolattice import lattices
from horolattice.lattices import (
    DEFAULT_BUDGET,
    constrained_shortest,
    enumerate_ball,
    lll_reduce,
    lll_reduce_batch,
    shortest_vector,
    siegel_transform,
    siegel_values,
    stack_heights,
    successive_minima,
)
from horolattice.orbits import NeighborhoodV, decompose_batch, orbit_pushforward, sample_V


def random_basis(rng, d=2, spread=2.0):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1
    ts = rng.uniform(-spread, spread, d - 1)
    diag = np.exp(np.concatenate([ts, [-ts.sum()]]))
    S = np.eye(d)
    for i in range(d):
        for j in range(i + 1, d):
            S[i, j] = rng.uniform(-1, 1)
    return q @ np.diag(diag) @ S


def brute_shortest(B, norm, box=50):
    d = B.shape[0]
    best = None
    rng = range(-box, box + 1)
    grid = np.array(np.meshgrid(*[list(rng)] * d, indexing="ij")).reshape(d, -1).T
    grid = grid[np.any(grid != 0, axis=1)]
    vecs = grid @ B.T
    lens = np.abs(vecs).max(axis=1) if norm == "sup" else np.linalg.norm(vecs, axis=1)
    return float(lens.min())


def reduced(B):
    """The LLL basis of B, as the package's routines take it."""
    return lll_reduce(B)[0]


def test_shortest_vector_examples():
    # the coefficients are those of the vector B @ c in the LLL basis B
    B = reduced(np.eye(2))
    coeff, length = shortest_vector(B)
    assert length == pytest.approx(1.0)
    assert np.abs(B @ np.array(coeff, dtype=float)).max() == length
    B = reduced(np.diag([math.e, 1 / math.e]))
    coeff, length = shortest_vector(B)
    assert length == pytest.approx(1 / math.e)
    assert np.abs(B @ np.array(coeff, dtype=float)).tolist() == [0.0, 1 / math.e]


def test_shortest_vector_matches_brute_force():
    # the sup-norm shortest vector, and the Euclidean one as the first successive minimum
    rng = np.random.default_rng(7)
    for _ in range(25):
        B = random_basis(rng, 2)
        assert shortest_vector(reduced(B))[1] == pytest.approx(brute_shortest(B, "sup"), rel=1e-9)
        assert successive_minima(reduced(B))[0] == pytest.approx(brute_shortest(B, "euclidean"), rel=1e-9)


def test_shortest_vector_matches_brute_force_d3():
    rng = np.random.default_rng(8)
    for _ in range(8):
        B = random_basis(rng, 3, spread=1.0)
        assert successive_minima(reduced(B))[0] == pytest.approx(brute_shortest(B, "euclidean", box=8), rel=1e-9)


def test_successive_minima_examples():
    assert successive_minima(reduced(np.eye(3))) == pytest.approx([1, 1, 1])
    assert successive_minima(reduced(np.diag([2.0, 0.5]))) == pytest.approx([0.5, 2.0])


def test_successive_minima_nondecreasing_and_minkowski_window():
    rng = np.random.default_rng(9)
    for d in (2, 3):
        for _ in range(40):
            minima = successive_minima(reduced(random_basis(rng, d, spread=1.5)))
            assert all(minima[i] <= minima[i + 1] + 1e-12 for i in range(d - 1))
            prod = float(np.prod(minima))
            assert 0.1 <= prod <= 10.0


def test_successive_minima_against_full_ball_oracle():
    rng = np.random.default_rng(10)
    for _ in range(10):
        B = random_basis(rng, 3, spread=0.8)
        minima = successive_minima(reduced(B))
        # oracle: full ball enumeration plus greedy rank filtering
        Bred, _ = lll_reduce(B)
        radius = max(np.linalg.norm(Bred[:, j]) for j in range(3))
        items = []
        for c in enumerate_ball(Bred, radius * (1 + 1e-12)):
            v = Bred @ np.array(c, dtype=float)
            items.append((float(np.linalg.norm(v)), c))
        items.sort()
        chosen, mins = [], []
        for ln, c in items:
            M = np.array(chosen + [list(c)], dtype=float)
            if np.linalg.matrix_rank(M, tol=1e-9) > len(chosen):
                chosen.append(list(c))
                mins.append(ln)
                if len(mins) == 3:
                    break
        assert minima == pytest.approx(mins, rel=1e-9)


def test_height_examples_and_in_K():
    assert stack_heights(np.eye(3)[None])[0] == pytest.approx(1.0)
    t = 0.7
    assert stack_heights(np.diag([math.exp(t), math.exp(-t)])[None])[0] == pytest.approx(math.exp(t))


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_height_at_least_one(seed):
    rng = np.random.default_rng(seed)
    assert stack_heights(random_basis(rng, 2)[None])[0] >= 1.0 - 1e-9


def _height_stack(name):
    """A stack for the tests below: a decomposed orbit, or lattices like criterion 05's."""
    if name.startswith("orbit"):
        (m, n), t = {"orbit-12-t8": ((1, 2), 8.0), "orbit-21-t5": ((2, 1), 5.0)}[name]
        sig = SplittingSignature(m, n)
        us = sample_V(NeighborhoodV(sig), 300, seed=7)
        return decompose_batch(SpecialLinearMatrix.from_entries(np.eye(3)), us, t, sig)[0]
    # q diag(e^{-tau}, ...) S with tau up to criterion 05's 3.4 (d = 2) and 1.7 (d = 3), renormalized as it does
    d, spread = {"renormalized-d2": (2, 3.4), "renormalized-d3": (3, 1.7)}[name]
    rng = np.random.default_rng(24)
    return _renormalized(np.array([random_basis(rng, d, spread) for _ in range(300)]))[0]


def _lone_heights(stack):
    """1 / `shortest_vector` of each basis, reduced alone; each vector B @ c has the length returned."""
    lengths = []
    for basis in stack:
        B = reduced(basis)
        c, length = shortest_vector(B, DEFAULT_BUDGET)
        assert np.abs(B @ np.array(c, dtype=float)).max() == length
        lengths.append(length)
    return 1.0 / np.array(lengths)


def test_height_box_holds_one_vector_per_sign_pair():
    for d, size in ((2, 12), (3, 62)):
        box = lattices._height_box(d, 2)
        assert box.shape == (size, d) and np.abs(box).max() == 2
        pairs = {tuple(c) for c in box} | {tuple(-c) for c in box}
        assert len(pairs) == 2 * size and len(pairs) == 5**d - 1


@pytest.mark.parametrize("name", ["orbit-12-t8", "orbit-21-t5", "renormalized-d2", "renormalized-d3"])
def test_stack_heights_equal_the_lone_heights_bit_for_bit(name):
    stack = _height_stack(name)
    heights = stack_heights(stack)
    assert heights.tobytes() == _lone_heights(stack).tobytes()
    assert heights.min() >= 1.0 - 1e-9
    # every row of these stacks is certified by the box: none spends enumeration budget
    assert stack_heights(stack, budget=0).tobytes() == heights.tobytes()


def test_stack_heights_fall_back_to_the_walk_on_uncertified_rows(monkeypatch):
    # with a box of reach 1 the certificate needs every span below 2; samples
    # 357 and 1,213 of this (2, 1) orbit have a span of 2.15 and 2.04 (about 1 row
    # in 1,500 reaches 2), so the two windows around them hold rows of both kinds
    sig = SplittingSignature(2, 1)
    us = sample_V(NeighborhoodV(sig), 1240, seed=7)
    us = np.concatenate([us[340:380], us[1200:1240]])
    stack = decompose_batch(SpecialLinearMatrix.from_entries(np.eye(3)), us, 5.0, sig)[0]
    monkeypatch.setattr(lattices, "_BOX", 1)
    real = lattices.shortest_vector
    reduced_stack = lll_reduce_batch(stack)[0]
    walked = []

    def spy(B, budget):
        walked.append(int(np.flatnonzero((reduced_stack == B).all(axis=(1, 2)))[0]))
        return real(B, budget)

    monkeypatch.setattr(lattices, "shortest_vector", spy)
    heights = stack_heights(stack)
    assert walked == [357 - 340, 1213 - 1200 + 40]
    assert heights.tobytes() == _lone_heights(stack).tobytes()
    # the walk of the first such row fails, as that row of the stack
    with pytest.raises(BudgetExceededError, match=r"^enumeration node budget exceeded$") as info:
        stack_heights(stack, budget=1)
    assert info.value.row == walked[0]


def test_dual_pairing_integral_and_mahler():
    rng = np.random.default_rng(12)
    worst_mahler = 0.0
    for _ in range(60):
        d = int(rng.integers(2, 4))
        B = random_basis(rng, d, spread=1.2)
        # the dual basis (B^{-1})^T, as `fundamental._search` takes it
        D = _inv_unimodular(B).T
        pair = D.T @ B
        assert np.abs(pair - np.rint(pair)).max() < 1e-9
        lam1 = successive_minima(reduced(B))[0]
        lamd_dual = successive_minima(reduced(D))[-1]
        worst_mahler = max(worst_mahler, lam1 * lamd_dual)
    # Mahler-type bound: fitted constant stays modest in d <= 3
    assert worst_mahler <= 6.0


def test_siegel_transform_examples():
    # ball counts on Z^2: the 4 unit vectors, then (+-1, +-1), then (+-2, 0) and (0, +-2)
    Z2 = reduced(np.eye(2))
    assert [siegel_transform(Z2, r) for r in (0.1, 1.0, 1.5, 2.0)] == [0.0, 4.0, 8.0, 12.0]


def brute_force_ball_count(x, radius):
    """Integer c != 0 with |x c| <= radius, over the box |c_i| <= radius |row_i of x^{-1}| that holds them all."""
    reach = np.floor(radius * np.linalg.norm(np.linalg.inv(x), axis=1)).astype(int)
    grids = np.meshgrid(*[np.arange(-k, k + 1) for k in reach], indexing="ij")
    cs = np.stack([g.ravel() for g in grids])
    return int(np.count_nonzero(np.linalg.norm(x @ cs, axis=0) <= radius)) - 1  # c = 0


@pytest.mark.parametrize(
    "sig, t, radii",
    [((1, 1), 4.0, (0.3, 0.7, 0.95, 1.5)), ((1, 1), 8.0, (0.3, 0.95, 1.5)), ((1, 2), 2.0, (0.5, 1.5, 1.9)), ((2, 1), 3.0, (0.7, 1.9))],
    ids=["d2-t4", "d2-t8", "d3-12-t2", "d3-21-t3"],
)
def test_siegel_values_match_a_brute_force_count(sig, t, radii):
    # d = 2 below radius 1 takes the closed form, every other case the enumeration; the oracle counts a box
    sig = SplittingSignature(*sig)
    y0 = AffineLatticePoint(SpecialLinearMatrix.from_entries(np.eye(sig.d)), TorusPoint.from_values([0.1] * sig.d))
    xis = orbit_pushforward(y0, t, NeighborhoodV(sig), 40, seed=0).xis
    for r in radii:
        values = siegel_values(xis, r)
        assert values.tolist() == [brute_force_ball_count(x, r) for x in xis]
        assert values.any()


def test_enumeration_budget_error():
    with pytest.raises(BudgetExceededError):
        list(enumerate_ball(np.eye(2), 100.0, budget=50))


def test_enumerate_ball_complete():
    rng = np.random.default_rng(13)
    B = random_basis(rng, 2, spread=0.8)
    radius = 2.0
    got = set()
    for c in enumerate_ball(B, radius):
        got.add(c)
        got.add(tuple(-x for x in c))
    expected = set()
    for a in range(-20, 21):
        for b in range(-20, 21):
            if (a, b) == (0, 0):
                continue
            if np.linalg.norm(B @ np.array([a, b], float)) <= radius:
                expected.add((a, b))
    assert got == expected


def _deep_cusp_basis(rng, d):
    # lambda_1 = 0.01, below the d = 2 batch threshold 0.015
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1
    diag = [0.01, 100.0] if d == 2 else [0.01, 2.0, 50.0]
    S = np.eye(d)
    S[0, 1:] = rng.uniform(-1, 1, d - 1)
    return q @ np.diag(diag) @ S


@pytest.mark.parametrize(
    "d, deep, radius", [(2, False, 4.0), (2, True, 210.0), (3, False, 3.0), (3, True, 5.0)]
)
def test_enumerate_ball_primitive_is_filtered_full_walk(d, deep, radius):
    rng = np.random.default_rng(21 + d)
    B = _deep_cusp_basis(rng, d) if deep else random_basis(rng, d, spread=1.0)
    full = list(enumerate_ball(B, radius))
    expected = [c for c in full if math.gcd(*c) == 1]
    assert len(expected) < len(full)
    assert list(enumerate_ball(B, radius, primitive=True)) == expected


def _enumerate_ball_plain(basis, radius, budget, primitive=False):
    """`enumerate_ball` without the refusal of a level on entry, and with an eager primitive filter."""
    R = lattices._qr_positive(np.asarray(basis, dtype=float)).tolist()
    d = len(R)
    rad2 = radius * radius * (1.0 + 1e-12) + 1e-300
    coeff, nodes = [0] * d, 0

    def walk(level, partial):
        nonlocal nodes
        center = 0.0
        for j in range(level + 1, d):
            center -= R[level][j] * coeff[j]
        center /= R[level][level]
        room = rad2 - partial
        if room < 0:
            return
        span = math.sqrt(room) / R[level][level]
        if span == math.inf:
            raise BudgetExceededError("enumeration node budget exceeded", nodes=budget + 1)
        lo, hi = math.ceil(center - span - 1e-12), math.floor(center + span + 1e-12)
        cvals = range(lo, hi + 1)
        if primitive and level == 0:
            g = math.gcd(*coeff[1:])
            if g == 0:
                cvals = [c for c in (-1, 1) if lo <= c <= hi]
            elif g > 1:
                cvals = [c for c in cvals if math.gcd(c, g) == 1]
        for cval in cvals:
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError("enumeration node budget exceeded", nodes=nodes)
            coeff[level] = cval
            resid = R[level][level] * cval
            for j in range(level + 1, d):
                resid += R[level][j] * coeff[j]
            new_partial = partial + resid * resid
            if new_partial > rad2:
                continue
            if level == 0:
                tup = tuple(coeff)
                last = next((x for x in reversed(tup) if x), 0)
                if last > 0:
                    yield tup
            else:
                yield from walk(level - 1, new_partial)
        coeff[level] = 0

    yield from walk(d - 1, 0.0)


def _ball_outcome(walk, B, radius, budget, primitive):
    try:
        return list(walk(B, radius, budget, primitive=primitive))
    except BudgetExceededError as exc:
        return str(exc), exc.nodes


@pytest.mark.parametrize("d", [2, 3])
def test_enumerate_ball_refusing_a_level_on_entry_keeps_the_plain_walks_outcome(d):
    rng = np.random.default_rng(40 + d)
    bases = [random_basis(rng, d, spread=1.0) for _ in range(3)] + [_deep_cusp_basis(rng, d) for _ in range(3)]
    refused = 0
    for B, radius, primitive in itertools.product(bases, (0.5, 2.0, 20.0), (False, True)):
        for budget in (1, 2, 3, 5, 10, 30, 100, 1_000, 100_000):
            plain = _ball_outcome(_enumerate_ball_plain, B, radius, budget, primitive)
            assert _ball_outcome(enumerate_ball, B, radius, budget, primitive) == plain, (B, radius, budget)
            refused += plain == ("enumeration node budget exceeded", budget + 1)
    assert refused > 0


def test_a_level_whose_range_passes_the_budget_is_refused_on_entry():
    # diag(0.1, 1), radius 2.5: c1 = -2, ..., 2 leave 31, 45, 51, 45 and 31
    # values of c0; on entry to c1 = 1, 131 nodes are spent and 19 are left
    def run(walk):
        got = []
        with pytest.raises(BudgetExceededError, match="^enumeration node budget exceeded$") as info:
            for c in walk(np.diag([0.1, 1.0]), 2.5, 150):
                got.append(c)
        assert info.value.nodes == 151
        return got

    at_c1_0 = [(c0, 0) for c0 in range(1, 26)]
    assert run(enumerate_ball) == at_c1_0
    # the plain walk yields 19 more before it runs out
    assert run(_enumerate_ball_plain) == at_c1_0 + [(c0, 1) for c0 in range(-22, -3)]


def test_primitive_filter_tests_values_as_the_walk_reaches_them(monkeypatch):
    # at c1 = -2 the level-0 range holds 2e6 values, half of them odd; the
    # walk reaches 100 of them before it passes the budget
    tested = []
    real = math.gcd
    monkeypatch.setattr(math, "gcd", lambda *a: tested.append(a) or real(*a))
    with pytest.raises(BudgetExceededError, match="^enumeration node budget exceeded$") as info:
        list(enumerate_ball(np.diag([1.5e-6, 1.0]), 2.5, 100, primitive=True))
    assert info.value.nodes == 101
    assert len(tested) < 300


def test_constrained_shortest_excludes_span():
    B = np.diag([0.1, 1.0, 3.0])
    c, l2 = constrained_shortest(B, 0)
    assert math.sqrt(l2) == pytest.approx(0.1)
    c, l2 = constrained_shortest(B, 1)
    assert math.sqrt(l2) == pytest.approx(1.0)
    assert c[0] == 0 and c[1] != 0
    c, l2 = constrained_shortest(B, 2)
    assert math.sqrt(l2) == pytest.approx(3.0)


def _constrained_shortest_plain(B, span_exclude, budget):
    """`constrained_shortest` as it visited every node up to 1e-12 above the best, kept as the reference."""
    d, k = B.shape[0], span_exclude
    R = lattices._qr_positive(B).tolist()
    best_c, best2 = None, math.inf
    for j in range(k, d):
        n2 = float(B[:, j] @ B[:, j])
        if n2 < best2:
            best2, best_c = n2, tuple(1 if i == j else 0 for i in range(d))
    bound = best2 * (1.0 + 1e-12)
    c, centers, dist, walks, nodes = [0] * d, [0.0] * d, [0.0] * (d + 1), [None] * d, 0

    def step(i, w):
        c[i] = w.value
        if i == k and c[i] == 0 and all(c[j] == 0 for j in range(i + 1, d)):
            w.advance()
            c[i] = w.value

    def enter(i):
        s = 0.0
        for j in range(i + 1, d):
            s += R[i][j] * c[j]
        centers[i] = -s / R[i][i]
        walks[i] = lattices._ZigZag(centers[i])
        step(i, walks[i])

    def advance(i):
        walks[i].advance()
        step(i, walks[i])

    i = d - 1
    enter(i)
    while True:
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError("shortest-vector search budget exceeded", nodes=nodes)
        y = dist[i + 1] + (R[i][i] * (c[i] - centers[i])) ** 2
        if y <= bound:
            if i == 0:
                if y < best2:
                    best2, best_c, bound = y, tuple(c), y
                advance(0)
            else:
                dist[i] = y
                i -= 1
                enter(i)
        else:
            i += 1
            if i == d:
                return best_c, best2
            advance(i)


def _least_budget(walk, B, span_exclude):
    """The least budget at which the walk returns (its node count), and what it returns."""

    def runs_out(budget):
        try:
            walk(B, span_exclude, budget)
        except BudgetExceededError:
            return True
        return False

    hi = 1
    while runs_out(hi):
        hi *= 2
    lo = hi // 2  # 0, or a budget the walk runs out of
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if runs_out(mid) else (lo, mid)
    return hi, walk(B, span_exclude, hi)


def test_walk_pruned_at_the_best_returns_the_plain_walks_result():
    # under a column of length s, the plain walk's last level-0 walk visits
    # about 2 s^2 10^-6 values of c0, none of which can beat the best
    rng = np.random.default_rng(33)
    bases = []
    for s in (6e3, 1.4e4):
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        bases += [np.diag([s, 1 / s]), q @ np.diag([1 / s, s]) @ [[1.0, 0.3], [0.0, 1.0]], np.diag([1 / s, 1.0, s])]
    bases += [random_basis(rng, 3, spread=3.0) for _ in range(4)]
    # unreduced: level-0 walks that move the best
    unreduced = [np.array([[1.0, 7.3], [0.0, 0.01]]), np.array([[1.0, 0.0, 4.6], [0.0, 1.0, 3.3], [0.0, 0.0, 0.02]])]
    plain_nodes, nodes = [], []
    for B in [reduced(b) for b in bases] + unreduced:
        for k in range(B.shape[0]):
            n_plain, plain = _least_budget(_constrained_shortest_plain, B, k)
            n, got = _least_budget(constrained_shortest, B, k)
            # the walk returns at every budget the plain walk returns at
            assert got == plain and n <= n_plain, (B, k)
            plain_nodes.append(n_plain)
            nodes.append(n)
    assert sum(n > 100 for n in plain_nodes) >= 4
    assert (sum(plain_nodes), sum(nodes)) == (3189, 415)


def test_minima_of_a_deep_cusp_are_found_in_a_few_advances(monkeypatch):
    # the LLL basis of diag(1e100, 1e-100): the plain walk's second minimum
    # covers 10^188 values of c0 within 1e-12 of the best, and runs out
    advances = []
    real = lattices._ZigZag.advance
    monkeypatch.setattr(lattices._ZigZag, "advance", lambda w: advances.append(1) or real(w))
    assert successive_minima(reduced(np.diag([1e100, 1e-100]))) == [1e-100, 1e100]
    assert len(advances) < 10
    with pytest.raises(BudgetExceededError, match="^shortest-vector search budget exceeded$"):
        _constrained_shortest_plain(reduced(np.diag([1e100, 1e-100])), 1, 10_000)


def full_recompute_lll(basis, delta=0.99, max_rounds=10_000):
    """Reference LLL: the whole Gram-Schmidt is rebuilt after every change."""
    B = np.array(basis, dtype=float)
    d = B.shape[0]
    U = [[1 if i == j else 0 for j in range(d)] for i in range(d)]

    def gram_schmidt():
        Q = np.zeros_like(B)
        mu = np.zeros((d, d))
        norms2 = np.zeros(d)
        for j in range(d):
            v = B[:, j].copy()
            for i in range(j):
                mu[j, i] = 0.0 if norms2[i] == 0 else float(B[:, j] @ Q[:, i]) / norms2[i]
                v -= mu[j, i] * Q[:, i]
            Q[:, j] = v
            norms2[j] = float(v @ v)
        return mu, norms2

    rounds = 0
    k = 1
    mu, norms2 = gram_schmidt()
    while k < d:
        rounds += 1
        if rounds > max_rounds:
            raise BudgetExceededError("LLL failed to converge within the round budget")
        for i in range(k - 1, -1, -1):
            r = round(mu[k, i])
            if r != 0:
                B[:, k] -= r * B[:, i]
                for row in range(d):
                    U[row][k] -= r * U[row][i]
                mu, norms2 = gram_schmidt()
        if norms2[k] >= (delta - mu[k, k - 1] ** 2) * norms2[k - 1]:
            k += 1
        else:
            tmp = B[:, k - 1].copy()
            B[:, k - 1] = B[:, k]
            B[:, k] = -tmp
            for row in range(d):
                U[row][k - 1], U[row][k] = U[row][k], -U[row][k - 1]
            mu, norms2 = gram_schmidt()
            k = max(k - 1, 1)
    return B, U


def _flowed_bases():
    """a_t phi(u) x for the d <= 3 signatures, t up to 8."""
    rng = np.random.default_rng(21)
    for m, n in ((1, 1), (1, 2), (2, 1)):
        sig = SplittingSignature(m, n)
        for t in (0.5, 2.0, 4.0, 6.0, 8.0):
            for _ in range(12):
                H = np.eye(sig.d)
                H[:m, m:] = rng.uniform(-0.5, 0.5, (m, n))
                x = np.eye(sig.d) if rng.random() < 0.5 else random_basis(rng, sig.d, spread=0.5)
                yield diagonal_flow_vector(t, sig)[:, None] * (H @ x)


def test_lll_matches_full_recompute_bit_for_bit():
    rng = np.random.default_rng(20)
    bases = [random_basis(rng, d, spread=s) for d in (2, 3) for s in (0.5, 2.0, 5.0) for _ in range(15)]
    bases += list(_flowed_bases())
    reduced = 0
    for basis in bases:
        B, U = lll_reduce(basis)
        B_ref, U_ref = full_recompute_lll(basis)
        assert U == U_ref
        assert B.tobytes() == B_ref.tobytes()
        reduced += U != [[1 if i == j else 0 for j in range(len(U))] for i in range(len(U))]
    assert reduced > len(bases) // 2  # most inputs do real reduction work


def _flowed_stack(m, n, t, count, rng):
    """a_t phi(u) for count uniform draws of u, as one stack."""
    sig = SplittingSignature(m, n)
    H = np.broadcast_to(np.eye(sig.d), (count, sig.d, sig.d)).copy()
    H[:, :m, m:] = rng.uniform(-0.5, 0.5, (count, m, n))
    return diagonal_flow_vector(t, sig)[:, None] * H


def _assert_batch_matches_reference(stack):
    B, U = lll_reduce_batch(stack)
    assert B.shape == stack.shape and U.dtype == np.int64
    for i, basis in enumerate(stack):
        B_ref, U_ref = full_recompute_lll(basis)
        assert B[i].tobytes() == B_ref.tobytes(), i
        assert U[i].tolist() == U_ref, i


def test_lll_batch_matches_full_recompute_bit_for_bit():
    # the full-recompute LLL is the reference, row by row
    rng = np.random.default_rng(22)
    flowed = list(_flowed_bases())
    for d in (2, 3):
        _assert_batch_matches_reference(np.array([b for b in flowed if b.shape[0] == d]))
    for d in (2, 3, 4):
        for spread in (0.5, 2.0, 5.0):
            _assert_batch_matches_reference(np.array([random_basis(rng, d, spread) for _ in range(40)]))
    _assert_batch_matches_reference(random_basis(rng, 3, 2.0)[None])
    # at the (1, 2) and (2, 1) caps, where the reduction takes the most rounds
    _assert_batch_matches_reference(_flowed_stack(1, 2, 8.0, 10_000, rng))
    _assert_batch_matches_reference(_flowed_stack(2, 1, 5.0, 10_000, rng))


def test_lll_batch_precision_failures_name_the_lowest_failing_row():
    # a transform entry beyond int64, for a stack of one as for any stack
    huge = np.array([np.eye(2), [[1.0, 2.0**70], [0.0, 1.0]]])
    with pytest.raises(PrecisionError, match=r"^LLL transform leaves int64") as info:
        lll_reduce(huge[1])
    assert info.value.row == 0
    with pytest.raises(PrecisionError, match=r"^LLL transform leaves int64") as info:
        lll_reduce_batch(huge)
    assert info.value.row == 1
    with pytest.raises(PrecisionError, match=r"^LLL size-reduction step is not finite") as info:
        lll_reduce_batch(np.array([[[1.0, np.nan], [0.0, 1.0]]]))
    assert info.value.row == 0


def test_completion_of_every_primitive_vector_in_a_box():
    # entries in [-20, 20]: Bezout for lengths 1-3, the completion for 2 and 3
    for n in (1, 2, 3):
        box = [t for t in itertools.product(range(-20, 21), repeat=n) if math.gcd(*t) == 1]
        for t in box:
            assert sum(x * c for x, c in zip(t, _bezout(t))) == 1
            if n > 1:
                cols = _complete_to_unimodular(t)
                assert tuple(row[0] for row in cols) == t and _int_det(cols) == 1
    assert len(box) == 57026


def test_completion_of_a_vector_that_is_not_primitive_is_a_value_error():
    for t in ((0, 0), (2, 4), (0, 0, 0), (3, 6, 9), (0, 0, 2)):
        with pytest.raises(ValueError, match="^completion requires a primitive vector$"):
            _complete_to_unimodular(t)


def test_successive_minima_of_a_basis_that_is_not_lll_reduced():
    # far from LLL-reduced: the first minimum has the coefficients (19, 17, 18)
    U = IntegerMatrix.from_rows([[19, -9, 0], [17, -8, 0], [18, 0, 1]])
    lam = [0.5, 1.3, 1 / 0.65]
    minima = successive_minima(np.diag(lam) @ U.inv().to_array())
    assert minima == pytest.approx(lam, rel=1e-12)
