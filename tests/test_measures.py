"""Wasserstein machinery tests.

Small-support cases are checked against an exhaustive permutation oracle
(every coupling of uniform equal-size supports is a permutation) with frozen
expected values, the 1D quantile path is checked against the assignment path
and the transportation LP, and the network simplex is checked against scipy's
HiGHS on the transportation LP it replaced.  Which path a pair takes is read
off its inputs alone.
"""

from itertools import permutations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.spatial.distance import cdist

from penmfg import measures
from penmfg.errors import PenmfgError
from penmfg.measures import EmpiricalMeasure, MeasureFlow, TimedControlMeasure

RNG = np.random.default_rng(77)


def w2_permutation_oracle(x, y):
    """Exact W2 for uniform equal-size supports by brute force."""
    x = np.atleast_2d(x.T).T if x.ndim == 1 else x
    n = x.shape[0]
    best = min(
        sum(np.sum((x[i] - y[list(p)[i]]) ** 2) for i in range(n))
        for p in permutations(range(n))
    )
    return np.sqrt(best / n)


def em(points, weights=None):
    return EmpiricalMeasure(np.asarray(points, dtype=float), weights)


# ------------------------------------------------------------------ w2 basics


def test_w2_dirac_pair():
    assert measures.w2(em([[0.0]]), em([[1.0]])) == pytest.approx(1.0, abs=1e-14)
    assert measures.w2(em([[0.0, 0.0]]), em([[3.0, 4.0]])) == pytest.approx(5.0)


def test_w2_identity():
    mu = em(RNG.normal(size=(40, 2)))
    assert measures.w2(mu, mu) <= 1e-12


def test_w2_two_point_example_frozen():
    mu, nu = em([0.0, 2.0]), em([1.0, 3.0])
    # identity matching costs (1+1)/2, crossing costs (9+1)/2; frozen optimum 1
    assert w2_permutation_oracle(np.array([[0.0], [2.0]]), np.array([[1.0], [3.0]])) == 1.0
    assert measures.w2(mu, nu) == pytest.approx(1.0, abs=1e-12)


def test_w2_small_supports_match_permutation_oracle():
    for _ in range(25):
        n, d = int(RNG.integers(2, 6)), int(RNG.integers(1, 4))
        x, y = RNG.normal(size=(n, d)), RNG.normal(size=(n, d))
        want = w2_permutation_oracle(x, y)
        got = np.sqrt(measures._assignment_cost2(x, y))
        assert got == pytest.approx(want, abs=1e-10)


def test_w2_quantile_agrees_with_assignment_1d():
    for n in (3, 17, 100, 200):
        x, y = RNG.normal(size=n), 0.5 + 0.8 * RNG.normal(size=n)
        w = np.full(n, 1.0 / n)
        a = np.sqrt(measures._w2sq_quantile(x, w, y, w))
        b = np.sqrt(measures._assignment_cost2(x[:, None], y[:, None]))
        assert abs(a - b) <= 1e-9


def test_w2_1d_sort_path_matches_quantile_coupling_bitwise(monkeypatch):
    """Uniform equal-size 1-D pairs sort each cloud; the bits stay those of
    the quantile coupling, which weighted or unequal-size pairs still take."""
    walls = np.where(RNG.random(400) < 0.5, 0.0, 1.0)
    cases = [
        (np.array([0.3, 0.3, 0.1, 0.3, 0.1]), np.array([0.2, 0.2, 0.2, 0.9, 0.9])),
        (np.array([-0.0, 0.0, 0.0, -0.0, 0.5, -0.0]),
         np.array([0.0, -0.0, 0.25, -0.0, 0.0, 0.0])),
        (walls, np.concatenate([np.zeros(150), RNG.uniform(0.0, 1.0, 100), np.ones(150)])),
        (np.array([0.7]), np.array([-0.2])),
        (np.array([0.0]), np.array([-0.0])),
        (RNG.normal(size=32000), 0.5 + RNG.normal(size=32000)),
    ]
    for x, y in cases:
        n = x.size
        want = measures._w2sq_quantile(x, np.full(n, 1.0 / n), y, np.full(n, 1.0 / n))
        assert measures._w2sq_sorted(x, y) == want
        assert measures.w2(em(x), em(y)) == float(np.sqrt(want))
    taken = []
    quantile = measures._w2sq_quantile
    monkeypatch.setattr(measures, "_w2sq_quantile",
                        lambda *a: taken.append(1) or quantile(*a))
    x, y = RNG.normal(size=6), RNG.normal(size=6)
    measures.w2(em(x), em(y))
    assert taken == []
    measures.w2(em(x, np.full(6, 1.0 / 6)), em(y))  # weights given explicitly
    measures.w2(em(x), em(y[:5]))
    assert taken == [1, 1]


def test_w2_quantile_weighted_vs_lp():
    """Unequal sizes and nonuniform weights, quantile vs transportation LP."""
    for _ in range(5):
        n1, n2 = int(RNG.integers(2, 12)), int(RNG.integers(2, 12))
        x, y = RNG.normal(size=(n1, 1)), RNG.normal(size=(n2, 1))
        w1 = RNG.uniform(0.1, 1.0, n1)
        w2_ = RNG.uniform(0.1, 1.0, n2)
        w1, w2_ = w1 / w1.sum(), w2_ / w2_.sum()
        a = np.sqrt(measures._w2sq_quantile(x[:, 0], w1, y[:, 0], w2_))
        b = np.sqrt(measures._ot_lp(measures._sqdist(x, y), w1, w2_))
        assert abs(a - b) <= 1e-8


def test_w2_metric_axioms():
    pool = [em(RNG.normal(size=(int(RNG.integers(2, 9)), 2))) for _ in range(8)]
    for mu in pool:
        assert measures.w2(mu, mu) <= 1e-12
    for mu in pool:
        for nu in pool:
            assert abs(measures.w2(mu, nu) - measures.w2(nu, mu)) <= 1e-9
    for a in pool[:4]:
        for b in pool[:4]:
            for c in pool[:4]:
                ab, bc, ac = measures.w2(a, b), measures.w2(b, c), measures.w2(a, c)
                assert ac <= ab + bc + 1e-9


def test_w2_scaling():
    x, y = RNG.normal(size=(30, 2)), RNG.normal(size=(30, 2))
    base = measures.w2(em(x), em(y))
    for s in (0.5, 2.0, -3.0):
        assert measures.w2(em(s * x), em(s * y)) == pytest.approx(abs(s) * base, rel=1e-9)


def test_w2_input_picks_the_path(monkeypatch):
    """Dimension, weights and equal sizes choose the path, the support count
    does not: a 201 x 201 cloud pair and a 240 x 240 d_relaxed pair stay on
    the exact paths."""
    taken = []
    for name in ("_w2sq_sorted", "_w2sq_quantile", "_assignment_cost2", "_ot_lp"):
        real = getattr(measures, name)
        monkeypatch.setattr(measures, name,
                            lambda *a, _n=name, _f=real: taken.append(_n) or _f(*a))

    def path(mu, nu, distance=measures.w2):
        taken.clear()
        distance(mu, nu)
        return taken[:]

    x, y = RNG.normal(size=(201, 2)), RNG.normal(size=(201, 2))
    w = random_weights(RNG, 201)
    assert path(em(x[:, :1]), em(y[:, :1])) == ["_w2sq_sorted"]
    assert path(em(x[:, :1], w), em(y[:, :1])) == ["_w2sq_quantile"]
    assert path(em(x[:, :1]), em(y[:200, :1])) == ["_w2sq_quantile"]
    assert path(em(x), em(y)) == ["_assignment_cost2"]  # 201 x 201
    assert path(em(x, w), em(y)) == ["_ot_lp"]
    assert path(em(x), em(y[:200])) == ["_ot_lp"]
    t = np.linspace(0.0, 1.0, 81)
    q1 = TimedControlMeasure(t, [-1.0, 0.0, 1.0], RNG.dirichlet(np.ones(3), 80))
    q2 = TimedControlMeasure(t, [-1.0, 0.0, 1.0], RNG.dirichlet(np.ones(3), 80))
    assert path(q1, q2, measures.d_relaxed) == ["_ot_lp"]  # 240 x 240


def test_w2_dimension_mismatch():
    with pytest.raises(PenmfgError):
        measures.w2(em([[0.0]]), em([[0.0, 1.0]]))


# ------------------------------------------------------------------ measures


def test_empirical_measure_validation():
    with pytest.raises(PenmfgError):
        em([[np.inf]])
    with pytest.raises(PenmfgError):
        em([[0.0], [1.0]], weights=[0.7, 0.7])
    with pytest.raises(PenmfgError):
        em([[0.0], [1.0]], weights=[-0.1, 1.1])
    mu = em([[1.0, 2.0], [3.0, 4.0]], weights=[0.25, 0.75])
    np.testing.assert_allclose(mu.mean, [2.5, 3.5])


def test_empirical_measure_rejects_nan_weights():
    with pytest.raises(PenmfgError):
        em([[0.0], [1.0]], weights=[np.nan, 1.0])


def test_flow_validation_and_w2_flow():
    t = np.linspace(0.0, 1.0, 5)
    states = RNG.normal(size=(5, 20, 1))
    a = measures.flow_from_states(t, states)
    b = measures.flow_from_states(t, states + 0.1 * RNG.normal(size=states.shape))
    per_node = [measures.w2(fa, fb) for fa, fb in zip(a.frames, b.frames)]
    assert measures.w2_flow(a, b) == max(per_node)
    assert measures.w2_flow(a, a) <= 1e-12


def test_w2_flow_end_node_only():
    t = np.linspace(0.0, 1.0, 4)
    states = np.zeros((4, 10, 1))
    shifted = states.copy()
    shifted[-1] += 1.0
    a = measures.flow_from_states(t, states)
    b = measures.flow_from_states(t, shifted)
    assert measures.w2_flow(a, b) == pytest.approx(1.0, abs=1e-12)


def test_flow_grid_mismatch():
    a = measures.flow_from_states(np.linspace(0, 1, 3), np.zeros((3, 4, 1)))
    b = measures.flow_from_states(np.linspace(0, 2, 3), np.zeros((3, 4, 1)))
    with pytest.raises(PenmfgError):
        measures.w2_flow(a, b)
    with pytest.raises(PenmfgError):
        MeasureFlow(np.array([0.0, 0.5, 0.6]), [em([[0.0]])] * 3)


# ---------------------------------------------------------- control measures


def tcm_constant(atoms, weights, cells=10, horizon=1.0):
    t = np.linspace(0.0, horizon, cells + 1)
    w = np.tile(np.asarray(weights, dtype=float), (cells, 1))
    return TimedControlMeasure(t, np.asarray(atoms, dtype=float), w)


def test_d_relaxed_identity_and_dirac_shift():
    q1 = tcm_constant([0.0], [1.0])
    q2 = tcm_constant([0.75], [1.0])
    assert measures.d_relaxed(q1, q1) <= 1e-12
    assert measures.d_relaxed(q1, q2) == pytest.approx(0.75, abs=1e-9)


def test_d_relaxed_mixture_vs_middle():
    # mass 1/2 at -1 and +1 each cell moves distance 1 to reach 0
    q_mix = tcm_constant([-1.0, 1.0], [0.5, 0.5])
    q_mid = tcm_constant([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0])
    assert measures.d_relaxed(q_mix, q_mid) == pytest.approx(1.0, abs=1e-9)


def test_d_relaxed_horizon_mismatch():
    with pytest.raises(PenmfgError):
        measures.d_relaxed(tcm_constant([0.0], [1.0], horizon=1.0),
                           tcm_constant([0.0], [1.0], horizon=2.0))


def test_timed_control_measure_validation():
    t = np.linspace(0, 1, 4)
    with pytest.raises(PenmfgError):
        TimedControlMeasure(t, [0.0, 1.0], np.full((3, 2), 0.4))
    with pytest.raises(PenmfgError):
        TimedControlMeasure(t, [0.0, 1.0], -np.ones((3, 2)) * 0.5)
    q = TimedControlMeasure(t, [0.0, 1.0], np.full((3, 2), 0.5))
    pts, mass = q.support()
    assert pts.shape == (6, 2) and mass.sum() == pytest.approx(1.0)


def test_timed_control_measure_rejects_nan_weights():
    t = np.linspace(0, 1, 4)
    with pytest.raises(PenmfgError):
        TimedControlMeasure(t, [0.0, 1.0], [[np.nan, 1.0], [0.5, 0.5], [0.5, 0.5]])


# -------------------------------------------------------- transportation LP


def lp_reference(cost, w1, w2_):
    """The sparse-constraint HiGHS transportation LP that the simplex replaced."""
    n1, n2 = cost.shape
    row = sp.kron(sp.eye(n1), np.ones((1, n2)), format="csr")
    col = sp.kron(np.ones((1, n1)), sp.eye(n2), format="csr")
    a_eq = sp.vstack([row, col[:-1]], format="csr")
    b_eq = np.concatenate([w1, w2_[:-1]])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.success
    return float(res.fun)


def random_weights(gen, n):
    w = gen.uniform(0.05, 1.0, n)
    return w / w.sum()


def assert_lp_matches_reference(x, w1, y, w2_):
    cost = measures._sqdist(x, y)
    got = measures._ot_lp(cost, w1, w2_)
    assert got == pytest.approx(lp_reference(cost, w1, w2_), rel=1e-12)


def test_sqdist_matches_cdist_bitwise():
    gen = np.random.default_rng(11)
    for d in (1, 2, 3, 9):
        x = gen.normal(size=(31, d)) * 10.0 ** gen.integers(-4, 4, size=(31, d))
        y = gen.normal(size=(17, d))
        np.testing.assert_array_equal(measures._sqdist(x, y).view(np.int64),
                                      cdist(x, y, "sqeuclidean").view(np.int64))


def test_ot_lp_matches_highs_on_random_weighted_pairs():
    gen = np.random.default_rng(12)
    for _ in range(60):
        n1, n2, d = (int(v) for v in gen.integers(1, [41, 41, 4]))
        x, y = gen.normal(size=(n1, d)), gen.normal(size=(n2, d))
        assert_lp_matches_reference(x, random_weights(gen, n1),
                                    y, random_weights(gen, n2))


def test_ot_lp_matches_highs_on_degenerate_pairs():
    gen = np.random.default_rng(13)
    for n, d in ((1, 1), (7, 1), (20, 2), (33, 3)):
        x, y = gen.normal(size=(n, d)), gen.normal(size=(n, d))
        uniform = np.full(n, 1.0 / n)
        assert_lp_matches_reference(x, uniform, y, uniform)
        # duplicated points: a few distinct locations, many ties in the cost
        xd = gen.integers(0, 3, size=(n, d)).astype(float)
        yd = gen.integers(0, 3, size=(n + 5, d)).astype(float)
        assert_lp_matches_reference(xd, uniform, yd, np.full(n + 5, 1.0 / (n + 5)))
        assert_lp_matches_reference(xd, random_weights(gen, n),
                                    yd, random_weights(gen, n + 5))
    for n in (1, 2, 25):  # one-point supports on either side
        x, w = gen.normal(size=(n, 2)), random_weights(gen, n)
        point = gen.normal(size=(1, 2))
        assert_lp_matches_reference(point, np.ones(1), x, w)
        assert_lp_matches_reference(x, w, point, np.ones(1))
    # a zero mass drops its point; the reference keeps it
    w = random_weights(gen, 10)
    w[[0, 4]] = 0.0
    w /= w.sum()
    assert_lp_matches_reference(gen.normal(size=(10, 2)), w,
                                gen.normal(size=(6, 2)), random_weights(gen, 6))


def test_ot_lp_identical_measures_cost_exactly_zero():
    gen = np.random.default_rng(14)
    for n, d in ((1, 1), (9, 1), (30, 2), (40, 3)):
        x = gen.normal(size=(n, d))
        for w in (np.full(n, 1.0 / n), random_weights(gen, n)):
            assert measures._ot_lp(measures._sqdist(x, x), w, w) == 0.0
            assert measures.w2(em(x, w), em(x, w)) == 0.0


@pytest.mark.parametrize("n_small", [48, 50])
def test_d_relaxed_lp_matches_highs_at_the_chatter_shapes(n_small):
    """The chatter study's LPs: 40 time cells, 86 support points for the
    relaxed reference and 48 or 50 for a chattered run's realized control."""
    gen = np.random.default_rng(n_small)
    t = np.linspace(0.0, 0.5, 41)
    atoms = np.array([-1.0, 0.0, 1.0])

    def measure(n_support):
        w = np.zeros((40, 3))
        w[:, 0] = 1.0  # one atom per cell, then spread the rest at random
        extra = gen.choice(40 * 2, n_support - 40, replace=False)
        w[extra // 2, 1 + extra % 2] = gen.uniform(0.1, 1.0, extra.size)
        return TimedControlMeasure(t, atoms, w / w.sum(axis=1, keepdims=True))

    q_ref, q_strict = measure(86), measure(n_small)
    p1, m1 = q_strict.support()
    p2, m2 = q_ref.support()
    assert (p1.shape[0], p2.shape[0]) == (n_small, 86)
    value = measures.d_relaxed(q_strict, q_ref)
    want = lp_reference(cdist(p1, p2, "sqeuclidean"), m1, m2)
    assert value == pytest.approx(np.sqrt(want), rel=1e-12)


def test_d_relaxed_matches_highs_on_a_large_pair():
    """80 cells x 3 atoms a side: 57,600 support pairs, still one exact LP."""
    gen = np.random.default_rng(80)
    t = np.linspace(0.0, 1.0, 81)
    atoms = np.array([-1.0, 0.0, 1.0])
    q1 = TimedControlMeasure(t, atoms, gen.dirichlet(np.ones(3), 80))
    q2 = TimedControlMeasure(t, atoms, gen.dirichlet(np.ones(3), 80))
    p1, m1 = q1.support()
    p2, m2 = q2.support()
    assert (p1.shape[0], p2.shape[0]) == (240, 240)
    want = lp_reference(cdist(p1, p2, "sqeuclidean"), m1, m2)
    assert measures.d_relaxed(q1, q2) == pytest.approx(np.sqrt(want), rel=1e-12)


def test_ot_lp_pivot_cap_raises(monkeypatch):
    gen = np.random.default_rng(15)
    x, y = gen.normal(size=(12, 2)), gen.normal(size=(15, 2))
    w1, w2_ = random_weights(gen, 12), random_weights(gen, 15)
    measures._ot_lp(measures._sqdist(x, y), w1, w2_)
    monkeypatch.setattr(measures, "LP_MAX_PIVOTS", 1)
    with pytest.raises(PenmfgError, match="LP of 12 x 15 points: .* after 1 pivots"):
        measures._ot_lp(measures._sqdist(x, y), w1, w2_)


# ---------------------------------------------------------------- hypothesis


@settings(max_examples=50, deadline=None)
@given(
    xs=st.lists(st.floats(-20.0, 20.0), min_size=2, max_size=8),
    ys=st.lists(st.floats(-20.0, 20.0), min_size=2, max_size=8),
)
def test_w2_1d_hypothesis(xs, ys):
    mu, nu = em(np.array(xs)), em(np.array(ys))
    d12 = measures.w2(mu, nu)
    assert d12 >= 0.0
    assert abs(d12 - measures.w2(nu, mu)) <= 1e-9
    # distance dominated by the farthest-pair bound
    assert d12 <= max(abs(max(xs) - min(ys)), abs(max(ys) - min(xs))) + 1e-9
