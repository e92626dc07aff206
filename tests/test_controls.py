"""Control law tests: index contract, sampling, chattering allocation."""

from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from penmfg import controls, domain, measures, model, rng
from penmfg.config import build_model, build_sim, parse_config_file
from penmfg.controls import (
    RelaxedFeedback,
    StrictFeedback,
    chattered_indices,
    largest_remainder_counts,
    sample_control,
    time_cell,
)
from penmfg.errors import ContractViolationError, PenmfgError
from penmfg.measures import TimedControlMeasure
from penmfg.simulate import simulate

CONFIGS = Path(__file__).parents[1] / "scripts" / "configs"

RNG = np.random.default_rng(11)

LQ = model.make_preset("lq_control", domain.box([-1.0], [1.0]))


def tcm(atoms, weights, cells, horizon=1.0):
    t = np.linspace(0.0, horizon, cells + 1)
    w = np.tile(np.asarray(weights, dtype=float), (cells, 1))
    return TimedControlMeasure(t, np.asarray(atoms, dtype=float), w)


def chatter(q, delta):
    """Chattering schedule of a relaxed control measure: one atom index per cell."""
    return chattered_indices(q.times, q.weights, delta)


def fake_run(times, *, atoms, n, indices=None, law=None):
    """(ms, bundle): a bundle of n particles at zero under ``law``, or under
    the strict law that reads the (steps, n) ``indices`` table by time cell,
    and a model whose control grid is ``atoms``."""
    times = np.asarray(times, float)
    atoms = np.asarray(atoms, float).reshape(len(atoms), -1)
    if law is None:
        law = StrictFeedback(lambda t, x: indices[time_cell(times, t)])
    bundle = SimpleNamespace(times=times, X=np.zeros((times.size, n, 1)),
                             law=law, atoms=atoms)
    return SimpleNamespace(control_grid=lambda: atoms), bundle


# ------------------------------------------------------------------ sampling


def test_strict_feedback_values_and_grid_check():
    # LQ's control grid is -1, 0, 1: a strict law names rows 0..2
    law = StrictFeedback(lambda t, x: np.where(x[:, 0] > 0, 2, 0))
    x = np.array([[0.5], [-0.5], [0.2]])
    idx, w = sample_control(LQ, law, 0.0, x, RNG)
    np.testing.assert_array_equal(idx, [2, 0, 2])
    np.testing.assert_array_equal(LQ.control_grid()[idx], [[1.0], [-1.0], [1.0]])
    assert w is None
    bad = [
        np.zeros((3, 1), dtype=int),  # a column, not (B,)
        np.zeros(2, dtype=int),       # one index short
        np.zeros(3),                  # float values, even if integral
        np.array([0, 1, -1]),         # -1 would wrap to the last row
        np.array([0, 3, 1]),          # nU is one past the last row
    ]
    for out in bad:
        with pytest.raises(ContractViolationError):
            sample_control(LQ, StrictFeedback(lambda t, x, out=out: out), 0.0, x, RNG)


def test_time_cell_lookup():
    times = np.arange(11) * 0.1  # times[3] = 0.30000000000000004
    assert [time_cell(times, t) for t in times[:-1]] == list(range(10))
    assert time_cell(times, 0.3) == 3  # 0.3 / 0.1 = 2.9999999999999996
    assert time_cell(times, 0.35) == 3
    assert time_cell(times, -0.5) == 0
    assert time_cell(times, 1.0) == time_cell(times, 7.0) == 9  # the last cell


def test_relaxed_feedback_sampling_frequencies():
    atoms = np.array([[-1.0], [1.0]])
    law = RelaxedFeedback(lambda t, x: np.tile([0.5, 0.5], (x.shape[0], 1)), atoms)
    x = np.zeros((100_000, 1))
    idx, w = sample_control(LQ, law, 0.0, x, rng.stream(4, rng.CONTROL, 0))
    assert w.shape == (100_000, 2)
    frac = np.mean(idx == 1)
    assert abs(frac - 0.5) <= 0.01  # ~3 binomial sigmas is 0.005
    skew = RelaxedFeedback(lambda t, x: np.tile([0.9, 0.1], (x.shape[0], 1)), atoms)
    idx, _ = sample_control(LQ, skew, 0.0, x, rng.stream(4, rng.CONTROL, 1))
    assert abs(np.mean(idx == 1) - 0.1) <= 0.01


def test_relaxed_open_loop_uses_cell_weights():
    # an open-loop relaxed control is a feedback that ignores the state
    q = TimedControlMeasure(
        np.array([0.0, 0.5, 1.0]), [[-1.0], [1.0]], [[1.0, 0.0], [0.0, 1.0]]
    )
    law = RelaxedFeedback(
        lambda t, x: np.tile(q.weights[time_cell(q.times, t)], (x.shape[0], 1)),
        q.atoms)
    x = np.zeros((50, 1))
    idx, w = sample_control(LQ, law, 0.0, x, RNG)
    assert np.all(idx == 0) and np.all(w[:, 0] == 1.0)
    idx, _ = sample_control(LQ, law, 0.6, x, RNG)
    assert np.all(idx == 1)


def test_relaxed_feedback_weight_contract():
    bad = RelaxedFeedback(lambda t, x: np.tile([0.7, 0.7], (x.shape[0], 1)),
                          np.array([[-1.0], [1.0]]))
    with pytest.raises(ContractViolationError):
        sample_control(LQ, bad, 0.0, np.zeros((3, 1)), RNG)


def test_relaxed_feedback_nan_weight_breaks_the_contract():
    law = RelaxedFeedback(lambda t, x: np.tile([np.nan, 0.5, 0.5], (x.shape[0], 1)),
                          np.array([[-1.0], [0.0], [1.0]]))
    with pytest.raises(ContractViolationError):
        sample_control(LQ, law, 0.0, np.zeros((3, 1)), RNG)


def sample_rows_reference(weights, gen):
    """The cumsum/compare-sum sampler that the column-wise one replaced."""
    cum = np.cumsum(weights, axis=1)
    r = gen.random((weights.shape[0], 1)) * cum[:, -1:]
    return np.minimum(np.sum(cum < r, axis=1), weights.shape[1] - 1)


@pytest.mark.parametrize("n_u", [1, 2, 3, 9])
def test_sample_rows_matches_cumsum_reference(n_u):
    gen = np.random.default_rng(n_u)
    w = gen.dirichlet(np.ones(n_u), size=(6, 500))
    if n_u > 1:
        w[1, np.arange(500), gen.integers(0, n_u, 500)] = 0.0  # a zero-weight atom
        w[2, :, 1:] = 0.0                                      # all mass on atom 0
        w[3, :, :-1] = 0.0                                     # all on the last
        w[1:4] /= w[1:4].sum(axis=2, keepdims=True)
    w[4] *= 1.0 + 1e-10                                    # row sums 1 +- 1e-10
    w[5] *= 1.0 - 1e-10
    w = w.reshape(-1, n_u)
    sums = controls._running_sums(w)
    for got, want in zip(sums, np.cumsum(w, axis=1).T):
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    if n_u < 8:  # numpy adds short rows left to right as well
        np.testing.assert_array_equal(sums[-1], w.sum(axis=1))
    # all-zero rows tie every running sum with the draw: strict < keeps atom 0
    degenerate = np.vstack([w, np.zeros((3, n_u))])
    got = controls._sample_rows(degenerate, rng.stream(6, rng.CONTROL, 2))
    assert got.dtype == np.intp and np.all(got[-3:] == 0)
    np.testing.assert_array_equal(
        got, sample_rows_reference(degenerate, rng.stream(6, rng.CONTROL, 2)))
    want = got[:len(w)]
    law = RelaxedFeedback(lambda t, x: w, np.arange(n_u, dtype=float))
    idx, weights = sample_control(LQ, law, 0.0, np.zeros((len(w), 1)),
                                  rng.stream(6, rng.CONTROL, 2))
    np.testing.assert_array_equal(idx, want)
    # the weights handed out are the rows divided by their running-sum totals
    np.testing.assert_array_equal(weights, w / sums[-1][:, None])


@pytest.mark.parametrize("n_u", [1, 3])
def test_row_sum_off_by_1e8_still_breaks_the_contract(n_u):
    w = np.full((4, n_u), 1.0 / n_u)
    w[2] *= 1.0 + 1e-8
    law = RelaxedFeedback(lambda t, x: w, np.arange(n_u, dtype=float))
    with pytest.raises(ContractViolationError):
        sample_control(LQ, law, 0.0, np.zeros((4, 1)), RNG)
    w[2] = 1.0 / n_u * (1.0 - 1e-8)
    with pytest.raises(ContractViolationError):
        sample_control(LQ, law, 0.0, np.zeros((4, 1)), RNG)


def test_near_probability_rows_are_normalized_for_every_reader():
    """Rows within 1e-9 of one pass the law's contract; the realized control
    measure, which demands 1e-12, must accept the run they drive."""
    cfg = parse_config_file(CONFIGS / "lq_box_chatter.cfg")
    ms = build_model(cfg)
    law = RelaxedFeedback(lambda t, x: np.tile([0.2, 0.3, 0.5 + 1e-10], (len(x), 1)),
                          ms.control_grid())
    paths, _ = simulate(ms, replace(build_sim(cfg), n_particles=40), law)
    q = controls.realized_control_measure(ms, paths)
    assert np.max(np.abs(q.weights.sum(axis=1) - 1.0)) <= 1e-15
    w = controls.relaxed_weights(law, 0.0, paths.X[0])
    np.testing.assert_array_equal(w, np.tile([0.2, 0.3, 0.5 + 1e-10], (40, 1))
                                  / (0.2 + 0.3 + (0.5 + 1e-10)))
    exact = RelaxedFeedback(lambda t, x: np.tile([0.25, 0.25, 0.5], (len(x), 1)),
                            ms.control_grid())
    assert controls.relaxed_weights(exact, 0.0, paths.X[0]).tobytes() == \
        np.tile([0.25, 0.25, 0.5], (40, 1)).tobytes()


# ---------------------------------------------------------------- chattering


def test_chattering_dirac_is_constant():
    q = tcm([[0.0], [1.0]], [1.0, 0.0], cells=10)
    assert np.all(chatter(q, 0.2) == 0)


def test_chattering_half_half_block_pattern():
    # four cells per block, equal weights: two cells each, atom order fixed
    q = tcm([[-1.0], [1.0]], [0.5, 0.5], cells=8, horizon=0.4)
    np.testing.assert_array_equal(chatter(q, 0.2), [0, 0, 1, 1, 0, 0, 1, 1])


def test_chattering_tie_break_prefers_lower_atom():
    q = tcm([[-1.0], [1.0]], [0.5, 0.5], cells=3, horizon=0.3)
    assert np.all(chatter(q, 0.1) == 0)  # one cell per block, tie every block


def test_chattering_occupation_within_one_cell():
    gen = np.random.default_rng(5)
    cells, n_atoms = 30, 4
    t = np.linspace(0.0, 1.5, cells + 1)
    w = gen.dirichlet(np.ones(n_atoms), size=cells)
    q = TimedControlMeasure(t, np.arange(n_atoms, dtype=float), w)
    delta = 0.25  # five cells per block
    sched = chatter(q, delta)
    dt = t[1] - t[0]
    for start in range(0, cells, 5):
        stop = min(start + 5, cells)
        w_bar = w[start:stop].mean(axis=0)
        occupancy = np.bincount(sched[start:stop], minlength=n_atoms) * dt
        assert np.all(np.abs(occupancy - (stop - start) * dt * w_bar) < dt + 1e-12)


def test_chattering_distance_shrinks_with_delta():
    q = tcm([[-1.0], [1.0]], [0.5, 0.5], cells=80)
    dists = []
    for delta in (0.2, 0.1, 0.05, 0.025):
        onehot = np.eye(2)[chatter(q, delta)]
        dists.append(measures.d_relaxed(TimedControlMeasure(q.times, q.atoms, onehot), q))
    assert all(a > b for a, b in zip(dists, dists[1:]))
    assert dists[-1] <= 0.5 * dists[0]
    assert dists[-1] > 0.0


def test_chattering_rejects_bad_periods():
    q = tcm([[0.0]], [1.0], cells=10)
    with pytest.raises(PenmfgError):
        chatter(q, 0.05)  # below dt
    with pytest.raises(PenmfgError):
        chatter(q, 0.15)  # not a multiple of dt


def test_chattered_feedback_law():
    # a per-node table: node 0 holds a pure atom, node 1 an even mixture
    times = np.linspace(0.0, 1.0, 21)
    table = np.tile([[1.0, 0.0], [0.5, 0.5]], (20, 1, 1))
    idx = chattered_indices(times, table, 0.2)
    assert idx.shape == (20, 2)
    assert np.all(idx[:, 0] == 0)  # pure atom stays put
    # mixed node alternates with equal occupation inside each 4-cell block
    assert np.sum(idx[:, 1] == 0) == np.sum(idx[:, 1] == 1) == 10
    np.testing.assert_array_equal(idx[:4, 1], [0, 0, 1, 1])


def test_chattered_open_loop_matches_schedule():
    # each node of a batched table is chattered exactly as its own measure
    gen = np.random.default_rng(9)
    cells, n_nodes = 30, 5
    t = np.linspace(0.0, 1.5, cells + 1)
    table = gen.dirichlet(np.ones(3), size=(cells, n_nodes))
    for delta in (0.05, 0.25, 0.35):  # the last leaves a partial final block
        idx = chattered_indices(t, table, delta)
        for node in range(n_nodes):
            q = TimedControlMeasure(t, np.arange(3.0), table[:, node])
            np.testing.assert_array_equal(idx[:, node], chatter(q, delta))
    q = tcm([[-1.0], [1.0]], [0.25, 0.75], cells=8, horizon=0.4)
    np.testing.assert_array_equal(chatter(q, 0.2), [0, 1, 1, 1, 0, 1, 1, 1])


def test_largest_remainder_exact_quotas():
    counts = largest_remainder_counts(np.array([2.0, 1.0, 1.0]), 4)
    np.testing.assert_array_equal(counts, [2, 1, 1])
    counts = largest_remainder_counts(np.array([[1.6, 1.4], [0.2, 2.8]]), 3)
    np.testing.assert_array_equal(counts, [[2, 1], [0, 3]])


# ------------------------------------------------------- realized measure


def test_realized_control_measure_from_strict_bundle():
    times = np.array([0.0, 0.5, 1.0])
    idx = np.array([[1] * 4, [0, 0, 1, 1]])
    q = controls.realized_control_measure(
        *fake_run(times, indices=idx, atoms=[-1.0, 1.0], n=4))
    np.testing.assert_allclose(q.weights, [[0.0, 1.0], [0.5, 0.5]])


def test_realized_control_measure_counts_equal_one_hot_mean():
    gen = np.random.default_rng(3)
    n_u, steps, n = 5, 6, 997  # 997 particles: no count / n is a short binary
    idx = gen.integers(0, n_u, size=(steps, n), dtype=np.uint8)
    idx[2][idx[2] == 3] = 1  # atom 3 is never chosen at step 2
    idx[4] = 0  # every particle on one atom
    one_hot = np.zeros((steps, n, n_u))
    np.put_along_axis(one_hot, idx[:, :, None], 1.0, axis=2)
    atoms = np.linspace(-1.0, 1.0, n_u)
    times = np.linspace(0.0, 1.0, steps + 1)
    from_counts = controls.realized_control_measure(
        *fake_run(times, indices=idx, atoms=atoms, n=n)).weights
    # the same one-hot mixtures as a relaxed law, re-evaluated step by step
    law = RelaxedFeedback(lambda t, x: one_hot[time_cell(times, t)], atoms)
    from_weights = controls.realized_control_measure(
        *fake_run(times, law=law, atoms=atoms, n=n)).weights
    assert from_counts[2, 3] == 0.0
    assert from_counts.tobytes() == one_hot.mean(axis=1).tobytes()
    assert from_counts.tobytes() == from_weights.tobytes()
