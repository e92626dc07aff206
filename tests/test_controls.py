"""Control law tests: sampling, chattering allocation, Markovian projection."""

from types import SimpleNamespace

import numpy as np
import pytest

from penmfg import controls, domain, measures, model, rng
from penmfg.controls import (
    BinSpec,
    RelaxedFeedback,
    RelaxedOpenLoop,
    StrictFeedback,
    chattered_indices,
    chattering,
    largest_remainder_counts,
    markovian_projection,
    sample_control,
)
from penmfg.errors import ContractViolationError, PenmfgError
from penmfg.measures import TimedControlMeasure

RNG = np.random.default_rng(11)

LQ = model.make_preset("lq_control", domain.box([-1.0], [1.0]))


def tcm(atoms, weights, cells, horizon=1.0):
    t = np.linspace(0.0, horizon, cells + 1)
    w = np.tile(np.asarray(weights, dtype=float), (cells, 1))
    return TimedControlMeasure(t, np.asarray(atoms, dtype=float), w)


def fake_bundle(times, states, *, weights=None, values=None, atoms=None):
    ctrl = SimpleNamespace(weights=weights, values=values,
                           atoms=None if atoms is None else np.asarray(atoms, float))
    if ctrl.atoms is not None and ctrl.atoms.ndim == 1:
        ctrl.atoms = ctrl.atoms[:, None]
    return SimpleNamespace(times=np.asarray(times, float),
                           X=np.asarray(states, float), ctrl=ctrl)


# ------------------------------------------------------------------ sampling


def test_strict_feedback_values_and_grid_check():
    law = StrictFeedback(lambda t, x: np.where(x > 0, 1.0, -1.0))
    x = np.array([[0.5], [-0.5], [0.2]])
    u, w = sample_control(LQ, law, 0.0, x, RNG)
    np.testing.assert_array_equal(u, [[1.0], [-1.0], [1.0]])
    assert w is None
    off_grid = StrictFeedback(lambda t, x: np.full_like(x, 0.37))
    with pytest.raises(ContractViolationError):
        sample_control(LQ, off_grid, 0.0, x, RNG)


def test_relaxed_feedback_sampling_frequencies():
    atoms = np.array([[-1.0], [1.0]])
    law = RelaxedFeedback(lambda t, x: np.tile([0.5, 0.5], (x.shape[0], 1)), atoms)
    x = np.zeros((100_000, 1))
    u, w = sample_control(LQ, law, 0.0, x, rng.stream(4, rng.CONTROL, 0))
    assert w.shape == (100_000, 2)
    frac = np.mean(u[:, 0] > 0)
    assert abs(frac - 0.5) <= 0.01  # ~3 binomial sigmas is 0.005
    skew = RelaxedFeedback(lambda t, x: np.tile([0.9, 0.1], (x.shape[0], 1)), atoms)
    u, _ = sample_control(LQ, skew, 0.0, x, rng.stream(4, rng.CONTROL, 1))
    assert abs(np.mean(u[:, 0] > 0) - 0.1) <= 0.01


def test_relaxed_open_loop_uses_cell_weights():
    q = TimedControlMeasure(
        np.array([0.0, 0.5, 1.0]), [[-1.0], [1.0]], [[1.0, 0.0], [0.0, 1.0]]
    )
    law = RelaxedOpenLoop(q)
    x = np.zeros((50, 1))
    u, w = sample_control(LQ, law, 0.0, x, RNG)
    assert np.all(u == -1.0) and np.all(w[:, 0] == 1.0)
    u, _ = sample_control(LQ, law, 0.6, x, RNG)
    assert np.all(u == 1.0)


def test_relaxed_feedback_weight_contract():
    bad = RelaxedFeedback(lambda t, x: np.tile([0.7, 0.7], (x.shape[0], 1)),
                          np.array([[-1.0], [1.0]]))
    with pytest.raises(ContractViolationError):
        sample_control(LQ, bad, 0.0, np.zeros((3, 1)), RNG)


# ---------------------------------------------------------------- chattering


def test_chattering_dirac_is_constant():
    q = tcm([[0.0], [1.0]], [1.0, 0.0], cells=10)
    sched = chattering(q, 0.2)
    assert np.all(sched.indices == 0)
    np.testing.assert_array_equal(sched.value_at(0.37), [0.0])


def test_chattering_half_half_block_pattern():
    # four cells per block, equal weights: two cells each, atom order fixed
    q = tcm([[-1.0], [1.0]], [0.5, 0.5], cells=8, horizon=0.4)
    sched = chattering(q, 0.2)
    np.testing.assert_array_equal(sched.indices, [0, 0, 1, 1, 0, 0, 1, 1])
    np.testing.assert_array_equal(sched.value_at(0.0), [-1.0])
    np.testing.assert_array_equal(sched.value_at(0.11), [1.0])


def test_chattering_tie_break_prefers_lower_atom():
    q = tcm([[-1.0], [1.0]], [0.5, 0.5], cells=3, horizon=0.3)
    sched = chattering(q, 0.1)  # one cell per block, tie every block
    assert np.all(sched.indices == 0)


def test_chattering_occupation_within_one_cell():
    gen = np.random.default_rng(5)
    cells, n_atoms = 30, 4
    t = np.linspace(0.0, 1.5, cells + 1)
    w = gen.dirichlet(np.ones(n_atoms), size=cells)
    q = TimedControlMeasure(t, np.arange(n_atoms, dtype=float), w)
    delta = 0.25  # five cells per block
    sched = chattering(q, delta)
    dt = t[1] - t[0]
    for start in range(0, cells, 5):
        stop = min(start + 5, cells)
        w_bar = w[start:stop].mean(axis=0)
        occupancy = np.bincount(sched.indices[start:stop], minlength=n_atoms) * dt
        assert np.all(np.abs(occupancy - (stop - start) * dt * w_bar) < dt + 1e-12)


def test_chattering_distance_shrinks_with_delta():
    q = tcm([[-1.0], [1.0]], [0.5, 0.5], cells=80)
    dists = []
    for delta in (0.2, 0.1, 0.05, 0.025):
        sched = chattering(q, delta)
        dists.append(measures.d_relaxed(sched.as_timed_measure(), q))
    assert all(a > b for a, b in zip(dists, dists[1:]))
    assert dists[-1] <= 0.5 * dists[0]
    assert dists[-1] > 0.0


def test_chattering_rejects_bad_periods():
    q = tcm([[0.0]], [1.0], cells=10)
    with pytest.raises(PenmfgError):
        chattering(q, 0.05)  # below dt
    with pytest.raises(PenmfgError):
        chattering(q, 0.15)  # not a multiple of dt


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
            np.testing.assert_array_equal(idx[:, node], chattering(q, delta).indices)
    q = tcm([[-1.0], [1.0]], [0.25, 0.75], cells=8, horizon=0.4)
    sched = chattering(q, 0.2)
    for t_ in (0.0, 0.07, 0.22, 0.39):
        u, _ = sample_control(LQ, sched, t_, np.zeros((3, 1)), RNG)
        np.testing.assert_array_equal(u, np.tile(sched.value_at(t_), (3, 1)))


def test_largest_remainder_exact_quotas():
    counts = largest_remainder_counts(np.array([2.0, 1.0, 1.0]), 4)
    np.testing.assert_array_equal(counts, [2, 1, 1])
    counts = largest_remainder_counts(np.array([[1.6, 1.4], [0.2, 2.8]]), 3)
    np.testing.assert_array_equal(counts, [[2, 1], [0, 3]])


# ------------------------------------------------------------- projection


def test_projection_recovers_strict_markov_law():
    times = np.linspace(0.0, 1.0, 3)
    gen = np.random.default_rng(2)
    states = gen.uniform(-1.0, 1.0, size=(3, 40, 1))
    states[np.abs(states) < 0.05] = 0.5  # keep clear of the bin seam at 0
    values = np.where(states[:2] > 0, 1.0, -1.0)
    b = fake_bundle(times, states, values=values, atoms=[-1.0, 1.0])
    law = markovian_projection(b, BinSpec(n_bins=2, lower=(-1.0,), upper=(1.0,)))
    w = law.fn(0.0, np.array([[-0.7], [0.3]]))
    np.testing.assert_allclose(w, [[1.0, 0.0], [0.0, 1.0]], atol=1e-12)


def test_projection_hand_computed_fixture():
    times = np.array([0.0, 1.0])
    x = np.array([[0.5]] * 4 + [[1.5]] * 6)
    w = np.array([[1, 0], [0, 1], [1, 0], [0.5, 0.5]] + [[0, 1]] * 6, dtype=float)
    b = fake_bundle(times, x[None, :, :].repeat(2, axis=0),
                    weights=w[None, :, :], atoms=[0.0, 1.0])
    law = markovian_projection(b, BinSpec(n_bins=2, lower=(0.0,), upper=(2.0,)))
    np.testing.assert_allclose(law.tables[0, 0], [2.5 / 4, 1.5 / 4])
    np.testing.assert_allclose(law.tables[0, 1], [0.0, 1.0])


def test_projection_preserves_mass_and_fills_empty_bins():
    times = np.array([0.0, 0.5])
    x = np.concatenate([np.full((5, 1), -0.9), np.full((5, 1), 0.9)])
    w = np.concatenate([np.tile([0.8, 0.2], (5, 1)), np.tile([0.1, 0.9], (5, 1))])
    b = fake_bundle(times, x[None].repeat(2, 0), weights=w[None],
                    atoms=[-1.0, 1.0])
    law = markovian_projection(b, BinSpec(n_bins=8, lower=(-1.0,), upper=(1.0,)))
    assert np.max(np.abs(law.tables.sum(axis=2) - 1.0)) <= 1e-12
    # middle bins inherit their nearest populated neighbor
    left = law.fn(0.0, np.array([[-0.3]]))
    right = law.fn(0.0, np.array([[0.3]]))
    np.testing.assert_allclose(left, [[0.8, 0.2]])
    np.testing.assert_allclose(right, [[0.1, 0.9]])


def test_projection_rejects_high_dimension_and_off_grid_values():
    times = np.array([0.0, 1.0])
    x3 = np.zeros((2, 4, 3))
    b = fake_bundle(times, x3, weights=np.full((1, 4, 1), 1.0), atoms=[0.0])
    with pytest.raises(PenmfgError):
        markovian_projection(b)
    x1 = np.zeros((2, 4, 1))
    b = fake_bundle(times, x1, values=np.full((1, 4, 1), 0.37), atoms=[0.0, 1.0])
    with pytest.raises(ContractViolationError):
        markovian_projection(b)


def test_realized_control_measure_from_strict_bundle():
    times = np.array([0.0, 0.5, 1.0])
    x = np.zeros((3, 4, 1))
    vals = np.array([[[1.0]] * 4, [[-1.0]] * 2 + [[1.0]] * 2])
    b = fake_bundle(times, x, values=vals, atoms=[-1.0, 1.0])
    q = controls.realized_control_measure(b)
    np.testing.assert_allclose(q.weights, [[0.0, 1.0], [0.5, 0.5]])
