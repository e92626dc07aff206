"""Control law tests: index contract, sampling, chattering allocation."""

from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from penmfg import controls, domain, measures, model, rng
from penmfg.config import build_model, build_sim, parse_config_file
from penmfg.controls import (
    NodeTable,
    chattered_indices,
    constant_law,
    largest_remainder_counts,
    sample_control,
    time_cell,
)
from penmfg.dp import DPGrid
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


def tabulated_law(ms, dt, fn, hx=0.1):
    """The node table of fn(t, x), atom indices (B,) or weights (B, nU) into
    ms's control grid, read at each time cell's left end and each node of a
    DPGrid with spacing hx over ms's box."""
    times = np.arange(int(round(ms.horizon / dt)) + 1) * dt
    grid = DPGrid.for_model(ms, hx)
    return NodeTable(times, grid, np.stack([fn(t, grid.nodes()) for t in times[:-1]]),
                     ms.atoms)


def open_loop(times, weights, atoms):
    """The relaxed open-loop law of a (cells, nU) weight table."""
    return NodeTable(np.asarray(times, float), None,
                     np.asarray(weights, float)[:, None, :], np.asarray(atoms, float))


def per_particle_law(times, table, atoms):
    """(law, x): a node table over a 1-D grid with one node per particle, and
    the B particles of a (cells, B) or (cells, B, nU) table, each on its own
    node, so particle i reads column i."""
    n = np.shape(table)[1]
    grid = DPGrid.regular([0.0], [float(max(n - 1, 1))], 1.0)
    if n == 1:  # a one-node grid is not regular: pad a node no particle reads
        table = np.concatenate([table, table], axis=1)
    atoms = np.asarray(atoms, float).reshape(len(atoms), -1)
    law = NodeTable(np.asarray(times, float), grid, table, atoms)
    return law, np.arange(n, dtype=float)[:, None]


def realized_control_measure(paths) -> TimedControlMeasure:
    """The reference reader of a run's realized control measure.

    Each step's control mass is re-read at its states (`sample_control`
    without a generator): strict atoms counted, which is the mean of their
    point masses bit for bit, and relaxed weights averaged.  A run sums the
    same masses as it steps (``Run.controls``).
    """
    w = [sample_control(paths.law, t, x, None).mass
         for t, x in zip(paths.times[:-1], paths.X)]
    return TimedControlMeasure(paths.times, paths.law.atoms, np.stack(w))


def fake_run(times, table, *, atoms):
    """A bundle whose particles stand still, each on its own node of a law
    that reads the (steps, n) indices or (steps, n, nU) weights ``table``."""
    times = np.asarray(times, float)
    law, x = per_particle_law(times, table, atoms)
    return SimpleNamespace(times=times, X=np.tile(x, (times.size, 1, 1)), law=law)


# ------------------------------------------------------------------ sampling


def test_strict_table_values_and_mass():
    # LQ's control grid is -1, 0, 1: a strict law names rows 0..2
    law = tabulated_law(LQ, 0.5, lambda t, x: np.where(x[:, 0] > 0, 2, 0), hx=0.5)
    x = np.array([[0.5], [-0.5], [0.7]])
    c = sample_control(law, 0.0, x, RNG)
    np.testing.assert_array_equal(c.u, [[1.0], [-1.0], [1.0]])
    assert c.weights is None
    np.testing.assert_array_equal(c.mass, [1 / 3, 0.0, 2 / 3])


def test_a_law_that_is_not_a_node_table_is_refused():
    fn = lambda t, x: np.zeros(x.shape[0], dtype=int)  # noqa: E731
    for law in (fn, SimpleNamespace(times=np.array([0.0, 1.0]), grid=None,
                                    table=np.zeros((1, 1), dtype=int),
                                    atoms=np.zeros((1, 1)), relaxed=False)):
        with pytest.raises(PenmfgError, match="unknown control law"):
            sample_control(law, 0.0, np.zeros((3, 1)), RNG)


def test_time_cell_lookup():
    times = np.arange(11) * 0.1  # times[3] = 0.30000000000000004
    assert [time_cell(times, t) for t in times[:-1]] == list(range(10))
    assert time_cell(times, 0.3) == 3  # 0.3 / 0.1 = 2.9999999999999996
    assert time_cell(times, 0.35) == 3
    assert time_cell(times, -0.5) == 0
    assert time_cell(times, 1.0) == time_cell(times, 7.0) == 9  # the last cell


def test_time_cell_matches_the_array_formula():
    """The scalar clamp gives the cell of the numpy formula it replaced on a
    dense sweep of t: every node, the nodes one ulp either side, and times
    outside the grid."""
    def array_formula(times, t):
        dt = float(times[1] - times[0])
        return int(np.clip(np.floor((t - times[0]) / dt + 1e-9), 0, times.size - 2))

    for times in (np.arange(11) * 0.1, np.linspace(0.0, 0.25, 11),
                  np.linspace(0.0, 1.0, 1001), np.linspace(-0.5, 2.0, 41)):
        span = times[-1] - times[0]
        sweep = np.concatenate([
            times, np.nextafter(times, -np.inf), np.nextafter(times, np.inf),
            np.linspace(times[0] - span, times[-1] + span, 20_001),
            [-np.inf, -1e300, 1e300, np.inf]])
        assert [time_cell(times, t) for t in sweep] == [
            array_formula(times, t) for t in sweep]


def test_relaxed_table_sampling_frequencies():
    atoms = np.array([[-1.0], [1.0]])
    law = open_loop([0.0, 1.0], [[0.5, 0.5]], atoms)
    x = np.zeros((100_000, 1))
    c = sample_control(law, 0.0, x, rng.stream(4, rng.CONTROL, 0))
    assert c.weights.shape == (100_000, 2)
    frac = np.mean(c.u[:, 0] == 1.0)
    assert abs(frac - 0.5) <= 0.01  # ~3 binomial sigmas is 0.005
    skew = open_loop([0.0, 1.0], [[0.9, 0.1]], atoms)
    u = sample_control(skew, 0.0, x, rng.stream(4, rng.CONTROL, 1)).u
    assert abs(np.mean(u[:, 0] == 1.0) - 0.1) <= 0.01
    # without a generator a relaxed law hands out its weights and no atoms
    c = sample_control(skew, 0.0, x[:3], None)
    assert c.u is None and np.allclose(c.mass, [0.9, 0.1])


def test_relaxed_open_loop_uses_cell_weights():
    # an open-loop relaxed control is a table with one node per time cell
    q = TimedControlMeasure(
        np.array([0.0, 0.5, 1.0]), [[-1.0], [1.0]], [[1.0, 0.0], [0.0, 1.0]]
    )
    law = open_loop(q.times, q.weights, q.atoms)
    x = np.zeros((50, 1))
    c = sample_control(law, 0.0, x, RNG)
    assert np.all(c.u == -1.0) and np.all(c.weights[:, 0] == 1.0)
    assert np.all(sample_control(law, 0.6, x, RNG).u == 1.0)


def test_open_loop_table_contract():
    """An open-loop table is (M, 1) indices or (M, 1, nU) weights; its rows
    are stored normalized, and other shapes or non-probabilities are refused."""
    times, atoms = np.linspace(0.0, 1.0, 5), np.array([[-1.0], [0.0], [1.0]])
    strict = NodeTable(times, None, np.array([[0], [2], [1], [2]]), atoms)
    assert not strict.relaxed and strict.table.shape == (4, 1)
    x = np.linspace(-5.0, 5.0, 7)[:, None]  # every state reads the one node
    for k, t in enumerate(times[:-1]):
        c = sample_control(strict, t, x, None)
        assert np.all(c.u == atoms[strict.table[k, 0]])
        assert c.mass.tolist() == np.eye(3)[strict.table[k, 0]].tolist()
    row = [0.2, 0.3, 0.5 + 1e-10]
    relaxed = NodeTable(times, None, np.tile(row, (4, 1, 1)), atoms)
    assert relaxed.relaxed and relaxed.table.shape == (4, 1, 3)
    want = np.array(row) / (0.2 + 0.3 + (0.5 + 1e-10))
    assert relaxed.table.tobytes() == np.tile(want, (4, 1, 1)).tobytes()
    bad = {"no node axis": np.zeros(4, dtype=int),
           "two nodes": np.zeros((4, 2), dtype=int),
           "weights without a node axis": np.full((4, 3), 1.0 / 3.0),
           "one cell short": np.zeros((3, 1), dtype=int),
           "index >= nU": np.full((4, 1), 3), "row sum 1.4": np.full((4, 1, 2), 0.7),
           "NaN weight": np.tile([np.nan, 0.5, 0.5], (4, 1, 1))}
    for name, table in bad.items():
        with pytest.raises(ContractViolationError):
            NodeTable(times, None, table, atoms[:2] if name == "row sum 1.4" else atoms)
            pytest.fail(name)


def test_constant_law_holds_the_first_atom_at_every_time():
    atoms = np.array([[0.5, -1.0], [2.0, 3.0]])
    law = constant_law(atoms)
    assert law.grid is None and not law.relaxed and law.table.shape == (1, 1)
    x = np.random.default_rng(2).normal(size=(9, 2)) * 1e3
    for t in (-1.0, 0.0, 0.4, 1.0, 250.0):  # one cell, clamped from every t
        c = sample_control(law, t, x, None)
        assert c.u.tolist() == [[0.5, -1.0]] * 9 and c.mass.tolist() == [1.0, 0.0]


@pytest.mark.parametrize("n_u", [1, 2, 3, 5, 8, 9, 16])
def test_relaxed_mass_has_the_bits_of_the_mean_of_its_weights(n_u):
    """The sampler's control mass is, bit for bit, ``w.mean(axis=0)`` of the
    weight rows it hands out."""
    gen = np.random.default_rng(n_u)
    for n in (1, 2, 7, 100, 2000, 32000, 100001):
        law, x = per_particle_law([0.0, 1.0], gen.dirichlet(np.ones(n_u), (1, n)),
                                  np.arange(n_u))
        c = sample_control(law, 0.0, x, None)
        assert c.weights.shape == (n, n_u)
        assert c.mass.tobytes() == c.weights.mean(axis=0).tobytes(), n


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
    law, x = per_particle_law([0.0, 1.0], w[None], np.arange(n_u))
    c = sample_control(law, 0.0, x, rng.stream(6, rng.CONTROL, 2))
    np.testing.assert_array_equal(c.u[:, 0], want)  # atom j is the value j
    # the weights handed out are the rows divided by their running-sum totals
    np.testing.assert_array_equal(c.weights, w / sums[-1][:, None])


@pytest.mark.parametrize("n_u", [1, 3])
def test_row_sum_off_by_1e8_still_breaks_the_contract(n_u):
    w = np.full((4, n_u), 1.0 / n_u)
    w[2] *= 1.0 + 1e-8
    with pytest.raises(ContractViolationError):
        per_particle_law([0.0, 1.0], w[None], np.arange(n_u))
    w[2] = 1.0 / n_u * (1.0 - 1e-8)
    with pytest.raises(ContractViolationError):
        per_particle_law([0.0, 1.0], w[None], np.arange(n_u))


def test_near_probability_rows_are_normalized_for_every_reader():
    """Rows within 1e-9 of one pass the law's contract; the realized control
    measure, which demands 1e-12, must accept the run they drive."""
    cfg = parse_config_file(CONFIGS / "lq_box_chatter.cfg")
    ms = build_model(cfg)
    law = open_loop([0.0, 1.0], [[0.2, 0.3, 0.5 + 1e-10]], ms.atoms)
    paths, _ = simulate(ms, replace(build_sim(cfg), n_particles=40), law)
    q = realized_control_measure(paths)
    assert np.max(np.abs(q.weights.sum(axis=1) - 1.0)) <= 1e-15
    w = sample_control(law, 0.0, paths.X[0], None).weights
    np.testing.assert_array_equal(w, np.tile([0.2, 0.3, 0.5 + 1e-10], (40, 1))
                                  / (0.2 + 0.3 + (0.5 + 1e-10)))
    exact = open_loop([0.0, 1.0], [[0.25, 0.25, 0.5]], ms.atoms)
    assert sample_control(exact, 0.0, paths.X[0], None).weights.tobytes() == \
        np.tile([0.25, 0.25, 0.5], (40, 1)).tobytes()


# --------------------------------------------------------------- node tables


def node_table(table):
    """A node table over 5 time cells, the 11 nodes of [0, 1] and 3 atoms."""
    return NodeTable(np.linspace(0.0, 0.5, 6), DPGrid.regular([0.0], [1.0], 0.1),
                     table, np.array([[-1.0], [0.0], [1.0]]))


def test_node_table_contract_is_checked_when_built():
    strict = np.tile(np.arange(11) % 3, (5, 1))
    relaxed = np.full((5, 11, 3), 1.0 / 3.0)
    assert not node_table(strict).relaxed and node_table(relaxed).relaxed
    bad = {"index >= nU": strict.copy(), "negative index": strict.copy(),
           "float indices": strict * 1.0, "negative weight": relaxed.copy(),
           "row sum + 2e-9": relaxed.copy(), "NaN weight": relaxed.copy(),
           "too few times": strict[:4], "too few nodes": strict[:, :10],
           "too few atoms": relaxed[:, :, :2], "flat": strict.ravel()}
    bad["index >= nU"][2, 4] = 3
    bad["negative index"][0, 0] = -1
    bad["negative weight"][1, 2] = [1.5, -0.5, 0.0]
    bad["row sum + 2e-9"][3, 7, 0] += 2e-9
    bad["NaN weight"][4, 10, 1] = np.nan
    for name, table in bad.items():
        with pytest.raises(ContractViolationError):
            node_table(table)
            pytest.fail(name)


def test_node_table_normalizes_its_rows_once():
    """Rows within 1e-9 of one are stored divided by their sums; a read
    gathers them with no further check."""
    row = [0.2, 0.3, 0.5 + 1e-10]
    law = node_table(np.tile(row, (5, 11, 1)))
    want = np.array(row) / (0.2 + 0.3 + (0.5 + 1e-10))
    assert law.table.tobytes() == np.tile(want, (5, 11, 1)).tobytes()
    c = sample_control(law, 0.3, np.array([[0.26], [-3.0], [7.0]]), None)
    assert c.u is None and c.weights.tobytes() == np.tile(want, (3, 1)).tobytes()


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
    q = realized_control_measure(fake_run(times, idx, atoms=[-1.0, 1.0]))
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
    from_counts = realized_control_measure(
        fake_run(times, idx, atoms=atoms)).weights
    # the same one-hot mixtures as a relaxed law, re-evaluated step by step
    from_weights = realized_control_measure(
        fake_run(times, one_hot, atoms=atoms)).weights
    assert from_counts[2, 3] == 0.0
    assert from_counts.tobytes() == one_hot.mean(axis=1).tobytes()
    assert from_counts.tobytes() == from_weights.tobytes()
