"""Particle simulator: schemes, K bookkeeping, costs, martingale residuals."""

import os
import time
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from penmfg import domain, measures, model, rng
from penmfg import simulate as simulate_mod
from penmfg.controls import constant_law, sample_control
from penmfg.dp import DPGrid
from penmfg.errors import ConfigError, DivergenceError, GridError, PenmfgError
from penmfg.measures import (
    EmpiricalMeasure,
    flow_from_states,
    flow_to_csv,
    format_float,
    write_csv_steps,
)
from penmfg.model import linear_probe, quadratic_probe
from penmfg.rng import step_normals
from penmfg.simulate import (
    SimConfig,
    evaluate_cost,
    martingale_residual,
    moment_summary,
    paths_to_csv,
    scheme_step,
    simulate,
)
from test_controls import open_loop, realized_control_measure, tabulated_law

HALF_LINE = domain.half_space([-1.0], 0.0)  # D = [0, inf)


def null_law():
    """The open-loop law holding the control 0."""
    return constant_law(np.zeros((1, 1)))


def quiet_model(dom=HALF_LINE, **params):
    params.setdefault("sigma", 0.0)
    return model.make_preset("reflected_bm", dom, params)


def drifted_model(b, dom=HALF_LINE, sigma=0.0, horizon=1.0, x0=0.0):
    """Constant-drift diffusion with zero costs, for step-level checks."""
    d = dom.dim
    bvec = np.broadcast_to(np.atleast_1d(np.asarray(b, dtype=float)), (d,))
    return model.ModelSpec(
        dim=d,
        noise_dim=d,
        horizon=horizon,
        atoms=np.zeros((1, 1)),
        drift=lambda t, x, mu, u: np.broadcast_to(bvec, x.shape).copy(),
        diffusion=model._const_diffusion(sigma, d, d),
        running_cost=lambda t, x, mu, u: np.zeros(x.shape[0]),
        boundary_cost=lambda t, x, mu: np.zeros(x.shape[0]),
        terminal_cost=lambda x, mu: np.zeros(x.shape[0]),
        initial_law=model._point_law(np.broadcast_to(
            np.atleast_1d(np.asarray(x0, dtype=float)), (d,)).astype(float)),
        dom=dom,
    )


def one(x):
    return np.asarray(x, dtype=float).reshape(1, -1)


# ------------------------------------------------------------ one-step values


def test_splitting_step_halved_excursion():
    # exact penalty flow with n*dt = ln 2 halves the distance to the domain
    ms = quiet_model()
    dt = np.log(2.0)
    x = one([-1.0])
    mu = EmpiricalMeasure(x)
    u = np.zeros((1, 1))
    xi = np.zeros((1, 1))
    x_next, dk, dkvar = scheme_step(
        ms, SimConfig(1, dt, "penalized_splitting", 1), 0.0, x, mu, u, xi
    )
    assert x_next[0, 0] == pytest.approx(-0.5, abs=1e-12)
    assert dk[0, 0] == pytest.approx(-0.5, abs=1e-12)
    assert dkvar[0] == pytest.approx(0.5, abs=1e-12)


def test_explicit_step_outward_increment():
    ms = quiet_model()
    x = one([-0.5])
    x_next, dk, dkvar = scheme_step(
        ms, SimConfig(1, 0.1, "penalized_explicit", 4), 0.0, x,
        EmpiricalMeasure(x), np.zeros((1, 1)), np.zeros((1, 1)),
    )
    # dK = n (x - proj x) dt = 0.4 * (-0.5); the state moves against it
    assert dk[0, 0] == pytest.approx(-0.2, abs=1e-14)
    assert x_next[0, 0] == pytest.approx(-0.3, abs=1e-14)
    assert dkvar[0] == pytest.approx(0.2, abs=1e-14)


def test_reflected_step_projects_and_records_outward_excess():
    ms = drifted_model(-3.0)
    x = one([0.0])
    x_next, dk, dkvar = scheme_step(
        ms, SimConfig(1, 0.1, "reflected_projected"), 0.0, x,
        EmpiricalMeasure(x), np.zeros((1, 1)), np.zeros((1, 1))
    )
    # Euler proposal -0.3 is projected back to 0; dK = y - proj(y) is outward,
    # the orientation of the penalized increment n (x - proj x) dt
    assert x_next[0, 0] == pytest.approx(0.0, abs=1e-14)
    assert dk[0, 0] == pytest.approx(-0.3, abs=1e-14)
    assert dkvar[0] == pytest.approx(0.3, abs=1e-14)


def test_explicit_and_splitting_agree_to_second_order():
    ms = quiet_model()
    x = one([-0.1])
    args = (0.0, x, EmpiricalMeasure(x), np.zeros((1, 1)), np.zeros((1, 1)))
    xe, _, _ = scheme_step(ms, SimConfig(1, 0.05, "penalized_explicit", 1), *args)
    xs, _, _ = scheme_step(ms, SimConfig(1, 0.05, "penalized_splitting", 1), *args)
    gap = abs(xe[0, 0] - xs[0, 0])
    assert 0.0 < gap < 2.0 * (0.05**2) * 0.1


def test_splitting_bookkeeping_identity():
    # X_next + dK reproduces the pre-penalty Euler point exactly
    ms = quiet_model(sigma=1.0)
    rng = np.random.default_rng(5)
    x = rng.uniform(-0.5, 1.5, size=(64, 1))
    xi = rng.standard_normal((64, 1))
    dt = 0.02
    x_next, dk, _ = scheme_step(
        ms, SimConfig(64, dt, "penalized_splitting", 128), 0.0, x,
        EmpiricalMeasure(x), np.zeros((64, 1)), xi,
    )
    y = x + 1.0 * xi * np.sqrt(dt)
    assert np.allclose(x_next + dk, y, rtol=0.0, atol=1e-14)


# ------------------------------------------------------- full-run invariants


def test_penalized_k_converges_to_the_reflected_k():
    """K^n -> K on reflected BM on the half line under common noise.  Both
    K are outward and both runs add them back to the same free Euler path,
    so K^n - K = X - X^n path by path; the L2 sup gap
    sqrt(E sup_t |K^n_t - K_t|^2) shrinks as n grows (0.445, 0.191, 0.056)."""
    ms = quiet_model(sigma=1.0)
    ref, _ = simulate(ms, SimConfig(2000, 1e-3, "reflected_projected", seed=5),
                      null_law())
    gaps = []
    for n in (8, 64, 512):
        pen, _ = simulate(ms, SimConfig(2000, 1e-3, penalty=n, seed=5), null_law())
        assert np.abs((pen.K - ref.K) - (ref.X - pen.X)).max() <= 1e-12
        gaps.append(np.sqrt(np.mean(np.abs(pen.K - ref.K).max(axis=0)[:, 0] ** 2)))
    assert gaps[0] > gaps[1] > gaps[2], gaps

    # metamorphic oracle: once 1 - exp(-n dt) rounds to 1.0 (by n = 1e6
    # exp(-n dt) itself underflows to 0.0) the splitting scheme's penalty step
    # is the projection, so under shared noise it is the projected scheme
    ref, _ = simulate(ms, SimConfig(64, 1e-3, "reflected_projected", seed=5),
                      null_law())
    for n in (10**5, 10**6):
        assert 1.0 - np.exp(-n * 1e-3) == 1.0
        pen, _ = simulate(ms, SimConfig(64, 1e-3, penalty=n, seed=5), null_law())
        assert np.array_equal(pen.X, ref.X) and np.array_equal(pen.K, ref.K)
    assert np.exp(-10**6 * 1e-3) == 0.0


READERS = {
    "evaluate_cost": lambda ms, run, flow, out: evaluate_cost(ms, run, flow),
    "martingale_residual": lambda ms, run, flow, out: martingale_residual(
        ms, run, flow, linear_probe([1.0])),
    "moment_summary": lambda ms, run, flow, out: moment_summary(run),
    "paths_to_csv": lambda ms, run, flow, out: paths_to_csv(
        run, out / "paths.csv", out / "flow.csv"),
}


@pytest.mark.parametrize("reader", READERS)
def test_path_readers_refuse_a_lean_run(reader, tmp_path):
    ms = quiet_model(sigma=1.0, x0=0.5)
    lean, flow = simulate(ms, SimConfig(4, 0.05, penalty=8, seed=3), null_law(),
                          keep_paths=False)
    with pytest.raises(PenmfgError, match="kept no K or .K.; simulate it with"
                                          " keep_paths=True"):
        READERS[reader](ms, lean, flow, tmp_path)
    assert not any(tmp_path.iterdir())  # refused before a file is opened


def test_literal_penalty_cost_reads_no_k():
    ms = quiet_model(sigma=1.0, h_const=1.0, x0=0.25)
    cfg = SimConfig(4, 0.05, penalty=8, seed=3)
    lean, flow = simulate(ms, cfg, null_law(), keep_paths=False)
    full, _ = simulate(ms, cfg, null_law())
    got = evaluate_cost(ms, lean, flow, penalty=8)
    want = evaluate_cost(ms, full, flow, penalty=8)
    assert got.value == want.value and got.boundary == want.boundary > 0.0
    assert np.array_equal(got.per_particle, want.per_particle)


def test_path_readers_refuse_a_flow_on_another_grid():
    ms = quiet_model(sigma=1.0, x0=0.5)
    paths, _ = simulate(ms, SimConfig(32, 0.01, penalty=8, seed=3), null_law())
    _, fine = simulate(ms, SimConfig(32, 0.005, penalty=8, seed=3), null_law())
    with pytest.raises(ConfigError, match="flow grid does not match the run grid"):
        evaluate_cost(ms, paths, fine)
    with pytest.raises(ConfigError, match="flow grid does not match the run grid"):
        martingale_residual(ms, paths, fine, quadratic_probe(dim=1))


def test_simulate_deterministic_in_seed():
    ms = quiet_model(sigma=1.0, x0=0.5)
    cfg = SimConfig(n_particles=64, dt=0.05, penalty=8, seed=11)
    p1, f1 = simulate(ms, cfg, null_law())
    p2, _ = simulate(ms, cfg, null_law())
    assert np.array_equal(p1.X, p2.X)
    assert np.array_equal(p1.K, p2.K)
    p3, _ = simulate(ms, SimConfig(n_particles=64, dt=0.05, penalty=8, seed=12),
                     null_law())
    assert not np.array_equal(p1.X, p3.X)
    assert f1.n_steps == 20 and f1.n == 64


def test_common_randomness_across_schemes_and_penalties():
    ms = quiet_model(sigma=1.0, x0=0.5)
    bundles = []
    for cfg in (
        SimConfig(n_particles=32, dt=0.05, penalty=8, seed=3),
        SimConfig(n_particles=32, dt=0.05, penalty=512, seed=3),
        SimConfig(n_particles=32, dt=0.05, scheme="reflected_projected", seed=3),
    ):
        bundles.append(simulate(ms, cfg, null_law())[0])
    assert np.array_equal(bundles[0].X[0], bundles[1].X[0])
    assert np.array_equal(bundles[0].X[0], bundles[2].X[0])
    # same driving noise, different schemes: paths differ but stay coupled
    assert not np.array_equal(bundles[0].X, bundles[1].X)
    gap = np.abs(bundles[1].X - bundles[2].X).max()
    assert gap < 0.2


def test_k_bookkeeping_invariants():
    ms = quiet_model(sigma=1.0)
    paths, _ = simulate(ms, SimConfig(n_particles=128, dt=0.02, penalty=64,
                                      seed=0), null_law())
    assert np.all(paths.K[0] == 0.0)
    assert np.all(paths.Kvar[0] == 0.0)
    assert np.all(np.diff(paths.Kvar, axis=0) >= -1e-15)
    assert paths.Kvar[-1].max() > 0.0  # boundary was actually visited


def test_reflected_paths_stay_inside():
    dom = domain.box([0.0, 0.0], [1.0, 1.0])
    ms = quiet_model(dom=dom, sigma=1.0, init="uniform_box",
                     init_lower=[0.2, 0.2], init_upper=[0.8, 0.8])
    paths, _ = simulate(
        ms, SimConfig(n_particles=64, dt=0.01, scheme="reflected_projected",
                      seed=2), null_law(),
    )
    flat = paths.X.reshape(-1, 2)
    assert np.all(dom.contains(flat))
    assert np.sqrt(domain.dist2(dom, flat)).max() <= 1e-12


def test_divergence_reports_step_and_particles():
    ms = drifted_model(0.0)
    ms.drift = lambda t, x, mu, u: 1e200 * (x + 1.0)
    cfg = SimConfig(n_particles=4, dt=0.5, penalty=1, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as err:
            simulate(ms, cfg, null_law())
    assert err.value.step == 2
    assert err.value.particles == [0, 1, 2, 3]
    assert all(type(i) is int for i in err.value.particles)
    assert str(err.value) == "non-finite state at step 2 for particle(s) [0, 1, 2, 3]"


def test_frozen_interaction_grid_checks():
    # a run is frozen exactly when it is given a flow on its own time grid
    ms = quiet_model(sigma=1.0, x0=0.5)
    cfg = SimConfig(n_particles=32, dt=0.05, penalty=8, seed=7)
    paths, flow = simulate(ms, cfg, null_law())
    paths_f, _ = simulate(ms, cfg, null_law(), frozen_flow=flow)
    # coefficients ignore mu here, so frozen and self runs coincide exactly
    assert np.array_equal(paths.X, paths_f.X)
    _, coarse_flow = simulate(ms, SimConfig(n_particles=8, dt=0.1, penalty=8),
                              null_law())
    with pytest.raises(ConfigError):
        simulate(ms, cfg, null_law(), frozen_flow=coarse_flow)


def test_config_validation():
    with pytest.raises(ConfigError):
        SimConfig(n_particles=10, dt=1e-3, scheme="penalized_explicit",
                  penalty=512)  # n*dt > 1/2
    with pytest.raises(ConfigError):
        SimConfig(n_particles=10, dt=1e-3, scheme="reflected_projected",
                  penalty=4)
    with pytest.raises(ConfigError):
        SimConfig(n_particles=10, dt=1e-3, scheme="penalized_splitting")
    with pytest.raises(ConfigError):
        SimConfig(n_particles=10, dt=1e-3, scheme="euler")
    with pytest.raises(ConfigError):
        SimConfig(n_particles=0, dt=1e-3, penalty=1)
    with pytest.raises(ConfigError):
        simulate(quiet_model(), SimConfig(n_particles=4, dt=0.3, penalty=1),
                 null_law())  # 0.3 does not divide T = 1


# ---------------------------------------------------------------------- costs


def test_running_cost_of_one_integrates_to_horizon():
    ms = quiet_model(sigma=1.0, f_const=1.0, horizon=0.75)
    paths, flow = simulate(ms, SimConfig(n_particles=16, dt=0.0125, penalty=32,
                                         seed=1), null_law())
    rep = evaluate_cost(ms, paths, flow)
    assert rep.running == pytest.approx(0.75, abs=1e-10)
    assert rep.boundary == 0.0 and rep.terminal == 0.0
    assert rep.value == pytest.approx(0.75, abs=1e-10)
    assert rep.stderr == pytest.approx(0.0, abs=1e-12)


def test_explicit_literal_penalty_cost_equals_k_charge():
    # for the explicit scheme, h d|K| and n h dist(X) dt are the same sum
    ms = quiet_model(sigma=1.0, h_const=1.0, x0=0.25)
    cfg = SimConfig(n_particles=256, dt=0.05, scheme="penalized_explicit",
                    penalty=4, seed=9)
    paths, flow = simulate(ms, cfg, null_law())
    from_record = evaluate_cost(ms, paths, flow)
    literal = evaluate_cost(ms, paths, flow, penalty=4)
    assert from_record.boundary > 1e-4
    assert literal.boundary == pytest.approx(from_record.boundary, rel=1e-9)
    assert literal.value == pytest.approx(from_record.value, rel=1e-9)


def test_splitting_literal_penalty_cost_close_to_k_charge():
    ms = quiet_model(sigma=1.0, h_const=1.0, x0=0.25)
    cfg = SimConfig(n_particles=512, dt=0.005, penalty=16, seed=9)
    paths, flow = simulate(ms, cfg, null_law())
    from_record = evaluate_cost(ms, paths, flow).boundary
    literal = evaluate_cost(ms, paths, flow, penalty=16).boundary
    assert from_record > 1e-4
    assert abs(literal - from_record) <= 0.25 * from_record


def even_mixture():
    """Relaxed law with weight 1/2 on each of the atoms 0 and 1, everywhere."""
    return open_loop([0.0, 1.0], [[0.5, 0.5]], [[0.0], [1.0]])


def test_relaxed_law_records_weights_and_averages_running_cost():
    dom = domain.box([0.0], [1.0])
    ms = model.make_preset("lq_control", dom, {
        "sigma": 0.05, "c": 0.0, "control_grid": [0.0, 1.0], "x0": 0.25,
    })
    law = even_mixture()
    cfg = SimConfig(n_particles=50, dt=0.05, scheme="reflected_projected",
                    seed=4)
    paths, flow = simulate(ms, cfg, law)
    # the bundle keeps the law; readers re-evaluate its weights
    assert paths.law is law
    rep = evaluate_cost(ms, paths, flow)
    # f = u^2 / 2 averaged under w = (1/2, 1/2) is 1/4, integrated over T = 1
    assert rep.running == pytest.approx(0.25, abs=1e-10)


def test_control_stream_opened_only_for_relaxed_laws(monkeypatch):
    """Strict laws draw nothing, so no CONTROL generator is built for them."""
    ms = model.make_preset("lq_control", domain.box([0.0], [1.0]),
                           {"control_grid": [0.0, 1.0], "x0": 0.25})
    cfg = SimConfig(n_particles=30, dt=0.05, scheme="reflected_projected", seed=4)
    opened = []
    stream = rng.stream

    def counted(seed, purpose, step=0):
        opened.append(purpose)
        return stream(seed, purpose, step)

    monkeypatch.setattr("penmfg.simulate.stream", counted)
    simulate(ms, cfg, null_law())
    assert opened.count(rng.CONTROL) == 0
    simulate(ms, cfg, even_mixture())
    assert opened.count(rng.CONTROL) == 20


def test_constant_law_runs_in_three_dimensions(monkeypatch):
    """constant_law has no DP grid, which stops at d = 2: on the unit cube
    every step uses atoms[0] and puts all control mass on it."""
    atoms = np.array([[0.5, 0.0, -0.5], [-1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
    ms = model.make_preset("lq_control", domain.box([0.0] * 3, [1.0] * 3), {
        "sigma": 0.3, "control_grid": atoms.tolist(), "x0": [0.4] * 3})
    with pytest.raises(GridError):
        DPGrid.for_model(ms, 0.25)
    cfg = SimConfig(n_particles=40, dt=0.05, penalty=8, seed=2)
    seen = spy_sample_control(monkeypatch)
    paths, _ = simulate(ms, cfg, constant_law(ms.atoms))
    lean, _ = simulate(ms, cfg, constant_law(ms.atoms), keep_paths=False)
    assert len(seen) == 2 * 20 and paths.X.shape == (21, 40, 3)
    for c in seen:
        assert c.weights is None and c.u.tolist() == [atoms[0].tolist()] * 40
        assert c.mass.tolist() == [1.0, 0.0, 0.0]
    assert lean.controls.weights.tolist() == [[1.0, 0.0, 0.0]] * 20
    assert lean.X.tobytes() == paths.X.tobytes()


# ---------------------------------------------------------- control records


def lq_three_controls(d, **params):
    """lq_control in the unit box of dimension d with three control atoms."""
    grid = [[-1.0], [0.0], [0.5]] if d == 1 else [[-1.0, 0.0], [0.0, 0.0], [0.5, 1.0]]
    params = {"sigma": 0.3, "c": 1.0, "gamma": 0.5, "control_grid": grid,
              "x0": 0.4, **params}
    return model.make_preset("lq_control", domain.box([0.0] * d, [1.0] * d), params)


def state_mixture(ms, dt):
    """A relaxed node table whose weights vary with both t and x."""
    def fn(t, x):
        s = x.sum(axis=1)
        w = np.column_stack([np.ones_like(s), 1.0 + np.sin(3.0 * s + t),
                             np.exp(-s * s)])
        return w / w.sum(axis=1, keepdims=True)
    return tabulated_law(ms, dt, fn)


def spy_sample_control(monkeypatch):
    """Record the StepControls records sample_control returns to simulate."""
    seen = []

    def spy(*args):
        out = sample_control(*args)
        seen.append(out)
        return out

    monkeypatch.setattr(simulate_mod, "sample_control", spy)
    return seen


@pytest.mark.parametrize("d", [1, 2])
def test_relaxed_record_rereads_the_sampled_weights_bit_for_bit(monkeypatch, d):
    """A relaxed run keeps its law; every reader re-evaluates it and gets the
    same bits as the (M, N, nU) weight tensor it was sampled from."""
    ms = lq_three_controls(d)
    cfg = SimConfig(n_particles=200, dt=0.05, penalty=8, seed=21)
    law = state_mixture(ms, cfg.dt)
    seen = spy_sample_control(monkeypatch)
    paths, flow = simulate(ms, cfg, law)
    monkeypatch.undo()
    tensor = np.stack([c.weights for c in seen])
    assert tensor.shape == (20, 200, 3)
    assert np.ptp(tensor[:, :, 1]) > 0.1  # the mixture moves with the state
    phi = quadratic_probe(dim=d)
    new_cost = evaluate_cost(ms, paths, flow)
    new_mart = martingale_residual(ms, paths, flow, phi)
    q = realized_control_measure(paths)

    def stored_stepwise_cost(paths, flow, fn, step):  # the weight-record reader
        xk, atoms = paths.X[step], paths.law.atoms
        w = tensor[step]
        out = np.zeros(paths.n_particles)
        for j in range(atoms.shape[0]):
            uj = np.broadcast_to(atoms[j], (paths.n_particles, atoms.shape[1]))
            out += w[:, j] * fn(paths.times[step], xk, flow.frames[step], uj)
        return out

    monkeypatch.setattr(simulate_mod, "_stepwise_cost", stored_stepwise_cost)
    old_cost = evaluate_cost(ms, paths, flow)
    old_mart = martingale_residual(ms, paths, flow, phi)
    assert new_cost.per_particle.tobytes() == old_cost.per_particle.tobytes()
    assert (new_cost.value, new_cost.running) == (old_cost.value, old_cost.running)
    assert q.weights.tobytes() == tensor.mean(axis=1).tobytes()
    assert new_mart.aggregate_mean == old_mart.aggregate_mean
    assert new_mart.aggregate_se == old_mart.aggregate_se
    assert new_mart.per_step_mean.tobytes() == old_mart.per_step_mean.tobytes()
    assert new_mart.per_step_se.tobytes() == old_mart.per_step_se.tobytes()


def test_control_records_stay_lean(monkeypatch):
    """A bundle keeps its law and no per-particle control array: times, X,
    K and |K| are all it holds, and a reader re-reads the strict controls
    the sampler returned."""
    ms = lq_three_controls(2)
    cfg = SimConfig(n_particles=50, dt=0.05, penalty=8, seed=5)
    seen = spy_sample_control(monkeypatch)
    strict = tabulated_law(ms, cfg.dt, lambda t, x: (x[:, 0] > 0.4).astype(int)
                           + (x[:, 1] > 0.5))
    paths, _ = simulate(ms, cfg, strict)
    monkeypatch.undo()
    want = np.stack([c.u for c in seen])
    got = np.stack([sample_control(paths.law, t, x, None).u
                    for t, x in zip(paths.times[:-1], paths.X)])
    assert np.array_equal(got, want)
    assert np.unique(want.reshape(-1, 2), axis=0).shape[0] == 3
    for law in (strict, state_mixture(ms, cfg.dt)):
        paths, _ = simulate(ms, cfg, law)
        assert paths.law is law
        shapes = [a.shape for a in vars(paths).values() if isinstance(a, np.ndarray)]
        assert shapes == [(21,), (21, 50, 2), (21, 50, 2), (21, 50)]


def test_relaxed_run_peaks_no_higher_than_a_strict_one():
    """At N = 20,000, M = 40, nU = 3 a weight record would be 18 MiB; the
    relaxed run's traced peak stays within 1 MiB of the strict run's."""
    ms = lq_three_controls(1, horizon=0.5)
    cfg = SimConfig(n_particles=20_000, dt=0.0125, penalty=8, seed=3)
    relaxed = state_mixture(ms, cfg.dt)
    strict = tabulated_law(ms, cfg.dt, lambda t, x: np.where(x[:, 0] > 0.4, 2, 0))

    def traced_peak(law):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = simulate(ms, cfg, law)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out[0].n_steps == 40
        return peak - base

    assert traced_peak(relaxed) <= traced_peak(strict) + 2**20


def test_reflected_local_time_matches_tanaka_scale():
    # |K|_T of reflected driftless noise from 0 approximates E|W_T| = sqrt(2T/pi)
    t_end = 0.25
    ms = quiet_model(sigma=1.0, horizon=t_end)
    paths, _ = simulate(
        ms, SimConfig(n_particles=8000, dt=t_end / 400,
                      scheme="reflected_projected", seed=21), null_law(),
    )
    target = np.sqrt(2.0 * t_end / np.pi)
    assert np.mean(paths.Kvar[-1]) == pytest.approx(target, abs=0.05)


# ----------------------------------------------------------------- residuals


def zscore(rep):
    """|aggregate mean| / its SE, as acceptance criterion 5 computes it."""
    return abs(rep.aggregate_mean) / max(rep.aggregate_se, 1e-300)


@pytest.mark.parametrize("scheme,penalty", [
    ("penalized_explicit", 4),
    ("penalized_splitting", 64),
    ("reflected_projected", None),
])
def test_martingale_residual_linear_probe_is_pure_noise(scheme, penalty):
    # with K in the outward orientation, a linear probe leaves only the
    # driving noise: residual per step == a . (sigma dW), for every scheme
    sigma, dt, n, a = 2.0, 0.05, 96, 1.5
    ms = quiet_model(sigma=sigma, x0=0.5)
    cfg = SimConfig(n_particles=n, dt=dt, scheme=scheme, penalty=penalty,
                    seed=13)
    paths, flow = simulate(ms, cfg, null_law())
    rep = martingale_residual(ms, paths, flow, linear_probe([a]))
    expected = np.array([
        np.mean(a * sigma * step_normals(13, k, n, 1)[:, 0] * np.sqrt(dt))
        for k in range(paths.n_steps)
    ])
    assert np.allclose(rep.per_step_mean, expected, rtol=1e-8, atol=1e-12)
    assert zscore(rep) < 4.0


@pytest.mark.parametrize("scheme,penalty", [
    ("penalized_splitting", 64),
    ("reflected_projected", None),
])
def test_martingale_residual_quadratic_probe_is_free_increment(scheme, penalty):
    # the chord-exact K term reduces the residual to the unreflected Euler
    # increment: per step, mean of 2 x sigma dW + sigma^2 dt (xi^2 - 1)
    sigma, dt, n = 1.5, 0.05, 128
    ms = quiet_model(sigma=sigma, x0=0.2)
    cfg = SimConfig(n_particles=n, dt=dt, scheme=scheme, penalty=penalty,
                    seed=21)
    paths, flow = simulate(ms, cfg, null_law())
    rep = martingale_residual(ms, paths, flow, quadratic_probe(dim=1))
    expected = np.empty(paths.n_steps)
    for k in range(paths.n_steps):
        xi = step_normals(21, k, n, 1)[:, 0]
        free = 2.0 * paths.X[k, :, 0] * sigma * xi * np.sqrt(dt) \
            + sigma ** 2 * dt * (xi ** 2 - 1.0)
        expected[k] = np.mean(free)
    assert np.allclose(rep.per_step_mean, expected, rtol=1e-8, atol=1e-12)


def test_martingale_residual_zero_without_noise():
    ms = quiet_model(sigma=0.0, x0=0.5)
    paths, flow = simulate(ms, SimConfig(n_particles=8, dt=0.05, penalty=2),
                           null_law())
    rep = martingale_residual(ms, paths, flow, linear_probe([1.0]))
    assert rep.aggregate_mean == 0.0
    assert rep.aggregate_se == 0.0


def test_martingale_residual_quadratic_probe_zscore():
    dom = domain.box([0.0], [1.0])
    ms = model.make_preset("reflected_ou_mf", dom, {
        "kappa": 1.0, "sigma": 0.5, "x0": 0.3,
    })
    paths, flow = simulate(ms, SimConfig(n_particles=2000, dt=0.02, penalty=16,
                                         seed=30), null_law())
    rep = martingale_residual(ms, paths, flow, quadratic_probe(dim=1))
    assert zscore(rep) < 5.0


def test_detects_wrong_generator():
    # doubling the diffusion in the generator must blow the z-score up
    ms = quiet_model(sigma=1.0, x0=0.5)
    paths, flow = simulate(ms, SimConfig(n_particles=4000, dt=0.02, penalty=16,
                                         seed=31), null_law())
    good = martingale_residual(ms, paths, flow, quadratic_probe(dim=1))
    bad_ms = quiet_model(sigma=1.0, x0=0.5)
    bad_ms.diffusion = model._const_diffusion(np.sqrt(2.0), 1, 1)
    bad = martingale_residual(bad_ms, paths, flow, quadratic_probe(dim=1))
    assert zscore(good) < 5.0
    assert zscore(bad) > 10.0


# ------------------------------------------------------------------ summaries


def test_moment_summary_keys_and_scale():
    ms = quiet_model(sigma=1.0, x0=0.5)
    # penalty 16 keeps the explicit scheme inside its penalty*dt <= 0.5 guard
    for scheme, penalty in (("penalized_explicit", 16), ("penalized_splitting", 64),
                            ("reflected_projected", None)):
        paths, _ = simulate(ms, SimConfig(n_particles=256, dt=0.02, scheme=scheme,
                                          penalty=penalty, seed=6), null_law())
        summary = moment_summary(paths)
        assert set(summary) == {"sup_x_sq", "sup_k_sq", "kvar_total"}
        assert summary["sup_x_sq"] >= 0.25  # at least the initial point
        assert summary["kvar_total"] >= 0.0
        # triangle inequality, path by path: max_t |K_t| <= Kvar_T (1e-12 for rounding)
        sup_k = np.linalg.norm(paths.K, axis=-1).max(axis=0)
        assert np.all(sup_k <= paths.Kvar[-1] + 1e-12), scheme


# Floats whose shortest repr is easy to get wrong: signed zero, subnormal,
# tiny, the switch to exponent notation, a rounding artifact.
EDGE_FLOATS = np.array([-0.0, 5e-324, 1e-300, 1e16, 0.1 + 0.2, 1e22])


def edge_array(shape):
    return np.resize(np.concatenate([EDGE_FLOATS, -EDGE_FLOATS, [0.5]]), shape)


def reference_paths_csv(paths) -> bytes:
    """The per-cell writer: one format_float per cell, rows joined by ','."""
    d = paths.X.shape[2]
    rows = [",".join(["t", "particle"] + [f"x_{j + 1}" for j in range(d)]
                     + [f"k_{j + 1}" for j in range(d)] + ["kvar"])]
    for step in range(paths.n_steps + 1):
        for i in range(paths.n_particles):
            rows.append(",".join(
                [format_float(paths.times[step]), str(i)]
                + [format_float(v) for v in paths.X[step, i]]
                + [format_float(v) for v in paths.K[step, i]]
                + [format_float(paths.Kvar[step, i])]))
    return ("\n".join(rows) + "\n").encode()


def reference_flow_csv(flow) -> bytes:
    rows = ["t_index,particle_index," + ",".join(f"x_{j + 1}" for j in range(flow.dim))]
    for k, frame in enumerate(flow.frames):
        for i in range(frame.n):
            rows.append(",".join([str(k), str(i)]
                                 + [format_float(v) for v in frame.samples[i]]))
    return ("\n".join(rows) + "\n").encode()


def moving_cells(d):
    """(X, K, Kvar) over 6 steps and 3 particles whose cells exercise the
    writer's reuse of strings between steps: a cell flipping between 0.0 and
    -0.0, cells held constant over several steps and then moving, and a last
    step equal to the one before it, so that no cell changes."""
    x = np.zeros((6, 3, d))
    x[1::2, 0] = -0.0                    # signed zero flips every step
    x[:, 1] = 0.1 + 0.2
    x[3:, 1, -1] = 1e16                  # held over three steps, then moves
    x[:, 2] = np.arange(6)[:, None] * 0.5
    k = -x[:, ::-1]                      # the flips land on the k cells too
    kvar = np.repeat([[5e-324, 1e-300, 0.0]], 6, axis=0)
    kvar[4:, 1] = 1e22
    for arr in (x, k, kvar):
        arr[5] = arr[4]                  # no cell changes at the last step
    return x, k, kvar


def csv_cases(paths):
    """(bundle, flow) pairs whose CSVs must equal the per-cell writers':
    edge floats in d = 1 and d = 2, including the lead time cell, and the
    moving_cells steps, whose signed-zero flip (steps 2 to 3) and held cells
    straddle the split step m // 2 = 3 of their six-step tables."""
    times = edge_array(paths.times.shape)
    for d in (1, 2):
        edge = replace(paths, times=times, X=edge_array((5, 5, d)),
                       K=edge_array((5, 5, d))[::-1], Kvar=edge_array((5, 5)).T)
        yield edge, flow_from_states(paths.times, edge.X)
        x, k, kvar = moving_cells(d)
        moving = replace(paths, times=np.linspace(0.0, 1.25, 6), X=x, K=k, Kvar=kvar)
        yield moving, flow_from_states(moving.times, x)


def assert_csv_exports(paths, flow, tmp_path):
    """Both entry points, paths_to_csv and flow_to_csv, against the oracles;
    a one-step bundle has no MeasureFlow (a flow needs two time nodes), so
    it is given as None and only paths_to_csv runs."""
    p, f, g = tmp_path / "a.csv", tmp_path / "f.csv", tmp_path / "g.csv"
    paths_to_csv(paths, p, f)
    assert p.read_bytes() == reference_paths_csv(paths)
    frames = SimpleNamespace(dim=paths.X.shape[2],
                             frames=list(map(EmpiricalMeasure, paths.X)))
    assert f.read_bytes() == reference_flow_csv(frames)
    if flow is not None:
        flow_to_csv(flow, g)
        assert g.read_bytes() == reference_flow_csv(flow)


def first_steps(paths, m):
    return replace(paths, times=paths.times[:m], X=paths.X[:m], K=paths.K[:m],
                   Kvar=paths.Kvar[:m])


def test_csv_exports_are_deterministic(tmp_path, request):
    ms = quiet_model(sigma=1.0, x0=0.5)
    paths, flow = simulate(ms, SimConfig(n_particles=5, dt=0.25, penalty=4,
                                         seed=8), null_law())
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    f1, f2 = tmp_path / "f.csv", tmp_path / "g.csv"
    paths_to_csv(paths, p1, f1)
    paths_to_csv(paths, p2, f2)
    assert p1.read_bytes() == p2.read_bytes()
    assert f1.read_bytes() == f2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == "t,particle,x_1,k_1,kvar"
    assert len(lines) == 1 + 5 * 5  # header + (M+1) * N rows
    flines = f1.read_text().splitlines()
    assert flines[0] == "t_index,particle_index,x_1"
    assert len(flines) == 1 + 5 * 5
    assert_csv_exports(paths, flow, tmp_path)
    # strings reused between steps: signed-zero flips, held-then-moved
    # cells and an unchanged step, written by both entry points
    cases = list(csv_cases(paths))
    for bundle, bundle_flow in cases:
        assert_csv_exports(bundle, bundle_flow, tmp_path)
    assert b"-0.0" in p1.read_bytes() and b"-0.0" in f1.read_bytes()
    # split writes: the same bytes when a helper writes the second half of
    # every table, also of the one- and two-step tables of each case
    forks = request.getfixturevalue("split_writes")
    cases.append((paths, flow))
    two = [first_steps(b, 2) for b, _ in cases]
    cases += [(b, flow_from_states(b.times, b.X)) for b in two]
    cases += [(first_steps(b, 1), None) for b in two]
    for bundle, bundle_flow in cases:
        assert_csv_exports(bundle, bundle_flow, tmp_path)
    assert len(forks) == 2 * (len(cases) - len(two))  # one step: serial
    assert not list(tmp_path.glob("*.part"))


def refuse_parts(path, *args, **kwargs):
    """``open`` for the CSV writer, failing on the helper's ``.part`` files."""
    if str(path).endswith(".part"):
        raise PermissionError(f"refused: {path}")
    return open(path, *args, **kwargs)


def assert_no_helper_left(out_dir):
    assert not list(out_dir.glob("*.part"))
    with pytest.raises(ChildProcessError):  # no child process, reaped or not
        os.waitpid(-1, os.WNOHANG)


def test_split_write_failures_leave_no_helper_or_part(tmp_path, monkeypatch,
                                                      split_writes):
    table = [(tmp_path / "t.csv", "t,i,x", list("0123"), [0, 1, 2], 1)]

    def block(k):
        return np.full((3, 1), 0.5 * k)

    # a helper that cannot open its part: OSError in the parent
    with monkeypatch.context() as m:
        m.setattr(measures, "open", refuse_parts, raising=False)
        with pytest.raises(OSError, match="CSV helper"):
            write_csv_steps(table, (repr,), block, 4)
    assert_no_helper_left(tmp_path)
    # the parent's half fails while the helper is still busy: the helper is
    # killed, not waited out, and the parent's error propagates
    def parent_fails(k):
        if k >= 2:
            time.sleep(30)
        raise ValueError("bad block")

    start = time.perf_counter()
    with pytest.raises(ValueError, match="bad block"):
        write_csv_steps(table, (repr,), parent_fails, 4)
    assert time.perf_counter() - start < 10
    assert_no_helper_left(tmp_path)
    write_csv_steps(table, (repr,), block, 4)
    assert (tmp_path / "t.csv").read_text() == "".join(
        ["t,i,x\n"] + [f"{k},{i},{0.5 * k!r}\n" for k in range(4) for i in range(3)])
    assert len(split_writes) == 3


# ------------------------------------------------------------------ lean runs


def charged_model(d):
    """lq_three_controls with a state- and flow-dependent boundary and
    terminal cost, so every charge of a cost sum reads its frame."""
    ms = lq_three_controls(d, horizon=0.5, sigma=0.5)
    return replace(
        ms,
        boundary_cost=lambda t, x, mu: 0.7 + x.sum(axis=1) ** 2 + t * mu.mean.sum(),
        terminal_cost=lambda x, mu: ((x - mu.mean) ** 2).sum(axis=1),
    )


@pytest.mark.parametrize("keep_paths", [True, False], ids=["kept", "lean"])
@pytest.mark.parametrize("frozen", [False, True], ids=["self", "frozen"])
@pytest.mark.parametrize("relaxed", [False, True], ids=["strict", "relaxed"])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("scheme,penalty", [
    ("penalized_explicit", 8), ("penalized_splitting", 8),
    ("reflected_projected", None),
])
def test_run_sums_what_the_path_readers_read(scheme, penalty, d, relaxed,
                                             frozen, keep_paths):
    """A run's cost and realized control measure are, bit for bit,
    evaluate_cost and the reference control-measure reader on the kept run
    of the same law, flow and seed; a lean run keeps no K or |K|."""
    ms = charged_model(d)
    cfg = SimConfig(n_particles=96, dt=0.05, scheme=scheme, penalty=penalty,
                    seed=17)
    law = (state_mixture(ms, cfg.dt) if relaxed else tabulated_law(
        ms, cfg.dt, lambda t, x: (x[:, 0] > 0.4).astype(int) + (x[:, -1] > 0.6)))
    flow_in = simulate(ms, replace(cfg, seed=18), law)[1] if frozen else None
    paths, flow = simulate(ms, cfg, law, frozen_flow=flow_in)
    run, run_flow = simulate(ms, cfg, law, frozen_flow=flow_in,
                             keep_paths=keep_paths)
    assert paths.Kvar[-1].max() > 0.0  # the boundary charge is exercised
    want = evaluate_cost(ms, paths, flow if flow_in is None else flow_in)
    got = run.cost
    for name in ("value", "stderr", "running", "boundary", "terminal"):
        assert getattr(got, name) == getattr(want, name), name
    assert got.per_particle.tobytes() == want.per_particle.tobytes()
    q_want, q_got = realized_control_measure(paths), run.controls
    assert q_got.times.tobytes() == q_want.times.tobytes()
    assert q_got.atoms.tobytes() == q_want.atoms.tobytes()
    assert q_got.weights.tobytes() == q_want.weights.tobytes()
    assert run.X.tobytes() == paths.X.tobytes()
    assert run_flow.frames[3].samples.base is run.X  # X is the flow's buffer
    assert (run.n_particles, run.n_steps) == (96, 10)
    if keep_paths:
        assert run.K.tobytes() == paths.K.tobytes()
        assert run.Kvar.tobytes() == paths.Kvar.tobytes()
    else:
        assert run.K is None and run.Kvar is None


def test_simulate_refuses_a_law_that_is_not_a_node_table():
    """A function of (t, x) is no control law: simulate refuses it with the
    sampler's error before reading any attribute of it."""
    ms = quiet_model()
    with pytest.raises(PenmfgError, match="unknown control law function"):
        simulate(ms, SimConfig(n_particles=4, dt=0.1, penalty=8),
                 lambda t, x: np.zeros((x.shape[0], 1)))


@pytest.mark.parametrize("relaxed", [False, True], ids=["strict", "relaxed"])
def test_lean_run_allocates_x_plus_order_n(relaxed):
    """At N = 20,000 and M = 100 a lean run's traced peak is its X plus a
    few N-vectors: no K (the size of X) or |K| (M+1 N-vectors) is kept."""
    ms = lq_three_controls(1, horizon=1.0)
    n = 20_000
    cfg = SimConfig(n_particles=n, dt=0.01, penalty=8, seed=3)
    law = (state_mixture(ms, cfg.dt) if relaxed
           else tabulated_law(ms, cfg.dt, lambda t, x: np.where(x[:, 0] > 0.4, 2, 0)))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run, flow = simulate(ms, cfg, law, keep_paths=False)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert run.n_steps == 100
    assert peak <= run.X.nbytes + 32 * 8 * n, (peak - run.X.nbytes) / (8 * n)
