"""Fixed-point loop: self-consistency, determinism, sweeps, chattering runs."""

import gc
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from penmfg import domain, dp, equilibrium, model
from penmfg.dp import DPGrid
from penmfg.equilibrium import (
    FixedPointConfig,
    StudyReport,
    _mix_flows,
    penalization_sweep,
    solve_equilibrium,
    strict_approximation_run,
)
from penmfg.errors import ConfigError
from penmfg.measures import EmpiricalMeasure, flow_from_states, w2_flow
from penmfg.rng import SUBSAMPLE, stream
from penmfg.simulate import Run, SimConfig, simulate

UNIT_BOX = domain.box([0.0], [1.0])


def ou_model(**over):
    params = {"kappa": 1.5, "sigma": 0.6, "horizon": 0.5, "x0": 0.4}
    params.update(over)
    return model.make_preset("reflected_ou_mf", UNIT_BOX, params)


def lq_model(**over):
    params = {"sigma": 0.4, "horizon": 0.5, "c": 1.0, "gamma": 0.5,
              "x0": 0.4}
    params.update(over)
    return model.make_preset("lq_control", UNIT_BOX, params)


def test_config_validation():
    sim = SimConfig(n_particles=10, dt=0.05)
    with pytest.raises(ConfigError):
        FixedPointConfig(sim=sim, damping=0.0)
    with pytest.raises(ConfigError):
        FixedPointConfig(sim=sim, damping=1.5)
    with pytest.raises(ConfigError):
        FixedPointConfig(sim=sim, max_iters=-1)
    with pytest.raises(ConfigError):
        FixedPointConfig(sim=sim, tol=0.0)
    with pytest.raises(ConfigError):
        solve_equilibrium(lq_model(), FixedPointConfig(sim=sim))  # no grid


def test_no_control_self_consistency_is_exact():
    # with a singleton control set the loop is pure McKean-Vlasov
    # self-consistency: re-running the init flow frozen reproduces it exactly
    ms = ou_model()
    cfg = FixedPointConfig(
        sim=SimConfig(n_particles=1000, dt=0.01, seed=3),
        damping=1.0, max_iters=5, tol=1e-2,
    )
    rep = solve_equilibrium(ms, cfg)
    assert rep.converged
    assert rep.iterations == 1
    assert rep.residuals[0] == 0.0
    assert rep.exploitability is None  # no grid configured
    assert rep.flow.n == 1000


def test_self_map_residual_sits_at_noise_floor():
    ms = ou_model()
    cfg = FixedPointConfig(
        sim=SimConfig(n_particles=800, dt=0.01, seed=6),
        damping=1.0, max_iters=3, tol=1e-2,
    )
    rep = solve_equilibrium(ms, cfg)
    _, flow2 = simulate(ms, cfg.sim, rep.law, frozen_flow=rep.flow)
    resid = w2_flow(flow2, rep.flow)
    # the sampling floor: two frozen runs of the law that differ only in seed
    a, b = (simulate(ms, replace(cfg.sim, seed=seed), rep.law,
                     frozen_flow=rep.flow, keep_paths=False)[1]
            for seed in (9091, 9092))
    floor = w2_flow(a, b)
    assert resid <= 2.0 * floor + 1e-12


def test_zero_costs_exit_immediately_with_zero_exploitability():
    ms = lq_model(c=0.0, gamma=0.0)
    ms.running_cost = lambda t, x, mu, u: np.zeros(x.shape[0])
    cfg = FixedPointConfig(
        sim=SimConfig(n_particles=400, dt=0.0125, seed=2),
        grid=DPGrid.regular([0.0], [1.0], 0.05),
        damping=0.5, max_iters=10, tol=5e-2,
    )
    rep = solve_equilibrium(ms, cfg)
    assert rep.converged and rep.iterations == 1
    assert rep.cost.value == 0.0
    assert abs(rep.exploitability.gap) <= 3.0 * rep.exploitability.cost_se + 1e-12
    assert not rep.flagged_exploit


def test_controlled_mean_field_equilibrium_converges():
    ms = lq_model()
    cfg = FixedPointConfig(
        sim=SimConfig(n_particles=1500, dt=0.005, seed=11),
        grid=DPGrid.regular([0.0], [1.0], 0.05),
        damping=0.5, max_iters=20, tol=5e-2, tol_exploit=5e-2,
    )
    rep = solve_equilibrium(ms, cfg)
    assert rep.converged, f"residuals: {rep.residuals}"
    assert rep.residuals[-1] < 5e-2
    assert rep.exploitability is not None
    assert rep.exploitability.gap < 5e-2 * (1.0 + abs(rep.cost.value)) \
        + 2.0 * (0.05 + 0.005)
    assert rep.field is not None


def test_equilibrium_reruns_are_identical():
    ms = lq_model()
    def make_cfg(seed):
        return FixedPointConfig(
            sim=SimConfig(n_particles=500, dt=0.01, penalty=64, seed=seed),
            grid=DPGrid.regular([0.0], [1.0], 0.05),
            damping=0.5, max_iters=6, tol=5e-2,
        )
    r1 = solve_equilibrium(ms, make_cfg(4))
    r2 = solve_equilibrium(ms, make_cfg(4))
    assert r1.residuals == r2.residuals
    assert np.array_equal(r1.flow.stack(), r2.flow.stack())
    assert r1.cost.value == r2.cost.value
    r3 = solve_equilibrium(ms, make_cfg(5))
    assert not np.array_equal(r1.flow.stack(), r3.flow.stack())


def test_max_iters_zero_reports_not_converged():
    ms = ou_model()
    cfg = FixedPointConfig(
        sim=SimConfig(n_particles=200, dt=0.01, seed=1),
        max_iters=0,
    )
    rep = solve_equilibrium(ms, cfg)
    assert not rep.converged
    assert rep.iterations == 0 and rep.residuals == []
    assert rep.cost.value is not None


def test_solve_out_of_iterations_mixes_only_iterates_it_reads(monkeypatch):
    """Every pass but the last mixes the iterate the next pass freezes; a
    solve that runs out of iterations builds no iterate after its last."""
    mixes = []
    mix = equilibrium._mix_flows
    monkeypatch.setattr(equilibrium, "_mix_flows",
                        lambda *a: mixes.append(1) or mix(*a))
    cfg = FixedPointConfig(  # tol out of reach: every iteration runs
        sim=SimConfig(n_particles=300, dt=0.0125, seed=9),
        grid=DPGrid.regular([0.0], [1.0], 0.05),
        damping=0.5, max_iters=3, tol=1e-9,
    )
    rep = solve_equilibrium(lq_model(gamma=0.25), cfg)
    assert rep.iterations == 3 and not rep.converged
    assert len(mixes) == 2


def test_penalization_sweep_gaps_shrink_with_n():
    ms = ou_model(sigma=0.5)
    cfg = FixedPointConfig(
        sim=SimConfig(n_particles=3000, dt=0.01, seed=7),
        damping=1.0, max_iters=4, tol=1e-2,
    )
    report = penalization_sweep(ms, cfg, [8, 64])
    assert isinstance(report, StudyReport)
    *rows, reference = report.rows
    assert [r["penalty"] for r in rows] == [8, 64]
    assert reference["penalty"] == "ref"
    assert all(r["converged"] for r in rows)
    assert rows[1]["flow_gap"] < rows[0]["flow_gap"]
    assert abs(rows[1]["cost_gap"]) <= abs(rows[0]["cost_gap"]) \
        + 2.0 * (rows[0]["cost_gap_se"] + rows[1]["cost_gap_se"])
    assert "ref" in report.summary()


def test_penalization_sweep_flags_failed_levels():
    ms = ou_model()
    cfg = FixedPointConfig(
        sim=SimConfig(n_particles=100, dt=0.01, seed=7),
        max_iters=2,
    )
    report = penalization_sweep(ms, cfg, [0])  # invalid penalty level
    assert report.rows[0]["error"] != ""
    assert not report.rows[0]["converged"]
    assert "failed" in report.summary()


def test_strict_approximation_distances_shrink():
    ms = lq_model(gamma=0.25)
    cfg = FixedPointConfig(
        sim=SimConfig(n_particles=1000, dt=0.0125, seed=9),
        grid=DPGrid.regular([0.0], [1.0], 0.05),
        damping=0.5, max_iters=12, tol=5e-2,
    )
    # blocks of 16/8/4 cells: every one resolves the 75/25 mixture exactly,
    # so the distance isolates the switching-rate error
    report = strict_approximation_run(ms, cfg, deltas=[0.2, 0.1, 0.05],
                                      n0=2.0, epsilon=0.25)
    assert [r["penalty"] for r in report.rows] == [10, 20, 40]
    dists = [r["control_distance"] for r in report.rows]
    assert all(np.isfinite(dists))
    assert dists[-1] < dists[0]
    for prev, cur in zip(report.rows, report.rows[1:]):
        assert abs(cur["cost_gap"]) <= abs(prev["cost_gap"]) \
            + 2.0 * (prev["cost_gap_se"] + cur["cost_gap_se"])
    assert "relaxed reference" in report.summary()
    with pytest.raises(ConfigError):
        strict_approximation_run(
            ms, replace(cfg, sim=replace(cfg.sim, penalty=32)),
            deltas=[0.1],
        )


def test_strict_approximation_refuses_before_its_base_solve(monkeypatch):
    """One control atom, no grid or no iteration leaves no DP law to relax;
    each is refused before the base equilibrium is solved."""
    monkeypatch.setattr(equilibrium, "solve_equilibrium", lambda *a: pytest.fail())
    cfg = FixedPointConfig(
        sim=SimConfig(n_particles=10, dt=0.05),
        grid=DPGrid.regular([0.0], [1.0], 0.05))
    for ms, fp in [(ou_model(), cfg), (lq_model(), replace(cfg, grid=None)),
                   (lq_model(), replace(cfg, max_iters=0))]:
        with pytest.raises(ConfigError, match="relaxed probe needs a DP solve"):
            strict_approximation_run(ms, fp, deltas=[0.1])


@pytest.mark.parametrize("dim", [1, 2])
def test_mix_flows_frames_are_contiguous_blocks_of_the_run(dim):
    """Each mixed frame is the C-contiguous frame of the run's X that the
    mix consumes, holding the run's kept rows and then the gathered old
    ones, and its mean has the bits of that contiguous cloud's.  The oracle
    is built from copies taken before each call.  A second mix reads a mixed
    iterate; with theta = 1 the iterate is the run's own flow."""
    r = np.random.default_rng(21)
    times = np.linspace(0.0, 0.5, 6)

    def fresh_run():
        return Run(times, r.normal(size=(6, 1000, dim)), None, None, None)

    def mixed_oracle(old, run, it):
        perm = stream(7, SUBSAMPLE, it)
        idx_new, idx_old = perm.permutation(1000)[:500], perm.permutation(1000)[:500]
        return np.ascontiguousarray(
            np.concatenate([run.X[:, idx_new], old.stack()[:, idx_old]], axis=1))

    def check(flow, run, want):
        for k, fr in enumerate(flow.frames):
            assert fr.samples.flags.c_contiguous and fr.samples.base is run.X
            assert fr.samples.tobytes() == want[k].tobytes()
            assert fr.mean.tobytes() == EmpiricalMeasure(want[k]).mean.tobytes()

    old = flow_from_states(times, r.normal(size=(6, 1000, dim)))
    for it in (2, 3):  # the start-up iterate, then a mixed one
        run = fresh_run()
        want = mixed_oracle(old, run, it)
        old = _mix_flows(old, run, 0.5, stream(7, SUBSAMPLE, it))
        check(old, run, want)
    run = fresh_run()
    want = run.X.copy()
    check(_mix_flows(old, run, 1.0, stream(7, SUBSAMPLE, 4)), run, want)


def test_studies_hold_one_run_at_a_time(monkeypatch):
    """No run outlives its last reader: when a study calls simulate, every
    run an earlier call returned is already freed, by reference counting
    alone (gc is off).  Flows a study discards go too: counted over the
    study's own runs, only the X arrays it still reads are alive, and a mix
    writes its iterate into the X of the run it mixes in.  The exploitability
    rollout sees only the iterate: the last loop run and its flow are gone,
    and the rollout's flow becomes the report's.  Every study run is lean:
    under tracemalloc (the strict study) each solve run adds its X and a few
    N-vectors to the live bytes, no K, |K| or control indices (the first run
    also draws the study's noise block), and each mix adds at most one
    frame's kept paths and a few N-vectors.  The exploitability run, which
    holds the noise, the iterate and its own X, peaks no higher than any
    loop run.  The closing runs (the relaxed reference and the chattered
    ones) store no X: each adds a few N-vectors, its peak rises less than an
    X above what it found, and the relaxed one keeps its law, not an
    (M, N, nU) weight record."""
    refs, calls, study, peaks = [], [], ["solve"], []
    # traced: per run, the growth of the live bytes, its X bytes and the
    # rise of its peak over the live bytes; per mix, the growth of the peak
    # over the live bytes; the peak before a mix
    growth, mix_growth, mix_studies, carried = [], [], [], [0]

    def tracked(real):
        def run(*args, **kwargs):
            if tracemalloc.is_tracing():  # the peak since the previous run began
                peaks.append(max(carried[0], tracemalloc.get_traced_memory()[1]))
                carried[0] = 0
                tracemalloc.reset_peak()
            own = [x for s, _, x in refs if s == study[0]]
            calls.append((study[0], sum(b() is not None for _, b, _ in refs),
                          tuple(i for i, x in enumerate(own) if x() is not None)))
            live = tracemalloc.get_traced_memory()[0]
            out = real(*args, **kwargs)
            x = out[0].X
            if tracemalloc.is_tracing():
                live_now, in_run = tracemalloc.get_traced_memory()
                growth.append((live_now - live, 0 if x is None else x.nbytes,
                               in_run - live))
            refs.append((study[0], weakref.ref(out[0]),
                         (lambda: None) if x is None else weakref.ref(x)))
            return out
        return run

    def tracked_mix(*args):
        mix_studies.append((study[0], sum(b() is not None for _, b, _ in refs)))
        if not tracemalloc.is_tracing():
            return real_mix(*args)
        carried[0] = max(carried[0], tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]
        out = real_mix(*args)
        mix_growth.append(tracemalloc.get_traced_memory()[1] - live)
        return out

    real_mix = equilibrium._mix_flows
    monkeypatch.setattr(equilibrium, "simulate", tracked(equilibrium.simulate))
    monkeypatch.setattr(dp, "simulate", tracked(dp.simulate))
    monkeypatch.setattr(equilibrium, "_mix_flows", tracked_mix)
    ms = lq_model(gamma=0.25)
    cfg = FixedPointConfig(  # tol out of reach: every iteration runs
        sim=SimConfig(n_particles=300, dt=0.0125, seed=9),
        grid=DPGrid.regular([0.0], [1.0], 0.05),
        damping=0.5, max_iters=3, tol=1e-9,
    )
    gc_on = gc.isenabled()
    gc.disable()
    try:
        solve_equilibrium(ms, cfg)
        study[0] = "strict"
        tracemalloc.start()
        try:
            strict_approximation_run(ms, cfg, deltas=[0.2, 0.1], n0=2.0,
                                     epsilon=0.25)
            peaks.append(max(carried[0], tracemalloc.get_traced_memory()[1]))
        finally:
            tracemalloc.stop()
        study[0] = "sweep"
        penalization_sweep(ms, cfg, [8, 32])
    finally:
        if gc_on:
            gc.enable()
    # 5 runs per solve (start-up, 3 iterations, exploitability)
    per_study = {"solve": 5, "strict": 5 + 3, "sweep": 3 * 5}
    assert [s for s, _, _ in calls] == [s for s, k in per_study.items()
                                        for _ in range(k)]
    assert [b for _, b, _ in calls] == [0] * len(calls), calls
    # the live X of each run of a solve, by index among the study's runs:
    # the start-up run's X is the first iterate, each mixing run's X the next
    # one; the rollout sees the last iterate, not the last loop run's X, and
    # its own X is the report flow that a later run of the study reads
    solve = [(), (0,), (1,), (2,), (2,)]

    def level(first):  # a penalized solve beside the reference's report flow
        return [(4,) + tuple(first + i for i in alive) for alive in solve]

    live_x = {s: [x for t, _, x in calls if t == s] for s in per_study}
    assert live_x == {"solve": solve, "strict": solve + [(4,)] * 3,
                      "sweep": solve + level(5) + level(10)}, calls
    # two mixes per solve (the last iteration does not mix), each with only
    # its iteration's run alive, whose X the mix writes the iterate into
    assert mix_studies == [(s, 1) for s in ("solve", "strict", "sweep",
                                            "sweep", "sweep") for _ in range(2)]
    # a lean run adds its X, its flow's frame objects and a few N-vectors;
    # a full bundle's K, |K| and indices would add about 90 N-vectors more;
    # strict runs: start-up, 3 iterations, exploitability, relaxed, 2 chattered
    noise, x_bytes, few = 40 * 300 * 8, 41 * 300 * 8, 16 * 8 * 300
    assert [x for _, x, _ in growth] == [x_bytes] * 5 + [0] * 3, growth
    for i, (added, x, _) in enumerate(growth):
        assert added <= x + (noise if i == 0 else 0) + few, growth
    # a mix holds one frame's 150 kept rows at a time, no (M+1, 150, d) copy
    assert len(mix_growth) == 2
    assert all(added <= 150 * 8 + few for added in mix_growth), mix_growth
    # from a run's start to the next's, the rollout holds no more than any
    # loop run did; inside its run, a closing run rises less than an X above
    # what it found, and the rollout, which fills its X, rises more
    assert len(peaks) == 9
    assert peaks[5] <= min(peaks[1:5]) + few, peaks
    assert all(rise < x_bytes for _, _, rise in growth[5:]) \
        and growth[4][2] >= x_bytes, growth
