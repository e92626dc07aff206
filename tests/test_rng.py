"""Counter-based streams and the study-scoped noise block."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import penmfg
from penmfg import domain, model, rng
from penmfg.dp import DPGrid
from penmfg.equilibrium import FixedPointConfig, strict_approximation_run
from penmfg.simulate import SimConfig
from test_cli import run_cli, write_cfg

SRC = Path(penmfg.__file__).resolve().parent.parent


def fresh(seed, step, n, m):
    return rng.stream(seed, rng.NOISE, step).standard_normal((n, m))


def test_outside_a_block_every_call_draws_afresh():
    a = rng.step_normals(3, 2, 50, 2)
    b = rng.step_normals(3, 2, 50, 2)
    assert a is not b and a.flags.writeable
    assert a.tobytes() == b.tobytes() == fresh(3, 2, 50, 2).tobytes()


def test_block_hands_out_one_read_only_draw_per_step():
    with rng.shared_noise():
        first = rng.step_normals(7, 4, 100, 2)
        assert first.tobytes() == fresh(7, 4, 100, 2).tobytes()
        assert rng.step_normals(7, 4, 100, 2) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 1.0
        with pytest.raises(ValueError):
            first += 1.0


def test_nested_entry_reuses_the_outer_block():
    with rng.shared_noise():
        outer = rng.step_normals(1, 0, 30, 1)
        with rng.shared_noise():
            assert rng.step_normals(1, 0, 30, 1) is outer
            inner = rng.step_normals(1, 9, 30, 1)
        # leaving the nested entry keeps the block
        assert rng.step_normals(1, 9, 30, 1) is inner
    assert rng._block is None
    assert rng.step_normals(1, 9, 30, 1) is not inner


def test_leaving_the_block_releases_it_also_when_the_body_raises():
    with pytest.raises(RuntimeError):
        with rng.shared_noise():
            rng.step_normals(2, 0, 10, 1)
            assert len(rng._block) == 1
            raise RuntimeError("study failed")
    assert rng._block is None

    @rng.shared_noise()
    def study():
        rng.step_normals(2, 0, 10, 1)
        raise KeyError("study failed")

    with pytest.raises(KeyError):
        study()
    assert rng._block is None


def test_different_seed_step_or_shape_never_shares_a_draw():
    with rng.shared_noise():
        base = rng.step_normals(5, 0, 40, 1)
        for key in [(6, 0, 40, 1), (5, 1, 40, 1), (5, 0, 41, 1), (5, 0, 40, 2)]:
            other = rng.step_normals(*key)
            assert other is not base
            assert other.tobytes() == fresh(*key).tobytes()
        assert len(rng._block) == 5


def test_a_study_draws_each_step_once(monkeypatch):
    """Every simulation of a 20-step study on one seed shares 20 noise draws."""
    ms = model.make_preset("lq_control", domain.box([0.0], [1.0]),
                           {"sigma": 0.4, "horizon": 0.25, "x0": 0.4})
    sim = SimConfig(n_particles=50, dt=0.0125, seed=8)
    cfg = FixedPointConfig(sim=sim, grid=DPGrid.regular([0.0], [1.0], 0.05),
                           max_iters=3)
    opened, calls = [], []
    stream, step_normals = rng.stream, rng.step_normals

    def counted_stream(seed, purpose, step=0):
        if purpose == rng.NOISE:
            opened.append(step)
        return stream(seed, purpose, step)

    def counted_normals(*args):
        calls.append(args)
        return step_normals(*args)

    monkeypatch.setattr(rng, "stream", counted_stream)
    monkeypatch.setattr("penmfg.simulate.step_normals", counted_normals)
    strict_approximation_run(ms, cfg, [0.05, 0.025], n0=2.0, epsilon=0.25)
    assert sorted(opened) == list(range(20))
    # a start, >= 1 iteration, exploitability, the reference, two chattered runs
    assert len(calls) % 20 == 0 and len(calls) >= 6 * 20
    assert rng._block is None


def test_chatter_then_simulate_in_one_process_matches_fresh_processes(tmp_path):
    cfg = write_cfg(tmp_path)
    chatter = ["chatter", "--config", cfg, "--override", "sim.dt=0.0125",
               "--override", "sweep.deltas=0.1 0.05", "--override", "sweep.n0=2",
               "--override", "sweep.epsilon=0.25"]
    simulate = ["simulate", "--config", cfg, "--override", "sim.dt=0.0125"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for name, argv in (("chatter", chatter), ("simulate", simulate)):
        assert run_cli(*argv, "--out", str(tmp_path / "one" / name)) == 0
        subprocess.run([sys.executable, "-m", "penmfg", *argv,
                        "--out", str(tmp_path / "fresh" / name)],
                       env=env, check=True, capture_output=True)
    assert rng._block is None
    for name in ("chatter", "simulate"):
        one, alone = tmp_path / "one" / name, tmp_path / "fresh" / name
        files = sorted(p.name for p in alone.iterdir())
        assert files == sorted(p.name for p in one.iterdir()) and len(files) >= 3
        for f in files:
            assert (one / f).read_bytes() == (alone / f).read_bytes(), f
