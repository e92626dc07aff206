"""Config format: parsing, validation with line numbers, round-tripping."""

from dataclasses import fields
from pathlib import Path

import pytest

from penmfg.cli import main
from penmfg.config import (
    _SCHEMA,
    RunConfig,
    apply_overrides,
    build_domain,
    build_fixed_point,
    build_grid,
    build_model,
    build_sim,
    config_hash,
    parse_config,
    serialize,
)
from penmfg.errors import ConfigError
from penmfg.simulate import SimConfig

CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"

MINIMAL = """\
[run]
command = simulate

[domain]
kind = box
lower = 0
upper = 1

[model]
preset = reflected_bm

[sim]
n_particles = 20
dt = 0.05
scheme = reflected_projected
"""

FULL = """\
[run]
command = equilibrium
seed = 11
out = runs/demo

[domain]
kind = box
lower = 0
upper = 1

[model]
preset = lq_control
sigma = 0.4
horizon = 0.5
c = 1.0
gamma = 0.5
x0 = 0.4
control_grid = -1 0 1

[sim]
n_particles = 500
dt = 0.005
scheme = penalized_splitting
penalty = 128

[dp]
hx = 0.05

[fixed_point]
damping = 0.5
max_iters = 30
tol = 0.05
tol_exploit = 0.05

[sweep]
n_list = 8 32 128
deltas = 0.2 0.1 0.05
n0 = 8.0
epsilon = 0.1
"""


def test_minimal_config_applies_documented_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.command == "simulate"
    assert cfg.seed == 0 and cfg.out == "out"
    assert cfg.sim["scheme"] == "reflected_projected"
    assert cfg.fixed_point["damping"] == 0.5
    joined = "\n".join(cfg.defaults_applied)
    assert "run.seed = 0" in joined
    assert "fixed_point.max_iters = 30" in joined


def test_full_config_round_trips():
    cfg = parse_config(FULL)
    assert parse_config(serialize(cfg)) == cfg
    assert config_hash(cfg) == config_hash(parse_config(serialize(cfg)))


def test_round_trip_all_domain_kinds():
    for body in (
        "kind = ball\ncenter = 0 0\nradius = 2.0",
        "kind = half_space\nnormal = -1 0\noffset = 0.5",
        "kind = polytope\nnormals = 1 0; 0 1; -1 -1\noffsets = 1 1 0.5",
    ):
        text = MINIMAL.replace("kind = box\nlower = 0\nupper = 1", body)
        cfg = parse_config(text)
        assert parse_config(serialize(cfg)) == cfg
        dom = build_domain(cfg)
        assert dom.dim == 2


def test_unknown_key_cites_the_line():
    text = MINIMAL + "foo = 1\n"
    with pytest.raises(ConfigError, match="foo"):
        parse_config(text)
    try:
        parse_config(text)
    except ConfigError as exc:
        assert exc.line == len(MINIMAL.splitlines()) + 1
        assert str(exc).startswith(f"line {exc.line}:")


def test_sim_keys_are_the_simconfig_fields():
    # the seed is the [run] seed; every other SimConfig field is one [sim] key
    assert list(_SCHEMA["sim"]) == [f.name for f in fields(SimConfig)
                                    if f.name != "seed"]


def test_interaction_is_an_unknown_sim_key():
    # a run is frozen when it is handed a flow, so no key selects it
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "interaction = self\n")
    line = len(MINIMAL.splitlines()) + 1
    assert err.value.line == line
    assert str(err.value) == f"line {line}: unknown key 'interaction' in [sim]"


def test_type_mismatch_cites_the_line():
    bad = MINIMAL.replace("dt = 0.05", "dt = fast")
    with pytest.raises(ConfigError, match="float") as err:
        parse_config(bad)
    assert err.value.line == MINIMAL.splitlines().index("dt = 0.05") + 1


def test_explicit_stability_guard_fires_at_parse_time():
    bad = MINIMAL.replace("scheme = reflected_projected",
                          "scheme = penalized_explicit\npenalty = 64")
    with pytest.raises(ConfigError, match="stability") as err:
        parse_config(bad)
    assert err.value.line is not None


def test_unknown_model_parameter_cites_its_line():
    bad = MINIMAL.replace("preset = reflected_bm",
                          "preset = reflected_bm\nsigma = 1.0\nbogus = 2")
    with pytest.raises(ConfigError, match="bogus") as err:
        parse_config(bad)
    lines = bad.splitlines()
    assert err.value.line == lines.index("bogus = 2") + 1


def test_structural_errors():
    with pytest.raises(ConfigError, match="section"):
        parse_config("[nope]\n")
    with pytest.raises(ConfigError, match="outside"):
        parse_config("key = 1\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("[run]\nseed = 1\nseed = 2\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config("[run]\njust words\n")
    with pytest.raises(ConfigError, match=r"\[domain\]"):
        parse_config("[run]\ncommand = simulate\n")
    with pytest.raises(ConfigError, match="command"):
        parse_config(MINIMAL.replace("command = simulate",
                                     "command = explode"))


def test_negative_seed_rejected():
    bad = MINIMAL.replace("command = simulate", "command = simulate\nseed = -4")
    with pytest.raises(ConfigError, match="seed"):
        parse_config(bad)


def test_domain_kind_validation():
    with pytest.raises(ConfigError, match="kind"):
        parse_config(MINIMAL.replace("kind = box", "kind = torus"))
    with pytest.raises(ConfigError, match="radius"):
        parse_config(MINIMAL.replace("kind = box\nlower = 0\nupper = 1",
                                     "kind = ball\ncenter = 0 0"))
    with pytest.raises(ConfigError, match="radius"):
        parse_config(MINIMAL.replace("kind = box\nlower = 0\nupper = 1",
                                     "kind = box\nlower = 0\nradius = 1"))


def test_builders_produce_working_objects():
    cfg = parse_config(FULL)
    dom = build_domain(cfg)
    ms = build_model(cfg, dom)
    assert ms.params["control_grid"] == [[-1.0], [0.0], [1.0]] and ms.dim == 1
    sim = build_sim(cfg)
    assert sim.penalty == 128 and sim.seed == 11
    grid = build_grid(cfg, ms)
    assert grid.n_nodes == 21
    fp = build_fixed_point(cfg, sim, grid)
    assert fp.max_iters == 30 and fp.grid is grid


def test_overrides_patch_and_revalidate():
    cfg = parse_config(FULL)
    patched = apply_overrides(cfg, ["sim.penalty=64", "model.sigma=0.5",
                                    "run.seed=7", "sweep.n_list=4 8"])
    assert patched.sim["penalty"] == 64
    assert patched.model["sigma"] == 0.5
    assert patched.seed == 7
    assert patched.sweep["n_list"] == (4, 8)
    assert cfg.sim["penalty"] == 128  # original untouched
    with pytest.raises(ConfigError, match="override"):
        apply_overrides(cfg, ["sim.bogus=1"])
    with pytest.raises(ConfigError, match="override"):
        apply_overrides(cfg, ["no_equals_sign"])
    with pytest.raises(ConfigError, match="domain"):
        apply_overrides(cfg, ["domain.kind=ball"])
    # an override violating a range guard is caught by re-validation
    with pytest.raises(ConfigError, match="penalty"):
        apply_overrides(cfg, ["sim.penalty=-2"])


def test_overrides_are_validated_in_place():
    """No round trip through the canonical text: values keep a '#', patched
    keys leave the defaults log, and errors name the override."""
    cfg = parse_config(MINIMAL)
    patched = apply_overrides(cfg, ["run.out=runs/o#2", "fixed_point.max_iters=3"])
    assert patched.out == "runs/o#2" and patched.fixed_point["max_iters"] == 3
    assert "fixed_point.max_iters = 30" in cfg.defaults_applied
    assert patched.defaults_applied == tuple(
        entry for entry in cfg.defaults_applied
        if not entry.startswith(("run.out", "fixed_point.max_iters")))
    with pytest.raises(ConfigError) as err:
        apply_overrides(parse_config(FULL), ["sim.penalty=-2"])
    assert err.value.line is None
    assert str(err.value).startswith("override 'sim.penalty=-2': [sim] ")


def test_serialize_refuses_a_value_holding_a_hash_sign():
    """'#' starts a comment, so such a value has no canonical text; the
    hash normalizes ``out`` and still works."""
    cfg = apply_overrides(parse_config(MINIMAL), ["run.out=o#2"])
    with pytest.raises(ConfigError, match=r"run\.out = 'o#2'"):
        serialize(cfg)
    clean = apply_overrides(cfg, ["run.out=o"])
    assert config_hash(cfg) == config_hash(clean)
    assert parse_config(serialize(clean)) == clean


def test_hash_tracks_content():
    cfg = parse_config(FULL)
    other = apply_overrides(cfg, ["sim.penalty=64"])
    assert config_hash(cfg) != config_hash(other)
    assert config_hash(cfg) == config_hash(parse_config(FULL))


def test_comments_and_blank_lines_ignored():
    text = MINIMAL.replace("[sim]", "# leading comment\n\n[sim]  # trailing")
    cfg = parse_config(text)
    assert cfg.sim["n_particles"] == 20


def test_runconfig_equality_ignores_default_log():
    a = parse_config(MINIMAL)
    b = parse_config(serialize(a))
    assert a == b
    assert a.defaults_applied != b.defaults_applied
    assert isinstance(a, RunConfig)


@pytest.mark.parametrize("command, config, override", [
    ("chatter", "lq_box_chatter.cfg", "sweep.n0=-5"),
    ("chatter", "lq_box_chatter.cfg", "sweep.n0=0"),
    ("chatter", "lq_box_chatter.cfg", "sweep.n0=nan"),
    ("chatter", "lq_box_chatter.cfg", "sweep.deltas=0.013 0.1"),
    ("chatter", "lq_box_chatter.cfg", "sweep.deltas=0.2 -0.1"),
    ("sweep-n", "lq_box.cfg", "sweep.n_list=8 0"),
    ("chatter", "lq_box_chatter.cfg", "sweep.deltas="),
    ("sweep-n", "lq_box.cfg", "sweep.n_list="),
])
def test_sweep_levels_checked_at_parse_time(tmp_path, capsys, command, config,
                                            override):
    """A study level that its command cannot run fails before any solve (no
    output directory is made) and the error names the override."""
    out = tmp_path / "out"
    assert main([command, "--config", str(CONFIGS / config), "--out", str(out),
                 "--override", override]) == 1
    assert f"override {override!r}: [sweep] " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, config, override, section", [
    ("simulate", "half_line_bm.cfg", "sim.dt=0.003", "sim"),
    ("dp", "lq_box.cfg", "dp.hx=0.03", "dp"),
])
def test_time_step_and_grid_checked_at_parse_time(tmp_path, capsys, command, config,
                                                  override, section):
    """A dt that does not divide the horizon, or an hx that does not tile the
    box, fails before any step and the error names the override."""
    out = tmp_path / "out"
    assert main([command, "--config", str(CONFIGS / config), "--out", str(out),
                 "--override", override]) == 1
    assert f"override {override!r}: [{section}] " in capsys.readouterr().err
    assert not out.exists()


def test_chatter_deltas_are_checked_only_for_chatter():
    """lq_box.cfg's deltas do not divide its dt; only chatter reads them."""
    cfg = parse_config((CONFIGS / "lq_box.cfg").read_text())
    with pytest.raises(ConfigError, match="whole multiple"):
        apply_overrides(cfg, ["run.command=chatter"])
