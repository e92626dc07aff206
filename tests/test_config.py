"""Config format: parsing, validation with line numbers, round-tripping."""

from dataclasses import fields
from pathlib import Path

import pytest

from penmfg import config
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
    assert cfg.sim.get("penalty") is None
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


def test_scheme_is_an_unknown_sim_key():
    # the penalty alone picks penalized or reflected, so no key selects a scheme
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "scheme = reflected_projected\n")
    line = len(MINIMAL.splitlines()) + 1
    assert err.value.line == line
    assert str(err.value) == f"line {line}: unknown key 'scheme' in [sim]"
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL, ["sim.scheme=penalized_splitting"])
    assert str(err.value).startswith("override 'sim.scheme=penalized_splitting'")
    assert "unknown key 'scheme' in [sim]" in str(err.value)


@pytest.mark.parametrize("entry, line, message", [
    ("n_particles = 0", 26, "n_particles must be at least 1"),
    ("dt = -0.001", 27, "dt must be positive and finite"),
])
def test_sim_errors_cite_the_key_they_name(entry, line, message):
    text = (CONFIGS / "half_line_bm.cfg").read_text(encoding="utf-8")
    key = entry.split()[0]
    bad = "\n".join(entry if row.startswith(f"{key} =") else row
                    for row in text.splitlines())
    assert bad.splitlines()[line - 1] == entry
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert str(err.value) == f"line {line}: [sim] {message}"
    override = f"sim.{key}={entry.split()[-1]}"
    with pytest.raises(ConfigError) as err:
        parse_config(text, [override])
    assert str(err.value) == f"override {override!r}: [sim] {message}"


def test_type_mismatch_cites_the_line():
    bad = MINIMAL.replace("dt = 0.05", "dt = fast")
    with pytest.raises(ConfigError, match="float") as err:
        parse_config(bad)
    line = MINIMAL.splitlines().index("dt = 0.05") + 1
    assert err.value.line == line
    assert str(err.value) == f"line {line}: sim.dt expected float, got 'fast'"


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
    # a [domain] key can be overridden; a box's bounds are no ball's keys
    with pytest.raises(ConfigError, match="unknown key 'lower' for domain kind 'ball'"):
        apply_overrides(cfg, ["domain.kind=ball"])
    assert apply_overrides(cfg, ["domain.upper=2"]).domain["upper"] == (2.0,)
    # an override violating a range guard is caught by re-validation
    with pytest.raises(ConfigError, match="penalty"):
        apply_overrides(cfg, ["sim.penalty=-2"])


def test_overrides_are_validated_in_place():
    """Overrides are read with the config's own text, not its canonical form:
    values keep a '#', patched keys leave the defaults log, and errors name
    the override."""
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


@pytest.mark.parametrize("command, config, overrides, message", [
    ("dp", "half_line_bm.cfg", [], "the dp command needs [dp] hx"),
    ("chatter", "half_line_bm.cfg", [], "the chatter command needs [dp] hx"),
    ("chatter", "lq_box_chatter.cfg",
     ["sim.penalty=64"],
     "override 'sim.penalty=64': [sim] chatter starts from the reflected"
     " equilibrium; drop the penalty"),
])
def test_study_needs_checked_at_parse_time(tmp_path, capsys, command, config,
                                           overrides, message):
    """dp and chatter without [dp] hx, and chatter on a penalized base, fail
    before any output is written."""
    out = tmp_path / "out"
    argv = [command, "--config", str(CONFIGS / config), "--out", str(out)]
    for item in overrides:
        argv += ["--override", item]
    assert main(argv) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def _edited(tmp_path, config, *edits):
    """A copy of a shipped config with each (old, new) text replaced."""
    text = (CONFIGS / config).read_text()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / config
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("command, config, old, new, override, artifact", [
    ("simulate", "half_line_bm.cfg", "dt = 0.001", "dt = 0.003", "sim.dt=0.001",
     "paths.csv"),
    ("dp", "lq_box.cfg", "hx = 0.025", "", "dp.hx=0.025", "value.csv"),
])
def test_an_override_repairs_its_file(tmp_path, command, config, old, new, override,
                                      artifact):
    """The file and its overrides are validated together, so an override can
    mend a dt that does not divide the horizon, or supply a missing hx."""
    cfg = _edited(tmp_path, config, (old, new))
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), "--override", override,
                 "--override", "sim.n_particles=50"]) == 0
    assert (out / artifact).exists() and (out / "report.txt").exists()


def test_domain_keys_can_be_overridden(tmp_path, capsys):
    cfg = str(CONFIGS / "half_line_bm.cfg")
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--override", "domain.offset=0.5",
                 "--override", "sim.n_particles=50"]) == 0
    assert (out / "paths.csv").exists()
    bad = tmp_path / "bad"
    assert main(["simulate", "--config", cfg, "--out", str(bad),
                 "--override", "domain.offset=-1"]) == 1
    assert capsys.readouterr().err.startswith(
        "error: override 'domain.offset=-1': [domain] ")
    assert not bad.exists()


def test_chatter_refuses_one_control_before_any_output(tmp_path, capsys):
    """One control atom leaves nothing to relax: refused when the config is
    read, not after the base equilibrium is solved."""
    cfg = _edited(tmp_path, "lq_box_chatter.cfg",
                  ("preset = lq_control\n", "preset = reflected_ou_mf\n"),
                  ("c = 1.0\ngamma = 0.25\n", ""))
    out = tmp_path / "out"
    assert main(["chatter", "--config", cfg, "--out", str(out)]) == 1
    assert "[model] chatter relaxes a DP law over at least 2 control atoms" in \
        capsys.readouterr().err
    assert not out.exists()


def test_chatter_refuses_zero_iterations_before_any_output(tmp_path, capsys):
    """No iteration leaves no DP law to relax: refused when the config is
    read, at the override that set it, before --out is made."""
    out = tmp_path / "out"
    assert main(["chatter", "--config", str(CONFIGS / "lq_box_chatter.cfg"),
                 "--out", str(out), "--override", "fixed_point.max_iters=0"]) == 1
    assert capsys.readouterr().err.startswith(
        "error: override 'fixed_point.max_iters=0': [fixed_point] chatter relaxes"
        " the DP law of a solve that runs at least one iteration")
    assert not out.exists()


BALL_DP = """\
[run]
command = dp

[domain]
kind = ball
center = 0 0
radius = 1

[model]
preset = lq_control
x0 = 0.1 0.1
control_grid = -1 0; 1 0; 0 -1; 0 1; 0 0

[sim]
n_particles = 50
dt = 0.05

[dp]
hx = 0.1
"""


@pytest.mark.parametrize("command", ["dp", "equilibrium", "sweep-n", "chatter"])
def test_reflected_grid_outside_the_domain_is_refused_before_any_output(
        tmp_path, capsys, command):
    """The unit ball's bounding-box grid has its corners outside the ball: a
    reflected solve (sweep-n's reference and chatter's base always are) is
    refused at the hx line when the config is read, before --out is made."""
    path = tmp_path / "ball.cfg"
    path.write_text(BALL_DP, encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: line 19: [dp] reflected-mode grid has nodes outside the domain"
        " (first: [-1. -1.])")
    assert not out.exists()


@pytest.mark.parametrize("command, overrides, artifact", [
    ("dp", ["--override", "sim.penalty=8"], "value.csv"),
    ("diagnose", [], "report.txt"),  # reads the grid, solves nothing on it
], ids=["dp-penalized", "diagnose"])
def test_grid_beyond_the_domain_is_accepted_off_reflected_solves(
        tmp_path, command, overrides, artifact):
    path = tmp_path / "ball.cfg"
    path.write_text(BALL_DP, encoding="utf-8")
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out"),
                 *overrides]) == 0
    assert (tmp_path / "out" / artifact).exists()


def test_each_invocation_validates_once(tmp_path, monkeypatch):
    calls = []
    validate = config._validate_builds
    monkeypatch.setattr(config, "_validate_builds",
                        lambda cfg: calls.append(cfg) or validate(cfg))
    assert main(["diagnose", "--config", str(CONFIGS / "lq_box.cfg"), "--seed", "3",
                 "--out", str(tmp_path / "out"), "--override", "sim.penalty=64"]) == 0
    assert len(calls) == 1


LQ_2D = """\
[run]
command = diagnose

[domain]
kind = box
lower = 0 0
upper = 1 1

[model]
preset = lq_control
sigma = 0.4
horizon = 0.5
x0 = 0.4 0.4
control_grid = -1 0; 1 0; 0 -1; 0 1; 0 0

[sim]
n_particles = 200
dt = 0.0125

[dp]
hx = 0.1
"""


def test_model_rows_build_a_2d_control_set(tmp_path):
    cfg_path = tmp_path / "lq_2d.cfg"
    cfg_path.write_text(LQ_2D)
    assert main(["diagnose", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 0
    report = (tmp_path / "out" / "report.txt").read_text()
    assert ("control_grid = [[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0],"
            " [0.0, 0.0]]") in report
    assert build_model(parse_config(LQ_2D)).atoms.shape == (5, 2)


def test_ragged_model_rows_name_their_key(tmp_path, capsys):
    cfg_path = tmp_path / "lq_2d.cfg"
    cfg_path.write_text(LQ_2D.replace("0 1; 0 0", "0 1; 0"))
    assert main(["diagnose", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "line 14: [model] model parameter 'control_grid'" in err
    assert not (tmp_path / "out").exists()


def test_model_rows_round_trip():
    cfg = parse_config(LQ_2D)
    assert cfg.model["control_grid"] == ((-1.0, 0.0), (1.0, 0.0), (0.0, -1.0),
                                         (0.0, 1.0), (0.0, 0.0))
    text = serialize(cfg)
    assert "control_grid = -1.0 0.0; 1.0 0.0; 0.0 -1.0; 0.0 1.0; 0.0 0.0" in text
    assert parse_config(text) == cfg
