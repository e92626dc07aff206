"""Command line front end: artifacts, exit codes, byte-stable reruns."""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy

from penmfg import cli, measures
from penmfg.cli import main
from penmfg.config import build_model, build_sim, parse_config_file
from penmfg.controls import constant_law
from penmfg.simulate import evaluate_cost, simulate
from test_simulate import (
    assert_no_helper_left,
    reference_flow_csv,
    reference_paths_csv,
    refuse_parts,
)

CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"

BASE = """\
[run]
command = simulate
seed = 5

[domain]
kind = box
lower = 0
upper = 1

[model]
preset = lq_control
sigma = 0.4
horizon = 0.25
c = 1.0
gamma = 0.5
x0 = 0.4

[sim]
n_particles = 60
dt = 0.025
scheme = reflected_projected

[dp]
hx = 0.05

[fixed_point]
damping = 0.5
max_iters = 6
tol = 0.05
"""


def write_cfg(tmp_path, text=BASE, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_cli(*argv):
    return main(list(argv))


def test_simulate_writes_expected_artifacts(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "sim"
    assert run_cli("simulate", "--config", cfg, "--out", str(out)) == 0
    for name in ("paths.csv", "flow.csv", "report.txt", "manifest.txt"):
        assert (out / name).exists()
    lines = (out / "paths.csv").read_text().splitlines()
    assert lines[0] == "t,particle,x_1,k_1,kvar"
    assert len(lines) == 1 + 60 * (10 + 1)  # header + N * (M+1)
    manifest = (out / "manifest.txt").read_text()
    assert "seed = 5" in manifest and "config_sha256 = " in manifest
    # the Philox-to-normal bytes depend on numpy, so the run records it
    assert f"python = {sys.version.split()[0]}\n" in manifest
    assert f"numpy = {np.__version__}\n" in manifest
    assert f"scipy = {scipy.__version__}\n" in manifest


def test_identical_runs_are_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli("simulate", "--config", cfg, "--out", str(out_a)) == 0
    assert run_cli("simulate", "--config", cfg, "--out", str(out_b)) == 0
    for name in ("paths.csv", "flow.csv", "report.txt", "manifest.txt"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_seed_flag_changes_the_draws(tmp_path):
    cfg = write_cfg(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli("simulate", "--config", cfg, "--out", str(out_a)) == 0
    assert run_cli("simulate", "--config", cfg, "--out", str(out_b),
                   "--seed", "99") == 0
    assert (out_a / "paths.csv").read_bytes() \
        != (out_b / "paths.csv").read_bytes()
    assert "seed = 99" in (out_b / "manifest.txt").read_text()


def test_simulate_csvs_match_per_cell_writers(tmp_path):
    """paths.csv and flow.csv, written in one pass that shares the x strings
    and keeps K/Kvar strings while they hold, equal the per-cell writers on
    an independent rerun of the same simulation."""
    cfg = write_cfg(tmp_path)
    parsed = parse_config_file(cfg)
    ms = build_model(parsed)
    paths, flow = simulate(ms, build_sim(parsed), constant_law(ms.atoms))
    held = paths.Kvar[1:] == paths.Kvar[:-1]
    assert held.any() and not held.all()  # K/Kvar cells both hold and move
    out = tmp_path / "simulate"
    assert run_cli("simulate", "--config", cfg, "--out", str(out)) == 0
    assert (out / "paths.csv").read_bytes() == reference_paths_csv(paths)
    assert (out / "flow.csv").read_bytes() == reference_flow_csv(flow)


def test_simulate_reports_the_path_readers_cost(tmp_path):
    """simulate's report ends with the cost lines, summed by the run as it
    stepped, which print evaluate_cost on a kept run of the same config and
    seed."""
    cfg = write_cfg(tmp_path, BASE.replace("x0 = 0.4", "x0 = 0.4\nh_const = 1.5"))
    out = tmp_path / "simulate"
    assert run_cli("simulate", "--config", cfg, "--out", str(out)) == 0
    parsed = parse_config_file(cfg)
    ms = build_model(parsed)
    paths, flow = simulate(ms, build_sim(parsed), constant_law(ms.atoms))
    want = evaluate_cost(ms, paths, flow)
    assert want.boundary > 0.0  # the boundary charge is exercised
    ff = measures.format_float
    report = (out / "report.txt").read_text().splitlines()
    assert report[-4:] == [f"cost {ff(want.value)} +/- {ff(want.stderr)}",
                           f"  running  {ff(want.running)}",
                           f"  boundary {ff(want.boundary)}",
                           f"  terminal {ff(want.terminal)}"]


def test_dp_command_writes_value_table(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "dp"
    assert run_cli("dp", "--config", cfg, "--out", str(out)) == 0
    lines = (out / "value.csv").read_text().splitlines()
    assert lines[0] == "t,x_1,value,u_index"
    assert len(lines) == 1 + (10 + 1) * 21
    assert lines[-1].endswith(",-1")  # terminal slice has no control


def test_dp_command_reads_its_flow_off_a_lean_run(tmp_path, monkeypatch):
    """dp reads only the uncontrolled run's flow, so its run keeps no K or
    |K| beside X."""
    runs = []

    def spy(*args, **kwargs):
        out = simulate(*args, **kwargs)
        runs.append(out[0])
        return out

    monkeypatch.setattr(cli, "simulate", spy)
    cfg = write_cfg(tmp_path)
    assert run_cli("dp", "--config", cfg, "--out", str(tmp_path / "dp")) == 0
    assert len(runs) == 1 and runs[0].K is None and runs[0].Kvar is None


def test_equilibrium_exit_codes(tmp_path, monkeypatch):
    """0 for a converged solve; 2 for one that did not converge, and for a
    converged one whose exploitability is marked [FLAGGED] or [CLIPPED]."""
    cfg = write_cfg(tmp_path)
    out = tmp_path / "eq"
    assert run_cli("equilibrium", "--config", cfg, "--out", str(out)) == 0
    assert (out / "flow.csv").exists() and (out / "value.csv").exists()
    assert "converged True" in (out / "report.txt").read_text()
    out2 = tmp_path / "eq0"
    code = run_cli("equilibrium", "--config", cfg, "--out", str(out2),
                   "--override", "fixed_point.max_iters=0")
    assert code == 2
    assert "NOT CONVERGED" in (out2 / "report.txt").read_text()
    out3 = tmp_path / "flagged"
    assert run_cli("equilibrium", "--config", cfg, "--out", str(out3),
                   "--override", "fixed_point.tol_exploit=1e-9") == 2
    report = (out3 / "report.txt").read_text()
    assert "converged True" in report and "[FLAGGED]" in report
    assert "[CLIPPED]" not in report
    solve = cli.solve_equilibrium

    def clipped_solve(ms, fp):
        rep = solve(ms, fp)
        rep.exploitability = replace(rep.exploitability, clipped=True)
        return rep

    monkeypatch.setattr(cli, "solve_equilibrium", clipped_solve)
    out4 = tmp_path / "clipped"
    assert run_cli("equilibrium", "--config", cfg, "--out", str(out4)) == 2
    report = (out4 / "report.txt").read_text()
    assert "converged True" in report and "[CLIPPED]" in report
    assert "[FLAGGED]" not in report


def test_cost_is_not_a_command(tmp_path, capsys):
    """The simulate command prints the cost, so `cost` is refused both as
    the positional command and as [run] command, before --out is made."""
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_cli("cost", "--config", cfg, "--out", str(out))
    assert exc.value.code == 2  # argparse's usage error
    assert "invalid choice: 'cost'" in capsys.readouterr().err
    assert run_cli("--config", cfg, "--out", str(out),
                   "--override", "run.command=cost") == 1
    assert capsys.readouterr().err == (
        "error: override 'run.command=cost': unknown command 'cost'; expected"
        " one of simulate, dp, equilibrium, sweep-n, chatter, diagnose\n")
    assert not out.exists()


def test_sweep_writes_rows_plus_reference(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "sweep"
    assert run_cli("sweep-n", "--config", cfg, "--out", str(out),
                   "--override", "sweep.n_list=8 32") == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 + 1  # header, two levels, reference
    assert lines[0].startswith("penalty,converged,")
    assert lines[1].startswith("8,") and lines[2].startswith("32,")
    assert lines[3].startswith("ref,")


def test_chatter_command(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "chat"
    assert run_cli("chatter", "--config", cfg, "--out", str(out),
                   "--override", "sim.dt=0.0125",
                   "--override", "sweep.deltas=0.1 0.05",
                   "--override", "sweep.n0=2",
                   "--override", "sweep.epsilon=0.25") == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("delta,penalty,control_distance,")
    assert len(lines) == 3
    d = [float(line.split(",")[2]) for line in lines[1:]]
    assert d[1] < d[0]


def test_chatter_rejects_penalized_base(tmp_path, capsys):
    text = BASE.replace("scheme = reflected_projected",
                        "scheme = penalized_splitting\npenalty = 64")
    cfg = write_cfg(tmp_path, text)
    assert run_cli("chatter", "--config", cfg,
                   "--out", str(tmp_path / "x")) == 1
    assert "reflected" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()  # refused before any output


def test_diagnose_command(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "diag"
    assert run_cli("diagnose", "--config", cfg, "--out", str(out),
                   "--override", "sim.scheme=penalized_splitting",
                   "--override", "sim.penalty=8") == 0
    report = (out / "report.txt").read_text()
    assert "penalty*dt = 0.2 vs explicit stability limit 0.5 [OK]" in report
    assert "growth" not in report
    assert "lq_control" in report or "sigma" in report


def test_failed_csv_helper_exits_one(tmp_path, capsys, monkeypatch, split_writes):
    """A split write whose helper cannot open its part is an i/o error, and
    leaves neither a .part file nor a child process."""
    monkeypatch.setattr(measures, "open", refuse_parts, raising=False)
    out = tmp_path / "x"
    assert run_cli("simulate", "--config", write_cfg(tmp_path), "--out", str(out)) == 1
    assert "i/o error" in capsys.readouterr().err
    assert split_writes
    assert_no_helper_left(out)


def test_parse_error_exits_one_with_line_number(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE + "nonsense = 7\n")
    assert run_cli("simulate", "--config", cfg,
                   "--out", str(tmp_path / "x")) == 1
    err = capsys.readouterr().err
    assert "nonsense" in err and "line" in err


def test_unknown_override_key_names_the_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "x"),
                   "--override", "run.foo=1") == 1
    assert capsys.readouterr().err == \
        "error: override 'run.foo=1': unknown key 'foo' in [run]\n"


def test_mistyped_override_names_the_override(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "x"),
                   "--override", "sim.dt=abc") == 1
    assert capsys.readouterr().err == \
        "error: override 'sim.dt=abc': sim.dt expected float, got 'abc'\n"


@pytest.mark.parametrize("override", [
    "model.sigma=abc", "model.control_grid=a", "model.gamma=1 2", "model.x0=0 1",
    "model.init=uniform_box", "model.sigma=nan",
])
def test_malformed_model_value_names_its_override(tmp_path, capsys, override):
    """A bad model value fails when the config is read, before any step."""
    out = tmp_path / "out"
    assert run_cli("dp", "--config", str(CONFIGS / "lq_box.cfg"), "--out", str(out),
                   "--override", override) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: override {override!r}: [model] model parameter '")
    assert "Traceback" not in err and not out.exists()


def test_out_flag_keeps_a_hash_sign(tmp_path):
    """A '#' in a flag value is part of the value, not a comment."""
    out = tmp_path / "o#2"
    assert run_cli("diagnose", "--config", write_cfg(tmp_path), "--out", str(out)) == 0
    assert (out / "report.txt").exists()
    assert not (tmp_path / "o").exists()


def test_report_lists_no_overridden_key_as_a_default(tmp_path):
    cfg = write_cfg(tmp_path, BASE.replace("max_iters = 6\n", ""))
    out = tmp_path / "x"
    assert run_cli("diagnose", "--config", cfg, "--out", str(out),
                   "--override", "fixed_point.max_iters=3") == 0
    lines = (out / "report.txt").read_text().splitlines()
    defaults = lines[lines.index("defaults applied:") + 1:lines.index(
        "domain box  dim 1")]
    assert "  fixed_point.tol_exploit = 0.05" in defaults
    assert not [entry for entry in defaults
                if entry.startswith(("  fixed_point.max_iters", "  run.out"))]


def test_override_errors_name_the_override_not_a_line(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "x"),
                   "--override", "sim.penalty=-2",
                   "--override", "sim.scheme=penalized_splitting") == 1
    assert capsys.readouterr().err == \
        "error: override 'sim.penalty=-2': [sim] penalty must be an integer >= 1\n"
    assert run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "x"),
                   "--seed", "-3") == 1
    assert capsys.readouterr().err == \
        "error: override 'run.seed=-3': seed must be nonnegative\n"


def test_dp_without_grid_section_fails_cleanly(tmp_path, capsys):
    text = BASE.replace("[dp]\nhx = 0.05\n\n", "")
    cfg = write_cfg(tmp_path, text)
    assert run_cli("dp", "--config", cfg, "--out", str(tmp_path / "x")) == 1
    assert "hx" in capsys.readouterr().err


def test_command_defaults_to_config_value(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "implied"
    assert run_cli("--config", cfg, "--out", str(out)) == 0
    assert (out / "paths.csv").exists()  # [run] command = simulate


def test_overrides_change_artifacts(tmp_path):
    cfg = write_cfg(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli("simulate", "--config", cfg, "--out", str(out_a)) == 0
    assert run_cli("simulate", "--config", cfg, "--out", str(out_b),
                   "--override", "model.sigma=0.8") == 0
    xa = np.loadtxt(out_a / "paths.csv", delimiter=",", skiprows=1)
    xb = np.loadtxt(out_b / "paths.csv", delimiter=",", skiprows=1)
    assert xa.shape == xb.shape
    assert not np.allclose(xa[:, 2], xb[:, 2])
