"""Config-driven command line front end.

Every invocation reads one config file, applies command-line patches
(positional command, --seed, --out, repeatable --override section.key=value),
and runs a single command into the output directory:

    simulate     paths, moments and cost under the constant first control atom
    dp           one best-response solve against the uncontrolled flow
    equilibrium  the fixed-point iteration
    sweep-n      equilibria across penalty levels vs the reflected reference
    chatter      chattered strict controls closing on a relaxed reference
    diagnose     resolved parameters and the DP grid

Artifacts are plain CSV / text: paths.csv (X, the reflection term K, outward
for every scheme, and its variation |K|; about 70 bytes per particle-step,
135 MB for the shipped half_line_bm.cfg), flow.csv, value.csv, sweep.csv,
report.txt as applicable, plus manifest.txt with the seed, the penmfg,
Python, numpy and scipy versions, and the config text's sha256.  A CSV float
is its shortest round-trip ``repr`` with no locale, formatted only when its cell
moves (flow.csv shares the x strings of paths.csv, K and Kvar strings are kept
while the value holds); no output has a timestamp, so reruns are byte-identical.
simulate streams its run into paths.csv and flow.csv as it steps and keeps no
paths.  A large step table may be written in two halves at once by a forked
helper that replays the table's producer, the run itself for simulate
(``measures.write_csv_steps``); a failed helper, or a replay that differs from
the parent's run, is an I/O error, and a failed write leaves no partial CSV.

Exit status: 0 on success, 2 when a run finished but is flagged (not
converged, or an exploitability marked [FLAGGED] or [CLIPPED]), 1 on any error
(parse, validation, numerical, I/O).
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .config import (
    COMMANDS,
    RunConfig,
    build_fixed_point,
    build_grid,
    build_model,
    build_sim,
    config_hash,
    parse_config_file,
)
from .controls import constant_law
from .dp import build_chain, pad_for_penalty, solve_dp, value_to_csv
from .equilibrium import (
    penalization_sweep,
    solve_equilibrium,
    strict_approximation_run,
)
from .errors import PenmfgError
from .measures import flow_to_csv, format_float as _ff
from .simulate import paths_to_csv, simulate


def _write_text(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def _manifest(cfg: RunConfig) -> str:
    fields = {"command": cfg.command, "seed": cfg.seed, "version": __version__,
              "config_sha256": config_hash(cfg), "python": sys.version.split()[0],
              "numpy": np.__version__, "scipy": scipy.__version__}
    return "".join(f"{key} = {val}\n" for key, val in fields.items())


def _report_head(cfg: RunConfig) -> list:
    lines = [f"command {cfg.command}  seed {cfg.seed}  penmfg {__version__}",
             f"config sha256 {config_hash(cfg)}"]
    if cfg.defaults_applied:
        lines.append("defaults applied:")
        lines += [f"  {entry}" for entry in cfg.defaults_applied]
    else:
        lines.append("defaults applied: none")
    return lines


# ----------------------------------------------------------------- commands


def _cmd_simulate(cfg: RunConfig, ms, out: Path) -> int:
    sim = build_sim(cfg)
    paths, moments = paths_to_csv(ms, sim, constant_law(ms.atoms),
                                  out / "paths.csv", out / "flow.csv")
    lines = _report_head(cfg)
    lines.append("scheme reflected_projected" if sim.penalty is None
                 else f"scheme penalized_splitting  penalty {sim.penalty}")
    lines.append(f"particles {paths.n_particles}  steps {paths.n_steps}"
                 f"  dt {_ff(sim.dt)}")
    lines += [f"{key} {_ff(val)}" for key, val in moments.items()]
    cost = paths.cost
    lines += [
        f"cost {_ff(cost.value)} +/- {_ff(cost.stderr)}",
        f"  running  {_ff(cost.running)}",
        f"  boundary {_ff(cost.boundary)}",
        f"  terminal {_ff(cost.terminal)}",
    ]
    _write_text(out / "report.txt", "\n".join(lines) + "\n")
    return 0


def _cmd_dp(cfg: RunConfig, ms, out: Path) -> int:
    sim = build_sim(cfg)
    grid = build_grid(cfg, ms)
    if sim.penalty is not None:
        grid = pad_for_penalty(grid, ms, sim.dt, sim.penalty)
    _, flow = simulate(ms, sim, constant_law(ms.atoms), keep_paths=False)
    chain = build_chain(ms, sim.penalty, flow, grid)
    field, _ = solve_dp(chain, flow)
    value_to_csv(field, out / "value.csv")
    v0 = field.V[0]
    lines = _report_head(cfg)
    lines += [
        f"grid nodes {grid.n_nodes}  hx {_ff(grid.hx)}"
        f"  substeps <= {int(max(chain.substeps))}",
        f"value at t=0: min {_ff(v0.min())}  mean {_ff(v0.mean())}"
        f"  max {_ff(v0.max())}",
        f"truncated stencil mass {_ff(chain.truncated_mass)}",
    ]
    _write_text(out / "report.txt", "\n".join(lines) + "\n")
    return 0


def _cmd_equilibrium(cfg: RunConfig, ms, out: Path) -> int:
    sim = build_sim(cfg)
    grid = build_grid(cfg, ms)
    fp = build_fixed_point(cfg, sim, grid)
    rep = solve_equilibrium(ms, fp)
    flow_to_csv(rep.flow, out / "flow.csv")
    if rep.field is not None:
        value_to_csv(rep.field, out / "value.csv")
    lines = _report_head(cfg) + [rep.summary()]
    if not rep.converged:
        lines.append("NOT CONVERGED within max_iters")
    _write_text(out / "report.txt", "\n".join(lines) + "\n")
    flagged = rep.flagged_exploit or (rep.exploitability is not None
                                      and rep.exploitability.clipped)
    return 0 if rep.converged and not flagged else 2


def _cell(value):
    """A sweep.csv cell: floats through format_float, booleans in lower case."""
    if isinstance(value, bool):
        return str(value).lower()
    return _ff(value) if isinstance(value, float) else value


def _cmd_study(cfg: RunConfig, ms, out: Path) -> int:
    fp = build_fixed_point(cfg, build_sim(cfg), build_grid(cfg, ms))
    sweep = cfg.sweep
    if cfg.command == "sweep-n":
        report = penalization_sweep(ms, fp, list(sweep["n_list"]))
    else:
        report = strict_approximation_run(
            ms, fp, deltas=list(sweep["deltas"]), n0=sweep["n0"],
            epsilon=sweep["epsilon"])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(report.columns)
    writer.writerows([_cell(row[col]) for col in report.columns]
                     for row in report.rows)
    _write_text(out / "sweep.csv", buf.getvalue())
    _write_text(out / "report.txt",
                "\n".join(_report_head(cfg) + [report.summary()]) + "\n")
    return 0 if report.clean else 2


def _cmd_diagnose(cfg: RunConfig, ms, out: Path) -> int:
    lines = _report_head(cfg)
    lines.append(f"domain {ms.dom.kind}  dim {ms.dim}")
    lines.append("model parameters (resolved):")
    lines += [f"  {key} = {val}" for key, val in sorted(ms.params.items())]
    grid = build_grid(cfg, ms)
    if grid is not None:
        lines.append(f"dp grid: {grid.n_nodes} nodes, hx {_ff(grid.hx)}")
    _write_text(out / "report.txt", "\n".join(lines) + "\n")
    return 0


def run(cfg: RunConfig) -> int:
    """Execute one validated config; returns the process exit status."""
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_text(out / "manifest.txt", _manifest(cfg))
    ms = build_model(cfg)
    if cfg.command == "simulate":
        return _cmd_simulate(cfg, ms, out)
    if cfg.command == "dp":
        return _cmd_dp(cfg, ms, out)
    if cfg.command == "equilibrium":
        return _cmd_equilibrium(cfg, ms, out)
    if cfg.command in ("sweep-n", "chatter"):
        return _cmd_study(cfg, ms, out)
    return _cmd_diagnose(cfg, ms, out)


# --------------------------------------------------------------- entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="penmfg",
        description="Penalized particle studies of reflected mean field games",
    )
    parser.add_argument("command", nargs="?", choices=COMMANDS,
                        help="overrides the [run] command in the config")
    parser.add_argument("--config", required=True, help="config file path")
    parser.add_argument("--seed", type=int, default=None,
                        help="overrides the [run] seed")
    parser.add_argument("--out", default=None,
                        help="overrides the [run] output directory")
    parser.add_argument("--override", action="append", default=[],
                        metavar="SECTION.KEY=VALUE",
                        help="config patch, repeatable")
    parser.add_argument("--version", action="version",
                        version=f"penmfg {__version__}")
    args = parser.parse_args(argv)
    try:
        flags = {"command": args.command, "seed": args.seed, "out": args.out}
        patches = [f"run.{key}={value}" for key, value in flags.items()
                   if value is not None]
        return run(parse_config_file(args.config, patches + args.override))
    except PenmfgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


def console_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
