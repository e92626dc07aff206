"""Outer fixed-point loop and the convergence studies built on top of it.

One equilibrium solve alternates best response (grid DP under the frozen
flow) with a frozen-measure particle simulation of the controlled dynamics,
then mixes the realized flow into the iterate by subsampling particles:
ceil(theta N) paths from the new flow, the rest kept from the old one, with
the subsample drawn from a counter-based stream so reruns are byte-identical.
The residual is the sup-over-time Wasserstein-2 distance between the iterate
and the flow it induces; consistency Law(X) = mu holds when it vanishes.

Non-convergence is data: the report carries the full residual history and a
flag instead of raising, since nothing guarantees the fixed point is unique
or attracting.

Studies:

* `penalization_sweep` solves the equilibrium at increasing penalty levels
  under common random numbers plus a reflected reference, and tabulates the
  flow and cost gaps against the reference.
* `strict_approximation_run` takes a relaxed control (the DP runner-up
  mixture), chatters it at decreasing block lengths with the penalty tied to
  the block length, and tabulates control-distance and cost gaps against the
  relaxed reference, all under one frozen equilibrium flow so only the
  control approximation varies.

Both return one record, `StudyReport`: its ``columns`` (the ``sweep.csv``
header), one mapping per row keyed by column, the report lines above the
table with one row template, and a ``clean`` flag (every solve converged,
no level failed) that gives the exit status.  Each level's cost, cost gap
and paired SE come from one helper, `_cost_columns`.

An equilibrium solve and both studies draw each step's noise once for all
their runs (:func:`~penmfg.rng.shared_noise`): the runs share the seed, so
they read the same normals.

Every run here keeps no paths (``simulate(..., keep_paths=False)``): it
stores X, which is its returned flow's buffer, and nothing else per
particle-step, and the studies read the cost and realized control measure
that every run sums as it steps, so no study keeps K or |K|.  The strict
study's closing runs (the relaxed reference and each chattered run) read
nothing else, so they pass `simulate` a per-step hook that keeps nothing
and store not even X.  A study holds one run at a time: each run and each
returned flow that is not kept is dropped once its last reader is done,
before the next ``simulate`` allocates.  Peak memory is the interpreter,
plus the noise block, plus the flows a study still reads, plus one run's X.

Inside a solve that is three flow-sized buffers: the noise block, the
frozen iterate and one run's X.  A mix writes the next iterate into the X
of the run it mixes in, frame by frame, so it adds only one frame's kept
paths; every flow is frame-major, each frame a C-contiguous block.  The
last loop run and its flow are dropped before the exploitability rollout,
which replays that run bit for bit; the rollout's realized flow is the
report's ``flow``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .controls import constant_law
from .dp import (
    DPGrid,
    ValueField,
    build_chain,
    chattered_probe,
    pad_for_penalty,
    relaxed_probe,
    solve_dp,
)
from .dp import exploitability as dp_exploitability
from .errors import ConfigError, PenmfgError
from .measures import (
    MeasureFlow,
    TimedControlMeasure,
    d_relaxed,
    flow_from_states,
    w2_flow,
)
from .model import ModelSpec
from .rng import SUBSAMPLE, shared_noise, stream
from .simulate import CostReport, Run, SimConfig, simulate


@dataclass(frozen=True)
class FixedPointConfig:
    """Outer-loop parameters; ``sim.penalty`` picks penalized or reflected.

    ``grid`` is required whenever the model has more than one control (the
    best response needs the DP); with a singleton control set the loop is a
    pure self-consistency iteration and the grid may be omitted.
    """

    sim: SimConfig
    grid: Optional[DPGrid] = None
    damping: float = 0.5
    max_iters: int = 30
    tol: float = 5e-2
    tol_exploit: float = 5e-2

    def __post_init__(self):
        if not 0.0 < self.damping <= 1.0:
            raise ConfigError("damping must lie in (0, 1]")
        if self.max_iters < 0:
            raise ConfigError("max_iters must be nonnegative")
        if self.tol <= 0.0 or self.tol_exploit <= 0.0:
            raise ConfigError("tolerances must be positive")


@dataclass(eq=False)
class EquilibriumReport:
    """Everything one fixed-point solve produced.

    ``flow`` is the realized law of the final best-response paths (the
    equilibrium candidate), the exploitability rollout's when a grid is
    set; ``cost`` and ``exploitability`` are evaluated
    under the frozen flow that the final law answers, so the optimality gap
    is internally consistent.  ``converged`` reflects the flow residual only;
    ``flagged_exploit`` marks an equilibrium whose exploitability exceeds
    the configured tolerance (scaled by 1 + |J|).
    """

    flow: MeasureFlow
    law: object
    residuals: list
    cost: CostReport
    iterations: int
    converged: bool
    exploitability: object = None
    flagged_exploit: bool = False
    field: Optional[ValueField] = field(default=None, repr=False)

    def summary(self) -> str:
        lines = [
            f"iterations {self.iterations}  converged {self.converged}",
            f"residuals  {' '.join(f'{r:.4g}' for r in self.residuals)}",
            f"cost       {self.cost.value:.6f} +/- {self.cost.stderr:.2g}",
        ]
        if self.exploitability is not None:
            lines.append(f"exploit    {self.exploitability.gap:.6f}"
                         + ("  [FLAGGED]" if self.flagged_exploit else "")
                         + ("  [CLIPPED]" if self.exploitability.clipped else ""))
        return "\n".join(lines)


def _mix_flows(old: MeasureFlow, run: Run, theta: float,
               rng: np.random.Generator) -> MeasureFlow:
    """Subsample mix: ceil(theta N) paths from ``run``, the rest from ``old``.

    One particle permutation is shared by every time node, so mixed flows
    keep whole paths and stay coherent across time.

    The mix is written into ``run``'s X buffer, which it consumes, one frame
    at a time: the frame's kept rows come first, then the gathered old ones.
    It holds no more than one frame's kept rows besides, and every frame
    stays a C-contiguous (N, d) block of X.  With theta = 1 the iterate is
    the run's own flow.
    """
    n = run.n_particles
    take = int(np.ceil(theta * n - 1e-12))
    if take < n:
        idx_new = rng.permutation(n)[:take]
        idx_old = rng.permutation(old.n)[: n - take]
        for frame, fr_old in zip(run.X, old.frames):
            frame[:take] = frame[idx_new]
            # the indices are in range; mode="clip" gathers straight into
            # the slice, where the default mode="raise" buffers a copy first
            np.take(fr_old.samples, idx_old, axis=0, out=frame[take:], mode="clip")
    return flow_from_states(run.times, run.X)


@shared_noise()
def solve_equilibrium(ms: ModelSpec, cfg: FixedPointConfig
                      ) -> EquilibriumReport:
    """Iterate best response against the induced flow until consistency.

    The first iterate is the self-interacting flow under the constant first
    control atom.  Each pass solves the DP under the frozen iterate, runs the
    frozen-measure particle system under the returned feedback with the same
    seed (common random numbers across iterations and penalty levels), and
    measures the w2_flow residual before damped mixing.
    """
    n_controls = ms.atoms.shape[0]
    if n_controls > 1 and cfg.grid is None:
        raise ConfigError("a DP grid is required for controlled models")
    penalty = cfg.sim.penalty
    # the configured grid fits the domain; penalized mode pads it out here
    grid = cfg.grid
    if grid is not None and penalty is not None:
        grid = pad_for_penalty(grid, ms, cfg.sim.dt, penalty)
    law = constant_law(ms.atoms)
    run, flow = simulate(ms, cfg.sim, law, keep_paths=False)
    field_v = None
    residuals = []
    converged = False
    sim_flow = frozen = flow
    for it in range(cfg.max_iters):
        del run, sim_flow  # the next run reads only the iterate
        frozen = flow
        if n_controls > 1:
            field_v, law = solve_dp(build_chain(ms, penalty, frozen, grid), frozen)
        run, sim_flow = simulate(ms, cfg.sim, law, frozen_flow=frozen,
                                 keep_paths=False)
        resid = w2_flow(sim_flow, frozen)
        residuals.append(resid)
        if resid < cfg.tol:
            converged = True
            break
        if it + 1 < cfg.max_iters:  # a last iterate would go unread
            flow = _mix_flows(frozen, run, cfg.damping,
                              stream(cfg.sim.seed, SUBSAMPLE, it))
    cost = run.cost  # under frozen, the flow the last run saw
    del run
    exploit = None
    flagged = False
    if grid is not None:
        del sim_flow  # the rollout replays the last run bit for bit
        exploit, sim_flow = dp_exploitability(ms, frozen, law, cfg.sim,
                                              grid=grid, field=field_v)
        flagged = exploit.gap > cfg.tol_exploit * (1.0 + abs(cost.value))
    return EquilibriumReport(
        flow=sim_flow, law=law, residuals=residuals, cost=cost,
        iterations=len(residuals), converged=converged,
        exploitability=exploit, flagged_exploit=flagged, field=field_v,
    )


# ------------------------------------------------------------------ studies


@dataclass(eq=False)
class StudyReport:
    """One study: a table of levels under common random numbers.

    ``columns`` is the ``sweep.csv`` header and ``rows`` holds one mapping
    per table row, keyed by column.  ``summary`` prints ``head`` and then
    each row through ``row_format``; a row whose ``error`` is set prints as
    ``failed: ...`` under its first column instead.  ``clean`` is false when
    a solve the study ran did not converge or a level failed.
    """

    columns: tuple
    rows: list
    head: list
    row_format: str
    clean: bool

    def summary(self) -> str:
        tag = self.columns[0]
        return "\n".join(self.head + [
            f"{row[tag]:>7}  failed: {row['error']}" if row.get("error")
            else self.row_format.format(**row) for row in self.rows])


def _cost_columns(cost: CostReport, ref: CostReport) -> dict:
    """A level's cost, its gap to the reference and the gap's paired SE."""
    diff = cost.per_particle - ref.per_particle
    return {"cost": cost.value, "cost_se": cost.stderr,
            "cost_gap": float(cost.value - ref.value),
            "cost_gap_se": float(np.std(diff) / np.sqrt(diff.size))}


_SWEEP_COLUMNS = ("penalty", "converged", "iterations", "residual", "cost",
                  "cost_se", "flow_gap", "cost_gap", "cost_gap_se", "error")


def _solve_row(tag, rep: EquilibriumReport, ref: EquilibriumReport,
               flow_gap: float) -> dict:
    """The sweep row of one solve, its cost paired against ``ref``'s."""
    return {"penalty": tag, "converged": rep.converged,
            "iterations": rep.iterations,
            "residual": rep.residuals[-1] if rep.residuals else np.nan,
            "flow_gap": flow_gap, "error": "", **_cost_columns(rep.cost, ref.cost)}


@shared_noise()
def penalization_sweep(ms: ModelSpec, cfg: FixedPointConfig, n_list
                       ) -> StudyReport:
    """Equilibria across penalty levels versus the reflected reference.

    Every solve shares the seed, so initial states and driving noise are
    common random numbers; cost gaps then come with a paired standard error.
    The configured grid fits the domain; each penalized solve pads it by its
    own margin, the reflected reference uses it untouched.  A level whose
    solve fails keeps its row with the error; the reference row comes last.
    """
    ref = solve_equilibrium(ms, replace(cfg, sim=replace(cfg.sim, penalty=None)))
    rows = []
    for n in map(int, n_list):
        try:
            rep = solve_equilibrium(ms, replace(cfg, sim=replace(cfg.sim, penalty=n)))
            rows.append(_solve_row(n, rep, ref, w2_flow(rep.flow, ref.flow)))
            del rep  # its final flow dies before the next level's solve
        except PenmfgError as exc:
            rows.append({**dict.fromkeys(_SWEEP_COLUMNS, np.nan), "penalty": n,
                         "converged": False, "iterations": 0, "error": str(exc)})
    rows.append(_solve_row("ref", ref, ref, 0.0))
    return StudyReport(
        columns=_SWEEP_COLUMNS, rows=rows,
        head=["penalty  conv  iters  residual   J          flow_gap   cost_gap"],
        row_format=("{penalty:>7}  {converged!s:5}  {iterations:5d}  "
                    "{residual:.3e}  {cost:+.6f}  {flow_gap:.3e}  {cost_gap:+.3e}"),
        clean=all(row["converged"] for row in rows),
    )


def chatter_penalty(n0: float, delta: float) -> int:
    """The penalty level a chattered run at switching period delta uses."""
    return int(round(n0 / delta))


@shared_noise()
def strict_approximation_run(ms: ModelSpec, cfg: FixedPointConfig, deltas,
                             n0: float = 8.0,
                             epsilon: float = 0.1) -> StudyReport:
    """Chatter a relaxed law at shrinking block lengths, penalty n = n0/delta.

    Solves the reflected equilibrium, relaxes its DP law by the runner-up
    epsilon-mixture, and freezes the equilibrium flow.  The relaxed reference
    and every chattered run then share that flow and the driving noise, so
    the tabulated gaps isolate the strict-approximation error: the control
    distance is d_U between realized time-control measures, the cost gap is
    paired against the relaxed reference.
    """
    if cfg.sim.penalty is not None:
        raise ConfigError("strict approximation starts from the reflected "
                          "equilibrium; configure sim without a penalty")
    if len(ms.atoms) < 2 or cfg.grid is None or cfg.max_iters < 1:
        raise ConfigError("the relaxed probe needs a DP solve (>= 2 controls,"
                          " a grid and max_iters >= 1)")
    base = solve_equilibrium(ms, cfg)
    relaxed = relaxed_probe(base.field, epsilon=epsilon)
    flow = base.flow
    ref, q_ref = _cost_and_controls(ms, cfg.sim, relaxed, flow)
    rows = []
    for delta in deltas:
        penalty = chatter_penalty(n0, delta)
        chat = chattered_probe(base.field, float(delta), epsilon=epsilon)
        run_cfg = replace(cfg.sim, penalty=penalty)
        cost, q = _cost_and_controls(ms, run_cfg, chat, flow)
        rows.append({"delta": float(delta), "penalty": penalty,
                     "control_distance": d_relaxed(q, q_ref),
                     **_cost_columns(cost, ref)})
    return StudyReport(
        columns=("delta", "penalty", "control_distance", "cost", "cost_se",
                 "cost_gap", "cost_gap_se"),
        rows=rows,
        head=[f"relaxed reference J = {ref.value:.6f} +/- {ref.stderr:.2g}",
              "delta     penalty  d_U        J           gap"],
        row_format=("{delta:<8.4g}  {penalty:6d}  {control_distance:.4e} "
                    "{cost:+.6f}  {cost_gap:+.4e}"),
        clean=base.converged,
    )


def _cost_and_controls(ms: ModelSpec, sim: SimConfig, law, flow: MeasureFlow
                       ) -> tuple[CostReport, TimedControlMeasure]:
    """One run under the frozen flow that stores not even X: its per-step
    hook keeps nothing, since only the cost and controls it sums are read."""
    run = simulate(ms, sim, law, frozen_flow=flow, on_step=lambda *frames: None)[0]
    return run.cost, run.controls
