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

An equilibrium solve and both studies draw each step's noise once for all
their runs (:func:`~penmfg.rng.shared_noise`): the runs share the seed, so
they read the same normals.

Every run here is lean (``simulate(..., keep_paths=False)``): it stores X,
which is its returned flow's buffer, and nothing else per particle-step.
Its cost under the flow it saw and its realized control measure are summed
as it steps, so no study keeps K or |K|.  A study holds
one run at a time: each run and each returned flow that is not kept is
dropped once its last reader is done, before the next ``simulate``
allocates.  Peak memory is the interpreter, plus the noise block, plus the
flows a study still reads, plus one run's X.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .controls import StrictFeedback
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
from .simulate import CostReport, SimConfig, simulate


@dataclass(frozen=True)
class FixedPointConfig:
    """Outer-loop parameters; the mode lives in ``sim`` (scheme + penalty).

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
    equilibrium candidate); ``cost`` and ``exploitability`` are evaluated
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


def _mix_flows(old: MeasureFlow, new: MeasureFlow, theta: float,
               rng: np.random.Generator) -> MeasureFlow:
    """Subsample mix: ceil(theta N) particles from new, the rest from old.

    One particle permutation is shared by every time node, so mixed flows
    keep whole paths and stay coherent across time.

    The frames are particle-major views of one (N, M+1, d) buffer: row
    stride (M+1)·d elements, not C-contiguous.  Their ``mean`` is a BLAS dot
    whose summation order, hence bits, follows that layout, so a contiguous
    gather would move the residuals and costs in the last digits.
    """
    n = new.n
    take = int(np.ceil(theta * n - 1e-12))
    if take >= n:
        return new
    idx_new = rng.permutation(n)[:take]
    idx_old = rng.permutation(old.n)[: n - take]
    states = np.empty((n, len(new.frames), new.dim))
    # permutation indices are in range; mode="clip" gathers straight into the
    # strided slice, where the default mode="raise" buffers a copy first
    for k, (fr_new, fr_old) in enumerate(zip(new.frames, old.frames)):
        np.take(fr_new.samples, idx_new, axis=0, out=states[:take, k], mode="clip")
        np.take(fr_old.samples, idx_old, axis=0, out=states[take:, k], mode="clip")
    return flow_from_states(new.times, states.transpose(1, 0, 2))


def _constant_law() -> StrictFeedback:
    """Strict law holding the first control atom everywhere."""
    return StrictFeedback(lambda t, x: np.zeros(x.shape[0], dtype=np.intp))


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
    n_controls = ms.control_grid().shape[0]
    if n_controls > 1 and cfg.grid is None:
        raise ConfigError("a DP grid is required for controlled models")
    penalty = cfg.sim.penalty
    # the configured grid fits the domain; penalized mode pads it out here
    grid = cfg.grid
    if grid is not None and penalty is not None:
        grid = pad_for_penalty(grid, ms, cfg.sim.dt, penalty)
    law = _constant_law()
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
            flow = _mix_flows(frozen, sim_flow,
                              cfg.damping, stream(cfg.sim.seed, SUBSAMPLE, it))
    cost = run.cost  # under frozen, the flow the last run saw
    del run  # exploitability runs its own simulate under frozen (= flow here)
    exploit = None
    flagged = False
    if grid is not None:
        exploit = dp_exploitability(ms, frozen, law, cfg.sim, grid=grid, field=field_v)
        flagged = exploit.gap > cfg.tol_exploit * (1.0 + abs(cost.value))
    return EquilibriumReport(
        flow=sim_flow, law=law, residuals=residuals, cost=cost,
        iterations=len(residuals), converged=converged,
        exploitability=exploit, flagged_exploit=flagged, field=field_v,
    )


def residual_noise_floor(ms: ModelSpec, cfg: FixedPointConfig, law,
                         flow: MeasureFlow, seeds=(9091, 9092)) -> float:
    """Sampling floor of the flow residual: distance between two fresh runs.

    Two frozen-measure simulations of the same law under the same flow,
    differing only in their noise seed; their w2_flow distance is the level
    below which residuals are indistinguishable from Monte Carlo noise.
    """
    a = simulate(ms, replace(cfg.sim, seed=seeds[0]), law, frozen_flow=flow,
                 keep_paths=False)[1]
    b = simulate(ms, replace(cfg.sim, seed=seeds[1]), law, frozen_flow=flow,
                 keep_paths=False)[1]
    return w2_flow(a, b)


# ------------------------------------------------------------------ sweeps


@dataclass(eq=False)
class SweepRow:
    penalty: Optional[int]
    converged: bool
    iterations: int
    residual: float
    cost: float
    cost_se: float
    flow_gap: float = np.nan
    cost_gap: float = np.nan
    cost_gap_se: float = np.nan
    error: str = ""


@dataclass(eq=False)
class SweepReport:
    """Per-penalty equilibrium gaps against the reflected reference run."""

    rows: list
    reference: SweepRow

    def summary(self) -> str:
        lines = ["penalty  conv  iters  residual   J          "
                 "flow_gap   cost_gap"]
        for r in self.rows + [self.reference]:
            tag = "ref" if r.penalty is None else str(r.penalty)
            if r.error:
                lines.append(f"{tag:>7}  failed: {r.error}")
                continue
            lines.append(
                f"{tag:>7}  {str(r.converged):5}  {r.iterations:5d}  "
                f"{r.residual:.3e}  {r.cost:+.6f}  "
                f"{r.flow_gap:.3e}  {r.cost_gap:+.3e}"
            )
        return "\n".join(lines)


@shared_noise()
def penalization_sweep(ms: ModelSpec, cfg: FixedPointConfig, n_list
                       ) -> SweepReport:
    """Equilibria across penalty levels versus the reflected reference.

    Every solve shares the seed, so initial states and driving noise are
    common random numbers; cost gaps then come with a paired standard error.
    The configured grid fits the domain; each penalized solve pads it by its
    own margin, the reflected reference uses it untouched.
    """
    ref_cfg = replace(
        cfg, sim=replace(cfg.sim, scheme="reflected_projected", penalty=None)
    )
    ref_report = solve_equilibrium(ms, ref_cfg)
    reference = SweepRow(
        penalty=None, converged=ref_report.converged,
        iterations=ref_report.iterations,
        residual=ref_report.residuals[-1] if ref_report.residuals else np.nan,
        cost=ref_report.cost.value, cost_se=ref_report.cost.stderr,
        flow_gap=0.0, cost_gap=0.0, cost_gap_se=0.0,
    )
    rows = []
    for n in n_list:
        try:
            rows.append(_penalized_row(ms, cfg, int(n), ref_report))
        except PenmfgError as exc:
            rows.append(SweepRow(
                penalty=int(n), converged=False, iterations=0,
                residual=np.nan, cost=np.nan, cost_se=np.nan, error=str(exc),
            ))
    return SweepReport(rows=rows, reference=reference)


def _penalized_row(ms: ModelSpec, cfg: FixedPointConfig, n: int,
                   ref_report: EquilibriumReport) -> SweepRow:
    """One sweep level; its report (and final flow) dies on return."""
    rep = solve_equilibrium(ms, replace(
        cfg, sim=replace(cfg.sim, scheme="penalized_splitting", penalty=n)))
    diff = rep.cost.per_particle - ref_report.cost.per_particle
    return SweepRow(
        penalty=n, converged=rep.converged, iterations=rep.iterations,
        residual=rep.residuals[-1] if rep.residuals else np.nan,
        cost=rep.cost.value, cost_se=rep.cost.stderr,
        flow_gap=w2_flow(rep.flow, ref_report.flow),
        cost_gap=float(rep.cost.value - ref_report.cost.value),
        cost_gap_se=float(np.std(diff) / np.sqrt(diff.size)),
    )


@dataclass(eq=False)
class StrictRunRow:
    delta: float
    penalty: int
    control_distance: float
    cost: float
    cost_se: float
    cost_gap: float
    cost_gap_se: float


@dataclass(eq=False)
class StrictRunReport:
    """Chattered strict controls closing in on a relaxed reference."""

    reference_cost: float
    reference_cost_se: float
    rows: list
    base_converged: bool = True

    def summary(self) -> str:
        lines = [f"relaxed reference J = {self.reference_cost:.6f} "
                 f"+/- {self.reference_cost_se:.2g}",
                 "delta     penalty  d_U        J           gap"]
        for r in self.rows:
            lines.append(
                f"{r.delta:<8.4g}  {r.penalty:6d}  {r.control_distance:.4e} "
                f"{r.cost:+.6f}  {r.cost_gap:+.4e}"
            )
        return "\n".join(lines)


@shared_noise()
def strict_approximation_run(ms: ModelSpec, cfg: FixedPointConfig, deltas,
                             n0: float = 8.0,
                             epsilon: float = 0.1) -> StrictRunReport:
    """Chatter a relaxed law at shrinking block lengths, penalty n = n0/delta.

    Solves the reflected equilibrium, relaxes its DP law by the runner-up
    epsilon-mixture, and freezes the equilibrium flow.  The relaxed reference
    and every chattered run then share that flow and the driving noise, so
    the tabulated gaps isolate the strict-approximation error: the control
    distance is d_U between realized time-control measures, the cost gap is
    paired against the relaxed reference.
    """
    if cfg.sim.scheme != "reflected_projected":
        raise ConfigError(
            "strict approximation starts from the reflected equilibrium; "
            "configure sim with scheme='reflected_projected'"
        )
    base = solve_equilibrium(ms, cfg)
    if base.field is None:
        raise ConfigError("the relaxed probe needs a DP solve (>= 2 controls)")
    relaxed = relaxed_probe(base.field, ms, epsilon=epsilon)
    flow = base.flow
    ref_cost, q_ref = _cost_and_controls(ms, cfg.sim, relaxed, flow)
    rows = []
    for delta in deltas:
        penalty = max(1, int(round(n0 / delta)))
        chat = chattered_probe(base.field, ms, float(delta), epsilon=epsilon)
        run_cfg = replace(cfg.sim, scheme="penalized_splitting", penalty=penalty)
        cost, q = _cost_and_controls(ms, run_cfg, chat, flow)
        diff = cost.per_particle - ref_cost.per_particle
        rows.append(StrictRunRow(
            delta=float(delta), penalty=penalty,
            control_distance=d_relaxed(q, q_ref),
            cost=cost.value, cost_se=cost.stderr,
            cost_gap=float(cost.value - ref_cost.value),
            cost_gap_se=float(np.std(diff) / np.sqrt(diff.size)),
        ))
    return StrictRunReport(reference_cost=ref_cost.value,
                           reference_cost_se=ref_cost.stderr,
                           rows=rows, base_converged=base.converged)


def _cost_and_controls(ms: ModelSpec, sim: SimConfig, law, flow: MeasureFlow
                       ) -> tuple[CostReport, TimedControlMeasure]:
    """One lean run under the frozen flow; the run and its X die on return."""
    run = simulate(ms, sim, law, frozen_flow=flow, keep_paths=False)[0]
    return run.cost, run.controls


def coupling_distance(ms: ModelSpec, sim_cfg: SimConfig, law,
                      penalty_a: Optional[int],
                      penalty_b: Optional[int]) -> float:
    """Pathwise gap E[sup_t |X_a - X_b|^2]^(1/2) between two schemes.

    Both runs share the seed, hence initial states and noise; a penalty of
    None selects the projected reflected scheme.  This is the quantity whose
    vanishing (in n) underlies convergence of the penalized dynamics.
    """
    def run(p):
        scheme = "reflected_projected" if p is None else "penalized_splitting"
        cfg = replace(sim_cfg, scheme=scheme, penalty=p)
        return simulate(ms, cfg, law, keep_paths=False)[0]

    xa = run(penalty_a).X
    xb = run(penalty_b).X
    sup = np.max(np.linalg.norm(xa - xb, axis=2), axis=0)
    return float(np.sqrt(np.mean(sup**2)))
