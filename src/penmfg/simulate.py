"""Interacting-particle simulation of penalized and reflected dynamics.

Two one-step schemes for the controlled McKean-Vlasov system, picked by
``SimConfig.penalty``:

* a penalty level n: splitting.  Euler on the free drift, then the exact flow
  of x' = -n(x - proj(x)) over one step.  Unconditionally stable in n.
* no penalty (None): projection.  Euler step followed by projection onto the
  domain closure; the discrete reflection term is the excess Y - proj(Y).

K is outward for every scheme, like the integral n(X - proj(X)) dt that
defines K^n, so K^n - K = X - X^n on common noise.  A run is one
:class:`Run` record: X, the control law, and the cost and realized control
measure it summed as it stepped, reading each step's controls once, in the
sampler.  ``keep_paths`` decides only whether it also stores K and its
running total variation |K|, which the path readers (`evaluate_cost`
without ``penalty``, `martingale_residual`) need; they refuse a run without
them with a PenmfgError.  A run fed to a per-step hook stores no paths at
all: `paths_to_csv` streams the `simulate` command's run that way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from .controls import NodeTable, StepControls, sample_control
from .domain import row_norm
from .errors import ConfigError, DivergenceError, PenmfgError
from .measures import (
    EmpiricalMeasure,
    MeasureFlow,
    TimedControlMeasure,
    flow_from_states,
    flow_table,
    format_float,
    write_csv_steps,
)
from .model import ModelSpec, SmoothFn, generator_apply
from .rng import CONTROL, INIT, step_normals, stream


@dataclass(frozen=True)
class SimConfig:
    """Particle-system discretization parameters; ``penalty`` n picks the
    penalized splitting scheme, None the reflected projected one."""

    n_particles: int
    dt: float
    penalty: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        if self.n_particles < 1:
            raise ConfigError("n_particles must be at least 1")
        if not (self.dt > 0.0 and np.isfinite(self.dt)):
            raise ConfigError("dt must be positive and finite")
        if self.penalty is not None and (
                int(self.penalty) != self.penalty or self.penalty < 1):
            raise ConfigError("penalty must be an integer >= 1")


@dataclass
class Run:
    """A run's time grid, states X (M+1, N, d) and `controls.NodeTable` law.

    ``cost`` (its `CostReport` under the flow it saw: the frozen flow, or its
    own cloud) and ``controls`` (its realized `TimedControlMeasure`) are
    summed as it steps.  K, the shape of X with K[0] = 0, and Kvar, the
    nondecreasing running |K| (M+1, N), are None unless kept with the paths;
    X is None too in a run that was streamed to a per-step hook.
    """

    times: np.ndarray
    X: Optional[np.ndarray]
    law: object
    cost: CostReport
    controls: TimedControlMeasure
    K: Optional[np.ndarray] = None
    Kvar: Optional[np.ndarray] = None

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    @property
    def n_particles(self) -> int:
        if self.X is None:  # a streamed run: one cost per particle
            return self.cost.per_particle.size
        return self.X.shape[1]


def scheme_step(ms: ModelSpec, sim: SimConfig, t: float, x: np.ndarray,
                mu: EmpiricalMeasure, u: np.ndarray, xi: np.ndarray):
    """One step of the scheme ``sim.penalty`` picks; returns (x_next, dK, dKvar).

    dK is the outward increment: the penalization accumulated over the step,
    or the excess y - proj(y) of the Euler point y over the domain.  The
    projected state is proj(y) itself, so it lies in the closure bit for bit.
    """
    dt = sim.dt
    b = ms.drift(t, x, mu, u)
    noise = np.einsum("bim,bm->bi", ms.diffusion(t, x, mu, u), xi) * np.sqrt(dt)
    y = x + b * dt + noise
    py = ms.dom.project(y)
    if sim.penalty is None:
        x_next, dk = py, y - py
    else:
        dk = (1.0 - np.exp(-sim.penalty * dt)) * (y - py)
        # exact flow of x' = -n(x - proj(x)): proj is constant along the ray
        x_next = y - dk
    return x_next, dk, row_norm(dk)


def _n_steps(ms: ModelSpec, dt: float) -> int:
    m = int(round(ms.horizon / dt))
    if m < 1 or abs(m * dt - ms.horizon) > 1e-9 * max(1.0, ms.horizon):
        raise ConfigError(
            f"dt={dt!r} does not divide the horizon {ms.horizon!r} evenly"
        )
    return m


def _time_grid(ms: ModelSpec, dt: float) -> np.ndarray:
    """A run's M+1 time nodes."""
    return np.arange(_n_steps(ms, dt) + 1) * dt


def _check_paths(paths: Run) -> None:
    """Refuse a run that was simulated without its K and |K|."""
    if paths.K is None or paths.Kvar is None:
        raise PenmfgError("the run kept no K or |K|; simulate it with keep_paths=True")


def _check_grid(flow: MeasureFlow, times: np.ndarray, what: str) -> None:
    """Refuse a flow whose time grid is not the run's grid ``times``."""
    m = times.size - 1
    if flow.n_steps != m or not np.allclose(flow.times, times, atol=1e-9):
        raise ConfigError(
            f"{what} grid does not match the run grid ({flow.n_steps} steps of "
            f"dt={flow.dt!r} vs {m} steps of dt={times[1] - times[0]!r})"
        )


def simulate(ms: ModelSpec, cfg: SimConfig, law,
             frozen_flow: Optional[MeasureFlow] = None, keep_paths: bool = True,
             on_step: Optional[Callable] = None):
    """Run the particle system; returns (run, MeasureFlow).

    The coefficients see the simulated cloud itself, or the frames of
    ``frozen_flow`` when one is passed (it must share the run's time grid).
    The returned flow is the empirical flow of the simulated cloud at every
    grid node, also in a frozen run, where it is the realized flow rather
    than the input one.  Noise, initial draws, and control sampling
    come from disjoint counter-based streams of cfg.seed, so runs with equal
    seeds share their randomness across schemes and penalty levels.

    The run is one :class:`Run`, which stores K and |K| only with
    ``keep_paths``; its X is the returned flow's buffer.  With ``on_step``
    it stores no paths whatever ``keep_paths`` says: ``on_step(x, k, kvar)``
    is handed the frames of X, K and |K| at nodes 0, 1, ..., M in turn, and
    the run comes back with X None and no flow (None).
    """
    if not isinstance(law, NodeTable):  # refused before any of it is read
        raise PenmfgError(f"unknown control law {type(law).__name__}")
    atoms = law.atoms
    times = _time_grid(ms, cfg.dt)
    m_steps = times.size - 1
    n, d = cfg.n_particles, ms.dim

    if frozen_flow is not None:
        _check_grid(frozen_flow, times, "frozen flow")

    xs = k = kvar = k_now = None
    if on_step is None:
        xs = np.empty((m_steps + 1, n, d))
        if keep_paths:
            k, kvar = np.zeros((m_steps + 1, n, d)), np.zeros((m_steps + 1, n))
    x = np.empty((n, d)) if xs is None else xs[0]
    x[:] = ms.initial_law(n, stream(cfg.seed, INIT, 0))
    running, boundary, kv = np.zeros(n), np.zeros(n), np.zeros(n)
    mass = np.empty((m_steps, atoms.shape[0]))
    if on_step is not None or k is not None:
        k_now = np.zeros((n, d))  # K at the current node
    if on_step is not None:
        on_step(x, k_now, kv)

    for step in range(m_steps):
        t = times[step]
        mu = EmpiricalMeasure(x) if frozen_flow is None else frozen_flow.frames[step]
        draws = stream(cfg.seed, CONTROL, step) if law.relaxed else None
        c = sample_control(law, t, x, draws)
        xi = step_normals(cfg.seed, step, n, ms.noise_dim)
        x_next, dk, dkvar = scheme_step(ms, cfg, t, x, mu, c.u, xi)
        if not np.isfinite(x_next).all():
            bad = ~np.isfinite(x_next).all(axis=-1)
            raise DivergenceError(step + 1, np.flatnonzero(bad))
        # (kv + dkvar) - kv, not dkvar: the bits of a recorded |K| increment
        kv_next = kv + dkvar
        _add_step_cost(ms, running, boundary, t, times[step + 1] - t, x, mu,
                       _control_average(ms.running_cost, t, x, mu, atoms, c),
                       kv_next - kv)
        kv = kv_next
        mass[step] = c.mass
        x = x_next
        if k_now is not None:
            k_now = k_now + dk
        if on_step is not None:
            on_step(x, k_now, kv)
        else:
            xs[step + 1] = x
        if k is not None:
            k[step + 1], kvar[step + 1] = k_now, kv

    mu = EmpiricalMeasure(x) if frozen_flow is None else frozen_flow.frames[-1]
    cost = _cost_report(ms, running, boundary, x, mu)
    return Run(times, xs, law, cost, TimedControlMeasure(times, atoms, mass),
               k, kvar), None if xs is None else flow_from_states(times, xs)


def _control_average(fn: Callable, t: float, x: np.ndarray, mu: EmpiricalMeasure,
                     atoms: np.ndarray, c: StepControls) -> np.ndarray:
    """A running-cost-like fn at a step's strict controls, or averaged over
    the atoms with its relaxed weights."""
    if c.weights is None:
        return fn(t, x, mu, c.u)
    out = np.zeros(x.shape[0])
    for j in range(atoms.shape[0]):
        uj = np.broadcast_to(atoms[j], (x.shape[0], atoms.shape[1]))
        out += c.weights[:, j] * fn(t, x, mu, uj)
    return out


def _stepwise_cost(paths: Run, flow: MeasureFlow, fn: Callable,
                   step: int) -> np.ndarray:
    """Evaluate a running-cost-like fn at one step of a run's controls."""
    t, xk = paths.times[step], paths.X[step]
    return _control_average(fn, t, xk, flow.frames[step], paths.law.atoms,
                            sample_control(paths.law, t, xk, None))


def _add_step_cost(ms: ModelSpec, running: np.ndarray, boundary: np.ndarray,
                   t: float, dt: float, x: np.ndarray, mu: EmpiricalMeasure,
                   f: np.ndarray, dkvar: np.ndarray) -> None:
    """Charge one step into the per-particle sums: the (control-averaged)
    running cost f times dt, and h times the boundary measure dkvar."""
    running += f * dt
    boundary += ms.boundary_cost(t, x, mu) * dkvar


def _cost_report(ms: ModelSpec, running: np.ndarray, boundary: np.ndarray,
                 x_final: np.ndarray, mu_final: EmpiricalMeasure) -> CostReport:
    terminal = ms.terminal_cost(x_final, mu_final)
    total = running + boundary + terminal
    return CostReport(
        value=float(np.mean(total)),
        stderr=float(np.std(total) / np.sqrt(total.size)),
        running=float(np.mean(running)),
        boundary=float(np.mean(boundary)),
        terminal=float(np.mean(terminal)),
        per_particle=total,
    )


@dataclass
class CostReport:
    """Monte Carlo cost estimate with a per-particle standard error."""

    value: float
    stderr: float
    running: float
    boundary: float
    terminal: float
    per_particle: np.ndarray = field(repr=False, default=None)


def evaluate_cost(ms: ModelSpec, paths: Run, flow: MeasureFlow,
                  penalty: Optional[int] = None) -> CostReport:
    """Realized cost along the paths under the measure flow.

    Running cost is the left-endpoint Riemann sum of f.  With ``penalty``
    unset, the boundary charge is h times the recorded |dK| increments, which
    covers penalized and reflected runs alike.  With ``penalty`` set, the
    boundary charge is instead the literal penalized running cost
    n*h*dist(X) dt evaluated along the paths; the two versions agree up to
    discretization error and give a cheap cross-check of the K bookkeeping.
    Every run sums the unset-``penalty`` version as it steps (``Run.cost``),
    with the same per-step charge; this reads the Kvar of a run kept with its
    paths.
    """
    _check_grid(flow, paths.times, "flow")
    if penalty is None:
        _check_paths(paths)
    n = paths.n_particles
    running = np.zeros(n)
    boundary = np.zeros(n)
    for step in range(paths.n_steps):
        dt = paths.times[step + 1] - paths.times[step]
        xk = paths.X[step]
        if penalty is not None:  # n dist(X) dt charged in place of |dK|
            dkvar = penalty * np.linalg.norm(xk - ms.dom.project(xk), axis=-1) * dt
        else:
            dkvar = paths.Kvar[step + 1] - paths.Kvar[step]
        _add_step_cost(ms, running, boundary, paths.times[step], dt, xk,
                       flow.frames[step],
                       _stepwise_cost(paths, flow, ms.running_cost, step),
                       dkvar)
    return _cost_report(ms, running, boundary, paths.X[-1], flow.frames[-1])


@dataclass
class MartingaleReport:
    """Centered-residual diagnostic for one smooth test function.

    ``abs(aggregate_mean) / aggregate_se`` should be O(1) when the recorded
    paths, K terms, and generator are mutually consistent; systematic drift
    shows up as a ratio that grows with the particle count.
    """

    aggregate_mean: float
    aggregate_se: float
    per_step_mean: np.ndarray
    per_step_se: np.ndarray


def martingale_residual(ms: ModelSpec, paths: Run, flow: MeasureFlow,
                        phi: SmoothFn) -> MartingaleReport:
    """Discrete residual of phi(X) - int L phi dt + int Dphi . dK.

    Within a step the push moves the state along the chord from the pre-push
    point y = X_{k+1} + dK to X_{k+1}, so int Dphi . dK over the chord is
    phi(y) - phi(X_{k+1}) exactly (gradient theorem; no quadrature error for
    any smooth phi).  An endpoint rule Dphi(X_{k+1}) . dK drops the phi mass
    lost in the push and biases quadratic probes by O(sqrt(dt)) near the
    boundary.  K is outward for every scheme, so the same formula is
    conditionally centered for all of them: the K term cancels the
    penalization drift in penalized runs and restores the free Euler
    increment in projected runs.  Relaxed controls enter L phi through their
    weights.  The flow must share the run's time grid.
    """
    _check_grid(flow, paths.times, "flow")
    _check_paths(paths)
    n = paths.n_particles
    resid = np.zeros(n)
    per_step = np.empty((paths.n_steps, n))
    generator = partial(generator_apply, ms, phi)
    for step in range(paths.n_steps):
        xk, x_next = paths.X[step], paths.X[step + 1]
        dt = paths.times[step + 1] - paths.times[step]
        dk = paths.K[step + 1] - paths.K[step]
        delta = (
            phi.value(x_next) - phi.value(xk)
            - _stepwise_cost(paths, flow, generator, step) * dt
            + phi.value(x_next + dk) - phi.value(x_next)
        )
        per_step[step] = delta
        resid += delta
    return MartingaleReport(
        aggregate_mean=float(np.mean(resid)),
        aggregate_se=float(np.std(resid) / np.sqrt(n)),
        per_step_mean=per_step.mean(axis=1),
        per_step_se=per_step.std(axis=1) / np.sqrt(n),
    )


def paths_to_csv(ms: ModelSpec, sim: SimConfig, law, paths_csv, flow_csv):
    """Simulate ``law`` and stream the run into paths.csv rows (t, particle,
    x_*, k_*, kvar) and the flow.csv of X as it steps; returns (run, moments).

    The run stores no paths (see `simulate`'s ``on_step``).  The moments
    are the pathwise second-moment summary: the particle means of sup_t |X|^2,
    sup_t |K|^2 and the final |K|.  The sups are running maxima over one
    frame's `row_norm` at a time; a max is exact and `row_norm` has the bits
    of ``np.linalg.norm``, so the means are those of the whole-array formula.
    A forked CSV helper replays the same run (`write_csv_steps`).
    """
    n = sim.n_particles
    times = _time_grid(ms, sim.dt)
    tables, formats = _paths_tables(paths_csv, flow_csv, times, n, ms.dim)

    def produce(emit):
        sup_x, sup_k, kvar_end = np.zeros(n), np.zeros(n), None

        def on_step(x, k, kvar):
            nonlocal kvar_end
            np.maximum(sup_x, row_norm(x), out=sup_x)
            np.maximum(sup_k, row_norm(k), out=sup_k)
            kvar_end = kvar
            emit(np.column_stack((x, k, kvar)))

        run = simulate(ms, sim, law, on_step=on_step)[0]
        return run, {
            "sup_x_sq": float(np.mean(sup_x ** 2)),
            "sup_k_sq": float(np.mean(sup_k ** 2)),
            "kvar_total": float(np.mean(kvar_end)),
        }

    return write_csv_steps(tables, formats, produce, times.size)


def _paths_tables(paths_csv, flow_csv, times: np.ndarray, n: int, d: int):
    """`paths_to_csv`'s two tables of (x, k, kvar) blocks, and their formats."""
    cols = ["t", "particle", *(f"{c}_{j + 1}" for c in "xk" for j in range(d)), "kvar"]
    paths = (paths_csv, ",".join(cols), lambda k: format_float(times[k]),
             range(n), 2 * d + 1)
    return [paths, flow_table(flow_csv, n, d)], (repr,) * (2 * d + 1)
