"""Interacting-particle simulation of penalized and reflected dynamics.

Three one-step schemes for the controlled McKean-Vlasov system:

* ``penalized_explicit``: Euler on the penalized drift b - n(x - proj(x)).
  Conditionally stable only; requires n*dt <= 1/2.
* ``penalized_splitting``: Euler on the free drift, then the exact flow of
  x' = -n(x - proj(x)) over one step.  Unconditionally stable in n, so it is
  the default for large penalties.
* ``reflected_projected``: Euler step followed by projection onto the domain
  closure; the discrete reflection term is the excess Y - proj(Y).

K is outward for every scheme, like the integral n(X - proj(X)) dt that
defines K^n, so K^n - K = X - X^n on common noise.  A run is by default a
:class:`PathBundle`: X, K, its running total variation |K|, and the control
law, whose strict indices or relaxed weights every reader re-evaluates
(`read_controls`).  With ``keep_paths=False`` it is a :class:`LeanRun`,
which stores X and nothing else per particle-step: its cost and realized
control measure are summed as it steps, bit for bit what `evaluate_cost`
and `realized_control_measure` read off the full bundle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from .controls import RelaxedFeedback, control_mass, read_controls, sample_control
from .domain import row_norm
from .errors import ConfigError, DivergenceError
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

SCHEMES = ("penalized_explicit", "penalized_splitting", "reflected_projected")

# Explicit-scheme stability: the penalty map x -> x - n*dt*(x - proj(x)) is a
# contraction toward the domain only while n*dt <= 1/2 (factor |1 - n*dt| with
# a safety margin below the oscillatory regime).
EXPLICIT_PENALTY_LIMIT = 0.5


@dataclass(frozen=True)
class SimConfig:
    """Particle-system discretization parameters."""

    n_particles: int
    dt: float
    scheme: str = "penalized_splitting"
    penalty: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        if self.n_particles < 1:
            raise ConfigError("n_particles must be at least 1")
        if not (self.dt > 0.0 and np.isfinite(self.dt)):
            raise ConfigError("dt must be positive and finite")
        if self.scheme not in SCHEMES:
            raise ConfigError(
                f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}"
            )
        if self.scheme.startswith("penalized"):
            if self.penalty is None:
                raise ConfigError(f"scheme {self.scheme!r} requires a penalty level")
            if int(self.penalty) != self.penalty or self.penalty < 1:
                raise ConfigError("penalty must be an integer >= 1")
            if (
                self.scheme == "penalized_explicit"
                and self.penalty * self.dt > EXPLICIT_PENALTY_LIMIT
            ):
                raise ConfigError(
                    f"penalized_explicit stability guard: penalty*dt must stay"
                    f" <= {EXPLICIT_PENALTY_LIMIT} (got "
                    f"{self.penalty * self.dt:g}); reduce dt or use "
                    "penalized_splitting"
                )
        elif self.penalty is not None:
            raise ConfigError("penalty is only meaningful for penalized schemes")


@dataclass
class Run:
    """A simulated run's time grid and states X, shape (M+1, N, d)."""

    times: np.ndarray
    X: np.ndarray

    @property
    def n_steps(self) -> int:
        return self.X.shape[0] - 1

    @property
    def n_particles(self) -> int:
        return self.X.shape[1]

    @property
    def dim(self) -> int:
        return self.X.shape[2]


@dataclass
class PathBundle(Run):
    """A run with its reflection bookkeeping and control law.

    K has the shape of X; Kvar is the running total variation |K|, shape
    (M+1, N), nondecreasing in the time index.  K[0] = 0.  ``atoms`` is
    the (nU, du) grid the law's indices name.
    """

    K: np.ndarray
    Kvar: np.ndarray
    law: object
    atoms: np.ndarray


@dataclass
class LeanRun(Run):
    """A run that keeps X and what the studies read of it, nothing more.

    ``cost`` is the run's `CostReport` under the flow it saw (the frozen
    flow, or its own cloud) and ``controls`` its realized
    `TimedControlMeasure`, both summed while the run stepped.
    """

    cost: CostReport
    controls: TimedControlMeasure


def scheme_step(ms: ModelSpec, sim: SimConfig, t: float, x: np.ndarray,
                mu: EmpiricalMeasure, u: np.ndarray, xi: np.ndarray):
    """One step of ``sim.scheme``; returns (x_next, dK, dKvar).

    dK is the outward increment: the penalization accumulated over the step,
    or the excess y - proj(y) of the Euler point y over the domain.  The
    projected state is proj(y) itself, so it lies in the closure bit for bit.
    """
    dt = sim.dt
    b = ms.drift(t, x, mu, u)
    noise = np.einsum("bim,bm->bi", ms.diffusion(t, x, mu, u), xi) * np.sqrt(dt)
    if sim.scheme == "penalized_explicit":
        dk = (sim.penalty * dt) * (x - ms.dom.project(x))
        x_next = x + b * dt - dk + noise
    else:
        y = x + b * dt + noise
        py = ms.dom.project(y)
        if sim.scheme == "reflected_projected":
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


def _check_grid(flow: MeasureFlow, times: np.ndarray, what: str) -> None:
    """Refuse a flow whose time grid is not the run's grid ``times``."""
    m = times.size - 1
    if flow.n_steps != m or not np.allclose(flow.times, times, atol=1e-9):
        raise ConfigError(
            f"{what} grid does not match the run grid ({flow.n_steps} steps of "
            f"dt={flow.dt!r} vs {m} steps of dt={times[1] - times[0]!r})"
        )


def simulate(ms: ModelSpec, cfg: SimConfig, law,
             frozen_flow: Optional[MeasureFlow] = None, keep_paths: bool = True):
    """Run the particle system; returns (run, MeasureFlow).

    The coefficients see the simulated cloud itself, or the frames of
    ``frozen_flow`` when one is passed (it must share the run's time grid).
    The returned flow is the empirical flow of the simulated cloud at every
    grid node, also in a frozen run, where it is the realized flow rather
    than the input one.  Noise, initial draws, and control sampling
    come from disjoint counter-based streams of cfg.seed, so runs with equal
    seeds share their randomness across schemes and penalty levels.

    The run is a :class:`PathBundle`, or with ``keep_paths=False`` a
    :class:`LeanRun` whose X is the returned flow's buffer: no K or |K| is
    stored, and each relaxed weight row is evaluated once, by the sampler.
    """
    m_steps = _n_steps(ms, cfg.dt)
    n, d = cfg.n_particles, ms.dim
    times = np.arange(m_steps + 1) * cfg.dt

    if frozen_flow is not None:
        _check_grid(frozen_flow, times, "frozen flow")

    x = np.empty((m_steps + 1, n, d))
    x[0] = ms.initial_law(n, stream(cfg.seed, INIT, 0))

    # the atoms the law's indices name; strict feedback indexes the model grid
    relaxed = isinstance(law, RelaxedFeedback)
    atoms = (law.atoms if relaxed else ms.control_grid()).copy()
    if keep_paths:
        k = np.zeros((m_steps + 1, n, d))
        kvar = np.zeros((m_steps + 1, n))
    else:
        running, boundary, kv = np.zeros(n), np.zeros(n), np.zeros(n)
        mass = np.empty((m_steps, atoms.shape[0]))

    for step in range(m_steps):
        t = times[step]
        xk = x[step]
        mu = EmpiricalMeasure(xk) if frozen_flow is None else frozen_flow.frames[step]
        draws = stream(cfg.seed, CONTROL, step) if relaxed else None
        idx, w = sample_control(ms, law, t, xk, draws)
        u = atoms[idx]
        xi = step_normals(cfg.seed, step, n, ms.noise_dim)
        x_next, dk, dkvar = scheme_step(ms, cfg, t, xk, mu, u, xi)
        if not np.isfinite(x_next).all():
            bad = ~np.isfinite(x_next).all(axis=-1)
            raise DivergenceError(step + 1, np.flatnonzero(bad))
        x[step + 1] = x_next
        if keep_paths:
            k[step + 1] = k[step] + dk
            kvar[step + 1] = kvar[step] + dkvar
        else:
            # (kvar + dkvar) - kvar, not dkvar: the bits of a recorded |K| increment
            kv_next = kv + dkvar
            _add_step_cost(ms, running, boundary, t, times[step + 1] - t, xk, mu,
                           _control_average(ms.running_cost, t, xk, mu, atoms, u, w),
                           kv_next - kv)
            kv = kv_next
            mass[step] = control_mass(atoms.shape[0], idx, w)

    flow = flow_from_states(times, x)
    if keep_paths:
        return PathBundle(times=times, X=x, K=k, Kvar=kvar, law=law,
                          atoms=atoms), flow
    seen = flow if frozen_flow is None else frozen_flow
    cost = _cost_report(ms, running, boundary, x[-1], seen.frames[-1])
    return LeanRun(times=times, X=x, cost=cost,
                   controls=TimedControlMeasure(times, atoms, mass)), flow


def _control_average(fn: Callable, t: float, x: np.ndarray, mu: EmpiricalMeasure,
                     atoms: np.ndarray, u: Optional[np.ndarray],
                     w: Optional[np.ndarray]) -> np.ndarray:
    """A running-cost-like fn at the controls u, or averaged over the atoms
    with the relaxed weights w when they are given."""
    if w is None:
        return fn(t, x, mu, u)
    out = np.zeros(x.shape[0])
    for j in range(atoms.shape[0]):
        uj = np.broadcast_to(atoms[j], (x.shape[0], atoms.shape[1]))
        out += w[:, j] * fn(t, x, mu, uj)
    return out


def _stepwise_cost(ms: ModelSpec, paths: PathBundle, flow: MeasureFlow,
                   fn: Callable, step: int) -> np.ndarray:
    """Evaluate a running-cost-like fn at one step of a bundle's controls."""
    t, xk = paths.times[step], paths.X[step]
    idx, w = read_controls(ms, paths.law, t, xk)
    u = None if idx is None else paths.atoms[idx]
    return _control_average(fn, t, xk, flow.frames[step], paths.atoms, u, w)


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

    def __str__(self):
        return (
            f"J = {self.value:.6f} +/- {self.stderr:.2g}  "
            f"(running {self.running:.6f}, boundary {self.boundary:.6f}, "
            f"terminal {self.terminal:.6f})"
        )


def evaluate_cost(ms: ModelSpec, paths: PathBundle, flow: MeasureFlow,
                  penalty: Optional[int] = None) -> CostReport:
    """Realized cost along the paths under the measure flow.

    Running cost is the left-endpoint Riemann sum of f.  With ``penalty``
    unset, the boundary charge is h times the recorded |dK| increments, which
    covers penalized and reflected runs alike.  With ``penalty`` set, the
    boundary charge is instead the literal penalized running cost
    n*h*dist(X) dt evaluated along the paths; the two versions agree up to
    discretization error and give a cheap cross-check of the K bookkeeping.
    A lean run sums the unset-``penalty`` version as it steps
    (``LeanRun.cost``), with the same per-step charge.
    """
    _check_grid(flow, paths.times, "flow")
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
                       _stepwise_cost(ms, paths, flow, ms.running_cost, step),
                       dkvar)
    return _cost_report(ms, running, boundary, paths.X[-1], flow.frames[-1])


@dataclass
class MartingaleReport:
    """Centered-residual diagnostic for one smooth test function.

    ``aggregate_z`` should be O(1) when the recorded paths, K terms, and
    generator are mutually consistent; systematic drift shows up as |z| that
    grows with the particle count.
    """

    aggregate_mean: float
    aggregate_se: float
    per_step_mean: np.ndarray
    per_step_se: np.ndarray

    @property
    def aggregate_z(self) -> float:
        if self.aggregate_se == 0.0:
            return 0.0 if self.aggregate_mean == 0.0 else np.inf
        return self.aggregate_mean / self.aggregate_se

    @property
    def per_step_z(self) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            z = self.per_step_mean / self.per_step_se
        z[self.per_step_se == 0.0] = 0.0
        return z


def martingale_residual(ms: ModelSpec, paths: PathBundle, flow: MeasureFlow,
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
            - _stepwise_cost(ms, paths, flow, generator, step) * dt
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


def moment_summary(paths: PathBundle) -> dict:
    """Pathwise second-moment summary: sup-norms of X and K, total variation."""
    sup_x2 = np.abs(np.linalg.norm(paths.X, axis=-1)).max(axis=0) ** 2
    sup_k2 = np.abs(np.linalg.norm(paths.K, axis=-1)).max(axis=0) ** 2
    return {
        "sup_x_sq": float(np.mean(sup_x2)),
        "sup_k_sq": float(np.mean(sup_k2)),
        "kvar_total": float(np.mean(paths.Kvar[-1])),
    }


def paths_to_csv(paths: PathBundle, paths_csv, flow_csv) -> None:
    """Write paths.csv rows (t, particle, x_*, k_*, kvar) and the flow.csv of X."""
    m, n, d = paths.X.shape
    cols = ["t", "particle", *(f"{c}_{j + 1}" for c in "xk" for j in range(d)), "kvar"]
    leads = list(map(format_float, paths.times))
    table = paths_csv, ",".join(cols), leads, list(range(n)), 2 * d + 1
    write_csv_steps([table, flow_table(flow_csv, m, n, d)], (repr,) * (2 * d + 1),
                    lambda k: np.column_stack((paths.X[k], paths.K[k], paths.Kvar[k])),
                    m)
