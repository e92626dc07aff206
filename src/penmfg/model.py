"""Model coefficient bundles and the penalization transform.

A :class:`ModelSpec` collects the drift, diffusion, running / boundary /
terminal costs, the control set, the initial law and the domain.  Coefficient
callbacks are vectorized over a particle batch:

    drift(t, x, mu, u)        (B, d) -> (B, d)
    diffusion(t, x, mu, u)    (B, d) -> (B, d, m)
    running_cost(t, x, mu, u) (B, d) -> (B,)
    boundary_cost(t, x, mu)   (B, d) -> (B,)
    terminal_cost(x, mu)      (B, d) -> (B,)
    initial_law(n, rng)             -> (n, d) samples inside the domain

The callbacks are row-wise: output row i depends only on input row i (of
``x`` and ``u``), ``t`` and ``mu``.  Callers may therefore stack unrelated
states and controls into one batch; the DP chain evaluates every control at
every grid node in a single call per time slice.

``mu`` is an :class:`~penmfg.measures.EmpiricalMeasure`; coefficients read a
finite summary from it (``mu.mean``, ``mu.second_moment``, or the samples).

The penalization at level n >= 1 replaces reflection by a restoring drift
``-n (x - proj(x))`` and surcharges the running cost by ``n h(t,x,mu)
|x - proj(x)|``, so that the surcharge integrates to the boundary cost
``integral of h d|K|`` accumulated by the penalty displacement.

The control set is a finite :class:`ControlGrid`; a strict control is one of
its rows, named by its row index.

Presets addressable from config files live in a registry; custom models can
register their own builders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import domain as dom_mod
from .errors import ContractViolationError, PenmfgError
from .measures import EmpiricalMeasure

LAW_PROBE_SIZE = 256


# ------------------------------------------------------------- control sets


@dataclass(frozen=True, eq=False)
class ControlGrid:
    """Finite control set: one row per admissible control."""

    points: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.points, dtype=float)
        if p.ndim == 1:
            p = p[:, None]
        if p.ndim != 2 or p.shape[0] == 0 or not np.all(np.isfinite(p)):
            raise PenmfgError("control grid must be a finite (nU, du) array")
        object.__setattr__(self, "points", p)


# ---------------------------------------------------------------- model spec


@dataclass(eq=False)
class ModelSpec:
    """Complete description of one mean field game instance."""

    dim: int
    noise_dim: int
    horizon: float
    controls: ControlGrid
    drift: Callable
    diffusion: Callable
    running_cost: Callable
    boundary_cost: Callable
    terminal_cost: Callable
    initial_law: Callable
    dom: dom_mod.ConvexDomain
    label: str = "custom"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.dim < 1 or self.noise_dim < 1:
            raise PenmfgError("state and noise dimensions must be positive")
        if self.horizon <= 0.0:
            raise PenmfgError(f"horizon must be positive, got {self.horizon}")
        if self.dom.dim != self.dim:
            raise PenmfgError(
                f"domain dimension {self.dom.dim} != state dimension {self.dim}"
            )
        probe = np.asarray(
            self.initial_law(LAW_PROBE_SIZE, np.random.default_rng(0)), dtype=float
        )
        if probe.shape != (LAW_PROBE_SIZE, self.dim):
            raise ContractViolationError(
                f"initial law must return (n, {self.dim}) samples, got {probe.shape}"
            )
        inside = self.dom.contains(probe)
        if not np.all(inside):
            raise ContractViolationError(
                "initial law puts mass outside the domain "
                f"(first offender: {probe[np.argmin(inside)]})"
            )

    def control_grid(self) -> np.ndarray:
        return self.controls.points


def validate_penalty(n) -> int:
    if int(n) != n or int(n) < 1:
        raise PenmfgError(f"penalty level must be an integer >= 1, got {n!r}")
    return int(n)


def penalized_drift(ms: ModelSpec, n, t, x, mu, u) -> np.ndarray:
    """Drift plus the restoring term -n (x - proj(x)); unchanged inside."""
    n = validate_penalty(n)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return ms.drift(t, x, mu, u) - float(n) * (x - dom_mod.project(ms.dom, x))


def penalized_running_cost(ms: ModelSpec, n, t, x, mu, u) -> np.ndarray:
    """Running cost plus the boundary-cost surcharge of the penalty."""
    n = validate_penalty(n)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    excess = x - dom_mod.project(ms.dom, x)
    h = np.asarray(ms.boundary_cost(t, x, mu), dtype=float)
    surcharge = float(n) * h * np.linalg.norm(excess, axis=1)
    return ms.running_cost(t, x, mu, u) + surcharge


@dataclass(frozen=True, eq=False)
class SmoothFn:
    """Twice differentiable test function with batch callbacks."""

    value: Callable  # (B, d) -> (B,)
    grad: Callable   # (B, d) -> (B, d)
    hess: Callable   # (B, d) -> (B, d, d)


def linear_probe(a, c: float = 0.0) -> SmoothFn:
    a = np.atleast_1d(np.asarray(a, dtype=float))
    return SmoothFn(
        value=lambda x: x @ a + c,
        grad=lambda x: np.broadcast_to(a, x.shape).copy(),
        hess=lambda x: np.zeros((x.shape[0], a.size, a.size)),
    )


def quadratic_probe(a=None, b=None, c: float = 0.0, dim: int | None = None) -> SmoothFn:
    """phi(x) = x.A x + b.x + c; defaults to |x|^2 in the given dimension."""
    if a is None:
        if dim is None:
            raise PenmfgError("quadratic_probe needs a matrix or a dimension")
        a = np.eye(dim)
    a = np.atleast_2d(np.asarray(a, dtype=float))
    sym = a + a.T
    b = np.zeros(a.shape[0]) if b is None else np.atleast_1d(np.asarray(b, dtype=float))
    return SmoothFn(
        value=lambda x: np.einsum("bi,ij,bj->b", x, a, x) + x @ b + c,
        grad=lambda x: x @ sym.T + b,
        hess=lambda x: np.broadcast_to(sym, (x.shape[0],) + sym.shape).copy(),
    )


def generator_apply(ms: ModelSpec, phi: SmoothFn, t, x, mu, u) -> np.ndarray:
    """Controlled generator: b . grad phi + (1/2) tr(sigma sigma^T hess phi)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    b = np.asarray(ms.drift(t, x, mu, u), dtype=float)
    sig = np.asarray(ms.diffusion(t, x, mu, u), dtype=float)
    a = np.einsum("bim,bjm->bij", sig, sig)
    first = np.sum(b * phi.grad(x), axis=1)
    second = 0.5 * np.einsum("bij,bij->b", a, phi.hess(x))
    return first + second


# ------------------------------------------------------------ growth checks


@dataclass(eq=False)
class GrowthReport:
    """Empirical constants for the linear/quadratic growth bounds."""

    constants: dict
    flagged: bool

    def __str__(self):
        lines = ["growth constants (empirical):"]
        for key, val in self.constants.items():
            lines.append(f"  {key:12s} {val:10.4g}")
        lines.append(f"  flagged: {self.flagged}")
        return "\n".join(lines)


GROWTH_SAMPLES = 200
GROWTH_RADII = (1.0, 3.0, 10.0, 30.0)


def empirical_growth_constants(ms: ModelSpec, seed: int = 0) -> GrowthReport:
    """Monte-Carlo estimates of the coefficient growth constants.

    Samples GROWTH_SAMPLES states at each of the escalating GROWTH_RADII and
    reports the smallest constants that make the linear bounds on the drift /
    boundary cost and the quadratic bounds on the diffusion / costs hold on
    the sample.  If the constants keep growing with the radius the bounds
    look violated and the report is flagged; this is advisory, nothing is
    raised.
    """
    rng = np.random.default_rng(seed)
    ugrid = ms.control_grid()
    per_radius = {}
    for r in GROWTH_RADII:
        x = rng.uniform(-r, r, size=(GROWTH_SAMPLES, ms.dim))
        mu = EmpiricalMeasure(rng.uniform(-r, r, size=(GROWTH_SAMPLES, ms.dim)))
        u = ugrid[rng.integers(0, ugrid.shape[0], size=GROWTH_SAMPLES)]
        t = float(rng.uniform(0.0, ms.horizon))
        lin = 1.0 + np.linalg.norm(x, axis=1) + np.sqrt(mu.second_moment)
        quad = 1.0 + np.sum(x**2, axis=1) + mu.second_moment
        b = np.linalg.norm(ms.drift(t, x, mu, u), axis=1)
        sig = ms.diffusion(t, x, mu, u)
        a = np.linalg.norm(np.einsum("bim,bjm->bij", sig, sig), axis=(1, 2))
        f = np.abs(ms.running_cost(t, x, mu, u))
        h = np.abs(ms.boundary_cost(t, x, mu))
        g = np.abs(ms.terminal_cost(x, mu))
        # drift Lipschitz estimate from random pairs at the same (t, mu, u)
        y = rng.uniform(-r, r, size=x.shape)
        num = np.linalg.norm(ms.drift(t, x, mu, u) - ms.drift(t, y, mu, u), axis=1)
        den = np.maximum(np.linalg.norm(x - y, axis=1), 1e-12)
        per_radius[r] = {
            "drift_growth": float(np.max(b / lin)),
            "drift_lipschitz": float(np.max(num / den)),
            "diffusion_growth": float(np.max(a / quad)),
            "running_cost_growth": float(np.max(f / quad)),
            "terminal_cost_growth": float(np.max(g / quad)),
            "boundary_cost_growth": float(np.max(h / lin)),
        }
    keys = per_radius[GROWTH_RADII[0]].keys()
    constants = {k: max(per_radius[r][k] for r in GROWTH_RADII) for k in keys}
    # a bounded ratio has plateaued between the two largest radii, a
    # superlinear one keeps multiplying
    mid, hi = per_radius[GROWTH_RADII[-2]], per_radius[GROWTH_RADII[-1]]
    flagged = any(hi[k] > 1.5 * mid[k] + 1e-12 for k in keys)
    return GrowthReport(constants=constants, flagged=flagged)


# ------------------------------------------------------------------- presets

_PRESETS: dict[str, Callable] = {}


def register_preset(name: str, builder: Callable) -> None:
    """Register ``builder(dom, params) -> ModelSpec`` under a config name."""
    _PRESETS[name] = builder


def preset_names() -> list[str]:
    return sorted(_PRESETS)


def make_preset(name: str, dom: dom_mod.ConvexDomain, params: dict | None = None
                ) -> ModelSpec:
    if name not in _PRESETS:
        raise PenmfgError(f"unknown preset {name!r}; known: {preset_names()}")
    return _PRESETS[name](dom, dict(params or {}))


def _point_law(x0: np.ndarray):
    def law(n, rng):
        return np.tile(x0, (n, 1))

    return law


def _uniform_box_law(lo: np.ndarray, hi: np.ndarray):
    def law(n, rng):
        return rng.uniform(lo, hi, size=(n, lo.size))

    return law


def _initial_law_from_params(params: dict, d: int):
    kind = params.pop("init", "point")
    if kind == "point":
        x0 = np.broadcast_to(
            np.atleast_1d(np.asarray(params.pop("x0", 0.0), dtype=float)), (d,)
        ).astype(float)
        return _point_law(x0)
    if kind == "uniform_box":
        lo = np.broadcast_to(
            np.atleast_1d(np.asarray(params.pop("init_lower"), dtype=float)), (d,)
        ).astype(float)
        hi = np.broadcast_to(
            np.atleast_1d(np.asarray(params.pop("init_upper"), dtype=float)), (d,)
        ).astype(float)
        return _uniform_box_law(lo, hi)
    raise PenmfgError(f"unknown initial law kind {kind!r}")


def _const_diffusion(sigma: float, d: int, m: int):
    base = sigma * np.eye(d, m)

    def diffusion(t, x, mu, u):
        return np.broadcast_to(base, (x.shape[0], d, m)).copy()

    return diffusion


def _take(params: dict, name: str, default: float) -> float:
    return float(params.pop(name, default))


def _finish(params: dict, label: str, used: dict) -> dict:
    if params:
        raise PenmfgError(f"unknown {label} parameter(s): {sorted(params)}")
    return used


def _build_reflected_bm(dom: dom_mod.ConvexDomain, params: dict) -> ModelSpec:
    """Driftless unit(-ish) diffusion, no control; costs optional."""
    d = dom.dim
    sigma = _take(params, "sigma", 1.0)
    horizon = _take(params, "horizon", 1.0)
    h_const = _take(params, "h_const", 0.0)
    f_const = _take(params, "f_const", 0.0)
    law = _initial_law_from_params(params, d)
    used = _finish(params, "reflected_bm",
                   {"sigma": sigma, "horizon": horizon, "h_const": h_const,
                    "f_const": f_const})
    return ModelSpec(
        dim=d,
        noise_dim=d,
        horizon=horizon,
        controls=ControlGrid(np.zeros((1, 1))),
        drift=lambda t, x, mu, u: np.zeros_like(x),
        diffusion=_const_diffusion(sigma, d, d),
        running_cost=lambda t, x, mu, u: np.full(x.shape[0], f_const),
        boundary_cost=lambda t, x, mu: np.full(x.shape[0], h_const),
        terminal_cost=lambda x, mu: np.zeros(x.shape[0]),
        initial_law=law,
        dom=dom,
        label="reflected_bm",
        params=used,
    )


def _build_reflected_ou_mf(dom: dom_mod.ConvexDomain, params: dict) -> ModelSpec:
    """Mean-reverting pull toward the population mean, no control."""
    d = dom.dim
    kappa = _take(params, "kappa", 1.0)
    sigma = _take(params, "sigma", 1.0)
    horizon = _take(params, "horizon", 1.0)
    f_x2 = _take(params, "f_x2", 0.0)
    h_const = _take(params, "h_const", 0.0)
    law = _initial_law_from_params(params, d)
    used = _finish(params, "reflected_ou_mf",
                   {"kappa": kappa, "sigma": sigma, "horizon": horizon,
                    "f_x2": f_x2, "h_const": h_const})
    return ModelSpec(
        dim=d,
        noise_dim=d,
        horizon=horizon,
        controls=ControlGrid(np.zeros((1, 1))),
        drift=lambda t, x, mu, u: -kappa * (x - mu.mean),
        diffusion=_const_diffusion(sigma, d, d),
        running_cost=lambda t, x, mu, u: f_x2 * np.sum(x**2, axis=1),
        boundary_cost=lambda t, x, mu: np.full(x.shape[0], h_const),
        terminal_cost=lambda x, mu: np.zeros(x.shape[0]),
        initial_law=law,
        dom=dom,
        label="reflected_ou_mf",
        params=used,
    )


def _build_lq_control(dom: dom_mod.ConvexDomain, params: dict) -> ModelSpec:
    """Velocity control with quadratic state and mean-field tracking costs."""
    d = dom.dim
    sigma = _take(params, "sigma", 1.0)
    horizon = _take(params, "horizon", 1.0)
    c_state = _take(params, "c", 1.0)
    gamma = _take(params, "gamma", 0.0)
    h_const = _take(params, "h_const", 0.0)
    ugrid = np.asarray(params.pop("control_grid", [-1.0, 0.0, 1.0]), dtype=float)
    if ugrid.ndim == 1:
        ugrid = ugrid[:, None]
    if ugrid.shape[1] != d:
        raise PenmfgError(
            f"lq_control drives the state directly: control dim {ugrid.shape[1]}"
            f" must equal state dim {d}"
        )
    law = _initial_law_from_params(params, d)
    used = _finish(params, "lq_control",
                   {"sigma": sigma, "horizon": horizon, "c": c_state, "gamma": gamma,
                    "h_const": h_const, "control_grid": ugrid.tolist()})

    def running_cost(t, x, mu, u):
        return (0.5 * dom_mod.row_sumsq(u) + c_state * dom_mod.row_sumsq(x)
                + gamma * dom_mod.row_sumsq(x - mu.mean))

    return ModelSpec(
        dim=d,
        noise_dim=d,
        horizon=horizon,
        controls=ControlGrid(ugrid),
        drift=lambda t, x, mu, u: u,
        diffusion=_const_diffusion(sigma, d, d),
        running_cost=running_cost,
        boundary_cost=lambda t, x, mu: np.full(x.shape[0], h_const),
        terminal_cost=lambda x, mu: np.zeros(x.shape[0]),
        initial_law=law,
        dom=dom,
        label="lq_control",
        params=used,
    )


register_preset("reflected_bm", _build_reflected_bm)
register_preset("reflected_ou_mf", _build_reflected_ou_mf)
register_preset("lq_control", _build_lq_control)
