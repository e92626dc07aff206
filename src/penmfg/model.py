"""Model coefficient bundles and the penalization transform.

A :class:`ModelSpec` collects the drift, diffusion, running / boundary /
terminal costs, the finite control set ``atoms`` (one row per control), the
initial law and the domain.  Coefficient
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
finite summary from it (``mu.mean`` or the samples).

The penalization at level n >= 1 replaces reflection by a restoring drift
``-n (x - proj(x))`` and surcharges the running cost by ``n h(t,x,mu)
|x - proj(x)|``, so that the surcharge integrates to the boundary cost
``integral of h d|K|`` accumulated by the penalty displacement.

Presets addressable from config files live in a registry; custom models can
register their own builders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import domain as dom_mod
from .errors import ContractViolationError, PenmfgError

LAW_PROBE_SIZE = 256


# ---------------------------------------------------------------- model spec


@dataclass(eq=False)
class ModelSpec:
    """Complete description of one mean field game instance."""

    dim: int
    noise_dim: int
    horizon: float
    atoms: np.ndarray
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
        self.atoms = np.asarray(self.atoms, dtype=float)
        if (self.atoms.ndim != 2 or self.atoms.shape[0] == 0
                or not np.all(np.isfinite(self.atoms))):
            raise PenmfgError("control atoms must be a finite (nU, du) array")
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
        atoms=np.zeros((1, 1)),
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
        atoms=np.zeros((1, 1)),
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
        atoms=ugrid,
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
