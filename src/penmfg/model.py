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
every grid node in a single call per time slice.  Callers only read the
outputs, so a callback may return a read-only view (the constant diffusion
broadcasts one (d, m) matrix).

``mu`` is an :class:`~penmfg.measures.EmpiricalMeasure`; coefficients read a
finite summary from it (``mu.mean`` or the samples).

The penalization at level n >= 1 replaces reflection by a restoring drift
``-n (x - proj(x))`` and surcharges the running cost by ``n h(t,x,mu)
|x - proj(x)|``, so that the surcharge integrates to the boundary cost
``integral of h d|K|`` accumulated by the penalty displacement.

``make_preset`` builds the games a config file can name.
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

# the parameters every preset reads, with their defaults; ``init``
# (``point``, with ``x0``, or ``uniform_box``, with ``init_lower`` and
# ``init_upper``) picks the initial law
_COMMON = {"sigma": 1.0, "horizon": 1.0, "h_const": 0.0}


def preset_names() -> list[str]:
    return sorted(_PRESETS)


def _read(params: dict, key: str, default=None, shape: tuple = ()):
    """Pop ``key`` (else ``default``) as a finite float or float array.

    ``shape`` () is one number; (d,) is a point, one number or d of them;
    (-1, d) is rows of d numbers, a flat list being one column.  A value
    that is missing, non-numeric, of another shape or not finite raises a
    PenmfgError naming ``key``.
    """
    raw = params.pop(key, default)
    if raw is None:
        raise PenmfgError(f"model parameter {key!r} is missing")
    try:
        value = np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        value = np.empty(0)  # non-numeric: refused below
    if len(shape) == 1 and value.ndim == 0:
        value = np.full(shape, value)
    elif len(shape) == 2 and value.ndim == 1:
        value = value[:, None]
    if (value.ndim != len(shape) or value.size == 0 or not np.all(np.isfinite(value))
            or any(want not in (-1, got) for want, got in zip(shape, value.shape))):
        n = shape[-1] if shape else 1
        wanted = ("a finite number", f"{n} finite number(s)",
                  f"rows of {n} finite number(s)")[len(shape)]
        raise PenmfgError(f"model parameter {key!r} must be {wanted}, got {raw!r}")
    return float(value) if value.ndim == 0 else value


def _const_diffusion(sigma: float, d: int, m: int):
    base = sigma * np.eye(d, m)

    def diffusion(t, x, mu, u):
        return np.broadcast_to(base, (x.shape[0], d, m))

    return diffusion


def _point_law(x0: np.ndarray):
    def law(n, rng):
        return np.tile(x0, (n, 1))

    return law


def _uniform_box_law(lo: np.ndarray, hi: np.ndarray):
    def law(n, rng):
        return rng.uniform(lo, hi, size=(n, lo.size))

    return law


def _reflected_bm(p: dict) -> tuple:
    """Driftless unit(-ish) diffusion, no control; costs optional."""
    f_const = p["f_const"]
    return (np.zeros((1, 1)), lambda t, x, mu, u: np.zeros_like(x),
            lambda t, x, mu, u: np.full(x.shape[0], f_const))


def _reflected_ou_mf(p: dict) -> tuple:
    """Mean-reverting pull toward the population mean, no control."""
    kappa, f_x2 = p["kappa"], p["f_x2"]
    return (np.zeros((1, 1)), lambda t, x, mu, u: -kappa * (x - mu.mean),
            lambda t, x, mu, u: f_x2 * np.sum(x**2, axis=1))


def _lq_control(p: dict) -> tuple:
    """Velocity control with quadratic state and mean-field tracking costs."""
    c_state, gamma = p["c"], p["gamma"]

    def running_cost(t, x, mu, u):
        return (0.5 * dom_mod.row_sumsq(u) + c_state * dom_mod.row_sumsq(x)
                + gamma * dom_mod.row_sumsq(x - mu.mean))

    return p["control_grid"], lambda t, x, mu, u: u, running_cost


# name -> (its own parameters and their defaults, p -> (atoms, drift,
# running cost)); a tuple default is a list of controls, one row each
_PRESETS = {
    "reflected_bm": ({"f_const": 0.0}, _reflected_bm),
    "reflected_ou_mf": ({"kappa": 1.0, "f_x2": 0.0}, _reflected_ou_mf),
    "lq_control": ({"c": 1.0, "gamma": 0.0, "control_grid": (-1.0, 0.0, 1.0)},
                   _lq_control),
}


def make_preset(name: str, dom: dom_mod.ConvexDomain, params: dict | None = None
                ) -> ModelSpec:
    """The game ``name`` on ``dom``; ``params`` maps parameters to values.

    A parameter the preset does not read raises a PenmfgError naming it.
    """
    if name not in _PRESETS:
        raise PenmfgError(f"unknown preset {name!r}; known: {preset_names()}")
    own, coefficients = _PRESETS[name]
    params, d = dict(params or {}), dom.dim
    p = {key: _read(params, key, default, (-1, d) if isinstance(default, tuple) else ())
         for key, default in {**_COMMON, **own}.items()}
    atoms, drift, running_cost = coefficients(p)
    p["init"] = init = params.pop("init", "point")
    if init == "point":
        p["x0"] = _read(params, "x0", 0.0, (d,))
        law = _point_law(p["x0"])
    elif init == "uniform_box":
        p["init_lower"], p["init_upper"] = (_read(params, key, None, (d,))
                                            for key in ("init_lower", "init_upper"))
        law = _uniform_box_law(p["init_lower"], p["init_upper"])
    else:
        raise PenmfgError(f"model parameter 'init' must be point or uniform_box,"
                          f" got {init!r}")
    if params:
        raise PenmfgError(f"unknown {name} parameter(s): {sorted(params)}")
    h_const = p["h_const"]
    return ModelSpec(
        dim=d, noise_dim=d, horizon=p["horizon"], atoms=atoms, drift=drift,
        diffusion=_const_diffusion(p["sigma"], d, d), running_cost=running_cost,
        boundary_cost=lambda t, x, mu: np.full(x.shape[0], h_const),
        terminal_cost=lambda x, mu: np.zeros(x.shape[0]), initial_law=law, dom=dom,
        params={key: np.asarray(v).tolist() for key, v in p.items()})
