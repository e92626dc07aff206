"""Grid dynamic programming for the best response under a frozen flow.

The controlled diffusion is approximated by a locally consistent Markov chain
on a uniform box grid (d <= 2), following the classic upwind construction:
axis neighbors carry the diagonal diffusion and the upwinded drift, corner
neighbors carry cross covariances, and the remainder stays put.  One-step
mean and covariance then match b dt and sigma sigma^T dt up to O(hx dt).

Two boundary regimes:

* reflected mode (no penalty): the grid box is the domain closure; mass that
  would leave through a face lying on the domain boundary is redirected to
  the projected node and charged h per unit displacement, mirroring the
  h d|K| cost.  Faces interior to an unbounded domain are pure truncation:
  redirected without charge and counted.
* penalized mode: the box extends past the domain by a margin sized to the
  penalty excursion scale; coefficients use the penalized drift and running
  cost, and only the outer box edge truncates (counted, never charged).

The transition probabilities are nonnegative by construction provided the
covariance is diagonally dominant; the remaining stability constraint on
dt/hx^2 is met by splitting each control interval into equal substeps during
which the control and coefficients stay frozen, instead of silently changing
the caller's grid resolution.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from . import model as model_mod
from .controls import NodeTable, chattered_indices
from .errors import ConfigError, GridError
from .measures import (
    EmpiricalMeasure,
    MeasureFlow,
    format_float,
    stored_steps,
    write_csv_steps,
)
from .model import ModelSpec, penalized_running_cost, validate_penalty
from .simulate import SimConfig, simulate

MAX_SUBSTEPS = 64
PROB_TOL = 1e-12

# margin multipliers for the penalized state box: diffusive excursions scale
# like sigma sqrt(dt) per step and the stationary overshoot like sigma/sqrt(2n)
MARGIN_DIFFUSIVE = 3.0
MARGIN_PENALTY = 5.0


# -------------------------------------------------------------------- grid


@dataclass(frozen=True, eq=False)
class DPGrid:
    """Uniform node grid on a box, equal spacing on every axis."""

    lower: np.ndarray
    upper: np.ndarray
    shape: tuple  # nodes per axis, >= 2 each

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        shape = tuple(int(s) for s in np.atleast_1d(self.shape))
        if lo.shape != hi.shape or lo.ndim != 1 or not np.all(lo < hi):
            raise GridError("grid needs lower < upper per axis")
        if lo.size > 2:
            raise GridError(f"grid DP supports d <= 2, got d = {lo.size}")
        if len(shape) != lo.size or any(s < 2 for s in shape):
            raise GridError("need at least 2 nodes per axis")
        spacings = (hi - lo) / (np.asarray(shape) - 1)
        if np.max(spacings) - np.min(spacings) > 1e-9 * np.max(spacings):
            raise GridError(
                f"axis spacings differ: {spacings}; use equal hx on every axis"
            )
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "shape", shape)

    @classmethod
    def regular(cls, lower, upper, hx: float) -> "DPGrid":
        lo = np.atleast_1d(np.asarray(lower, dtype=float))
        hi = np.atleast_1d(np.asarray(upper, dtype=float))
        if hx <= 0:
            raise GridError("hx must be positive")
        cells = np.round((hi - lo) / hx).astype(int)
        if np.any(cells < 1):
            raise GridError(f"box {lo}..{hi} is narrower than hx={hx}")
        if np.max(np.abs(cells * hx - (hi - lo))) > 1e-9 * max(1.0, hx):
            raise GridError(
                f"hx={hx} does not tile the box {lo}..{hi} evenly"
            )
        return cls(lo, hi, tuple(int(c) + 1 for c in cells))

    @classmethod
    def for_model(cls, ms: ModelSpec, hx: float) -> "DPGrid":
        """Grid over the domain's bounding box; :func:`pad_for_penalty` pads it."""
        if ms.dom.kind == "box":
            lo, hi = ms.dom.lower.copy(), ms.dom.upper.copy()
        elif ms.dom.kind == "ball":
            lo = ms.dom.center - ms.dom.radius
            hi = ms.dom.center + ms.dom.radius
        else:
            raise GridError(
                f"domain kind {ms.dom.kind!r} is unbounded or not box-aligned;"
                " pass explicit grid bounds"
            )
        return cls.regular(lo, hi, hx)

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def hx(self) -> float:
        return float((self.upper[0] - self.lower[0]) / (self.shape[0] - 1))

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.shape))

    def axes(self) -> list:
        return [np.linspace(self.lower[j], self.upper[j], self.shape[j])
                for j in range(self.dim)]

    def nodes(self) -> np.ndarray:
        """All node coordinates, (n_nodes, d), row-major in the multi-index."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def nearest_node(self, x: np.ndarray) -> np.ndarray:
        """Raveled (row-major) index of the closest node, clamping outside points.

        Ravels axis by axis on whole columns, as ``np.ravel_multi_index`` would,
        in floats: each axis index is clipped before the one integer cast, so a
        point however far outside reaches its own end of the grid.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        hx, flat = self.hx, None
        for j, size in enumerate(self.shape):
            idx = x[:, j] - self.lower[j]
            idx /= hx
            np.clip(np.rint(idx, out=idx), 0, size - 1, out=idx)
            flat = idx if flat is None else flat * size + idx
        return flat.astype(np.intp)


def penalty_margin(sigma_bar: float, dt: float, penalty: int) -> float:
    """Box padding for penalized DP: covers the typical outward excursion."""
    return max(MARGIN_DIFFUSIVE * sigma_bar * np.sqrt(dt),
               MARGIN_PENALTY * sigma_bar / np.sqrt(2.0 * penalty))


def pad_for_penalty(grid: DPGrid, ms: ModelSpec, dt: float,
                    penalty: int) -> DPGrid:
    """Extend a domain-fitting grid by the penalty margin, whole cells.

    Lets one base grid serve both modes: reflected solves use it as is,
    penalized solves pad it here, keeping node alignment and spacing.  The
    margin is rounded up to whole cells so domain-boundary nodes stay on-grid.
    """
    margin = penalty_margin(_sigma_scale(ms, grid.lower, grid.upper), dt,
                            validate_penalty(penalty))
    cells = int(np.ceil(margin / grid.hx - 1e-12))
    return DPGrid.regular(grid.lower - cells * grid.hx,
                          grid.upper + cells * grid.hx, grid.hx)


def _sigma_scale(ms: ModelSpec, lo: np.ndarray, hi: np.ndarray) -> float:
    """Spectral-norm estimate of sigma at the box center: the largest over
    the control atoms, so a u-dependent sigma sizes the margin for its widest."""
    x = (0.5 * (lo + hi))[None, :]
    sig = ms.diffusion(0.0, np.repeat(x, len(ms.atoms), axis=0), EmpiricalMeasure(x),
                       ms.atoms)
    return float(max(np.linalg.norm(s, 2) for s in np.asarray(sig, dtype=float)))


# ------------------------------------------------------------- chain build


def _stencil_offsets(d: int) -> np.ndarray:
    if d == 1:
        return np.array([[0], [-1], [1]])
    return np.array([
        [0, 0], [-1, 0], [1, 0], [0, -1], [0, 1],
        [1, 1], [-1, -1], [1, -1], [-1, 1],
    ])


@dataclass(eq=False)
class _Geometry:
    """Static redirect geometry: targets, charged and truncated overflow."""

    idx: np.ndarray          # (n_nodes, n_st) redirected target nodes
    charged_len: np.ndarray  # (n_nodes, n_st) length of the charged outward move
    truncated: np.ndarray    # (n_nodes, n_st) 1.0 where uncharged overflow happened


def _face_is_boundary(grid: DPGrid, dom, axis: int, side: int) -> bool:
    """Whether a grid face lies on the domain boundary (else it truncates)."""
    probe = 0.5 * (grid.lower + grid.upper)
    probe = probe.copy()
    probe[axis] = grid.upper[axis] if side > 0 else grid.lower[axis]
    probe[axis] += side * 0.5 * grid.hx
    return not bool(dom.contains(probe[None, :])[0])


def _build_geometry(grid: DPGrid, dom, penalized: bool) -> _Geometry:
    offsets = _stencil_offsets(grid.dim)
    multi = np.stack(
        np.unravel_index(np.arange(grid.n_nodes), grid.shape), axis=1
    )
    shape = np.asarray(grid.shape)
    if penalized:
        charged = np.zeros((grid.dim, 2), dtype=bool)
    else:
        charged = np.array([
            [_face_is_boundary(grid, dom, ax, -1),
             _face_is_boundary(grid, dom, ax, +1)]
            for ax in range(grid.dim)
        ])
    n_st = offsets.shape[0]
    idx = np.empty((grid.n_nodes, n_st), dtype=np.int64)
    disp = np.zeros((grid.n_nodes, n_st, grid.dim))
    trunc = np.zeros((grid.n_nodes, n_st), dtype=bool)
    for s, off in enumerate(offsets):
        tgt = multi + off
        clipped = np.clip(tgt, 0, shape - 1)
        idx[:, s] = np.ravel_multi_index(tuple(clipped.T), grid.shape)
        over = tgt - clipped  # -1, 0, +1 per axis
        for ax in range(grid.dim):
            lo_over = over[:, ax] < 0
            hi_over = over[:, ax] > 0
            if charged[ax, 0]:
                disp[lo_over, s, ax] = -grid.hx
            else:
                trunc[:, s] |= lo_over
            if charged[ax, 1]:
                disp[hi_over, s, ax] = grid.hx
            else:
                trunc[:, s] |= hi_over
    return _Geometry(idx=idx, charged_len=np.linalg.norm(disp, axis=2),
                     truncated=trunc * 1.0)


@dataclass(eq=False)
class TransitionModel:
    """Locally consistent chain for every (time slice, control).

    ``probs[k]`` has shape (nU, n_nodes, n_stencil) and rows summing to one;
    ``charge[k]`` is the expected per-substep boundary cost; ``run_cost[k]``
    the running cost (penalized surcharge included) at the slice; ``substeps``
    the per-slice substep count that makes the stay probability nonnegative;
    ``atoms`` the model's (nU, du) control grid.
    """

    grid: DPGrid
    times: np.ndarray
    penalty: Optional[int]
    atoms: np.ndarray = dc_field(repr=False, default=None)
    geometry: _Geometry = dc_field(repr=False, default=None)
    probs: list = dc_field(repr=False, default=None)
    charge: list = dc_field(repr=False, default=None)
    run_cost: list = dc_field(repr=False, default=None)
    terminal: np.ndarray = dc_field(repr=False, default=None)
    substeps: np.ndarray = None
    truncated_mass: float = 0.0

    @property
    def n_slices(self) -> int:
        return len(self.probs)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


def _slice_rows(ms: ModelSpec, penalty, grid: DPGrid, geo: _Geometry,
                x: np.ndarray, u: np.ndarray, t: float, mu, dt: float):
    """Probability rows, charges and costs for one time slice, every control at once.

    ``x`` and ``u`` hold B = nU * n_nodes rows, nodes tiled and atoms
    repeated, so row ui * n_nodes + i is control ui at node i.  An axis
    neighbour +-e_j gets slack_j / 2 + hx b^-+_j, where slack_j is a_jj less
    |a_01| (d = 2) and a_00 (d = 1); a corner gets max(+-a_01, 0) / 2.
    Returns (probs (nU, n_nodes, n_st), charge, f, substeps, trunc_mass).
    """
    n_nodes, d, hx = geo.idx.shape[0], x.shape[1], grid.hx
    n_u = len(x) // n_nodes
    if penalty is None:
        b = np.asarray(ms.drift(t, x, mu, u), dtype=float)
        f = np.asarray(ms.running_cost(t, x, mu, u), dtype=float)
        h = np.asarray(ms.boundary_cost(t, x[:n_nodes], mu), dtype=float)
    else:  # the padded box charges nothing: the boundary cost enters f only
        b = model_mod.penalized_drift(ms, penalty, t, x, mu, u)
        f = np.asarray(penalized_running_cost(ms, penalty, t, x, mu, u), dtype=float)
        h = 0.0
    sig = np.asarray(ms.diffusion(t, x, mu, u), dtype=float)
    a = np.einsum("bim,bjm->bij", sig, sig)
    cross = a[:, 0, 1] if d == 2 else np.zeros(len(a))
    slack = np.diagonal(a, axis1=1, axis2=2) - np.abs(cross)[:, None]
    bad = np.min(slack, axis=1).reshape(n_u, n_nodes)
    scale = np.maximum(1.0, np.max(np.abs(a).reshape(n_u, -1), axis=1))
    failing = np.flatnonzero(np.min(bad, axis=1) < -PROB_TOL * scale)
    if failing.size:
        r = failing[0] * n_nodes + int(np.argmin(bad[failing[0]]))
        raise GridError(
            "covariance is not diagonally dominant at node "
            f"{x[r]} (control {u[r]}): |a01|={abs(cross[r]):g}"
            f" exceeds a00={a[r, 0, 0]:g} or a11={a[r, 1, 1]:g};"
            " the upwind stencil cannot produce probabilities"
        )
    coeff = np.zeros((len(x), geo.idx.shape[1]))
    for s, off in enumerate(_stencil_offsets(d).tolist()):
        axes = [j for j in range(d) if off[j]]
        if len(axes) == 1:
            j = axes[0]
            coeff[:, s] = slack[:, j] / 2.0 + hx * np.maximum(off[j] * b[:, j], 0.0)
        elif len(axes) == 2:
            coeff[:, s] = np.maximum(off[0] * off[1] * cross, 0.0) / 2.0
    worst = float(np.max(coeff.sum(axis=1)))
    substeps = max(1, int(np.ceil(worst * dt / hx**2 - PROB_TOL)))
    if substeps > MAX_SUBSTEPS:
        raise GridError(
            f"stability needs {substeps} substeps (> {MAX_SUBSTEPS}) at "
            f"t={t:g}: dt={dt:g} is too coarse for hx={hx:g} with drift/"
            "diffusion this strong; enlarge hx or reduce dt"
        )
    dts = dt / substeps
    probs = coeff.reshape(n_u, n_nodes, -1) * (dts / hx**2)
    probs[:, :, 0] = 1.0 - probs[:, :, 1:].sum(axis=2)
    if np.min(probs[:, :, 0]) < -PROB_TOL:
        raise GridError("internal: stay probability negative after substepping")
    np.clip(probs[:, :, 0], 0.0, None, out=probs[:, :, 0])
    charge = np.einsum("uns,ns->un", probs, geo.charged_len) * h
    trunc = float(np.max(np.einsum("uns,ns->un", probs, geo.truncated)))
    return probs, charge, f.reshape(n_u, n_nodes), substeps, trunc


def check_reflected_nodes(nodes: np.ndarray, dom) -> None:
    """Refuse reflected-mode grid nodes that leave the domain closure."""
    inside = dom.contains(nodes)
    if not np.all(inside):
        raise GridError(
            "reflected-mode grid has nodes outside the domain (first: "
            f"{nodes[int(np.argmin(inside))]}); align the box with the "
            "domain or use penalized mode"
        )


def build_chain(ms: ModelSpec, penalty: Optional[int], flow: MeasureFlow,
                grid: DPGrid) -> TransitionModel:
    """Assemble the chain for every slice of the flow's time grid.

    In reflected mode every grid node must lie in the domain closure; the
    penalized mode accepts any grid and relies on the margin.  The returned
    model records the worst one-substep probability mass lost to truncation.
    """
    if grid.dim != ms.dim:
        raise GridError(f"grid dim {grid.dim} != model dim {ms.dim}")
    if penalty is not None:
        penalty = validate_penalty(penalty)
    nodes = grid.nodes()
    if penalty is None:
        check_reflected_nodes(nodes, ms.dom)
    geo = _build_geometry(grid, ms.dom, penalized=penalty is not None)
    # every control at every node, read-only since each slice hands them out again
    x = np.tile(nodes, (len(ms.atoms), 1))
    u = np.repeat(ms.atoms, len(nodes), axis=0)
    x.flags.writeable = u.flags.writeable = False
    probs, charges, costs, subs = [], [], [], []
    worst_trunc = 0.0
    for k in range(flow.n_steps):
        p, c, f, s, tr = _slice_rows(
            ms, penalty, grid, geo, x, u, float(flow.times[k]),
            flow.frames[k], flow.dt,
        )
        probs.append(p)
        charges.append(c)
        costs.append(f)
        subs.append(s)
        worst_trunc = max(worst_trunc, tr)
    terminal = np.asarray(
        ms.terminal_cost(nodes, flow.frames[-1]), dtype=float
    )
    return TransitionModel(
        grid=grid, times=np.asarray(flow.times, dtype=float), penalty=penalty,
        atoms=ms.atoms, geometry=geo, probs=probs, charge=charges, run_cost=costs,
        terminal=terminal, substeps=np.asarray(subs, dtype=int),
        truncated_mass=worst_trunc,
    )


# ---------------------------------------------------------------- recursion


@dataclass(eq=False)
class ValueField:
    """Backward-recursion output on the grid.

    ``V`` has shape (M+1, n_nodes); ``argmin`` (M, n_nodes) holds the
    minimizing control index per slice (ties to the lowest index), and
    ``runner_up`` the second-best one (the argmin itself when only one
    control exists), both indices into the (nU, du) control grid ``atoms``.
    """

    grid: DPGrid
    times: np.ndarray
    V: np.ndarray
    argmin: np.ndarray
    runner_up: np.ndarray
    atoms: np.ndarray

    def value_at(self, t_index: int, x: np.ndarray) -> np.ndarray:
        return self.V[t_index][self.grid.nearest_node(x)]


def _apply_control_step(chain: TransitionModel, k: int, v: np.ndarray
                        ) -> np.ndarray:
    """Per-control continuation value over slice k: substeps of P v + charge."""
    p = chain.probs[k]
    c = chain.charge[k]
    idx = chain.geometry.idx
    out = np.broadcast_to(v, (p.shape[0],) + v.shape).copy()
    for _ in range(int(chain.substeps[k])):
        out = c + np.einsum("uns,uns->un", p, out[:, idx])
    return out


def solve_dp(chain: TransitionModel, flow: MeasureFlow):
    """Backward recursion; returns (ValueField, its strict feedback NodeTable).

    V(t_k) = min_u [ f(t_k, x, mu_k, u) dt + boundary charges + E V(t_{k+1}) ]
    with terminal V = g.  The feedback law looks the control index up at the
    nearest grid node and time slice.
    """
    if chain.n_slices != flow.n_steps or not np.allclose(
        chain.times, flow.times, atol=1e-9
    ):
        raise ConfigError("chain and flow time grids do not match")
    m = chain.n_slices
    n_nodes = chain.grid.n_nodes
    v_all = np.empty((m + 1, n_nodes))
    arg = np.empty((m, n_nodes), dtype=np.int64)
    arg2 = np.empty((m, n_nodes), dtype=np.int64)
    v_all[m] = chain.terminal
    v = chain.terminal
    dt = chain.dt
    for k in range(m - 1, -1, -1):
        q = chain.run_cost[k] * dt + _apply_control_step(chain, k, v)
        best = np.argmin(q, axis=0)
        arg[k] = best
        v = q[best, np.arange(n_nodes)]
        q[best, np.arange(n_nodes)] = np.inf  # one control: the runner-up is the argmin
        arg2[k] = np.argmin(q, axis=0)
        v_all[k] = v
    field = ValueField(grid=chain.grid, times=chain.times, V=v_all,
                       argmin=arg, runner_up=arg2, atoms=chain.atoms)
    return field, feedback_law(field)


def feedback_law(field: ValueField) -> NodeTable:
    """Strict feedback: the argmin control index at the nearest node."""
    return NodeTable(field.times, field.grid, field.argmin, field.atoms)


def _probe_weights(field: ValueField, epsilon: float) -> np.ndarray:
    """(M, n_nodes, nU) table: 1 - eps on the argmin control, eps on the runner-up."""
    if not 0.0 <= epsilon <= 0.5:
        raise ConfigError("epsilon must lie in [0, 1/2]")
    w = np.zeros(field.argmin.shape + (field.atoms.shape[0],))
    k, node = np.indices(field.argmin.shape)
    w[k, node, field.argmin] += 1.0 - epsilon
    w[k, node, field.runner_up] += epsilon
    return w


def relaxed_probe(field: ValueField, epsilon: float = 0.1) -> NodeTable:
    """Mixture law: weight 1 - eps on the argmin control, eps on the runner-up.

    A cheap probe of whether genuinely relaxed controls would improve on the
    strict DP law; with one control, or eps = 0, it degenerates to the strict
    law in relaxed form.
    """
    return NodeTable(field.times, field.grid, _probe_weights(field, epsilon),
                     field.atoms)


def chattered_probe(field: ValueField, delta: float,
                    epsilon: float = 0.1) -> NodeTable:
    """The relaxed probe chattered at block length delta, as a strict law.

    The probe's weights depend on the state only through its nearest node,
    so each node's switching schedule is tabulated once for the whole run.
    """
    table = _probe_weights(field, epsilon)
    return NodeTable(field.times, field.grid,
                     chattered_indices(field.times, table, delta), field.atoms)


# ------------------------------------------------------------ exploitability


@dataclass(frozen=True)
class ExploitabilityReport:
    """Cost of a candidate law minus the best-response value, both under mu."""

    gap: float
    cost: float
    cost_se: float
    dp_value: float
    clipped: bool = False  # the raw gap fell below -3 SE and was raised to it


def exploitability(ms: ModelSpec, flow: MeasureFlow, law, sim: SimConfig,
                   grid: Optional[DPGrid] = None,
                   field: Optional[ValueField] = None
                   ) -> tuple[ExploitabilityReport, MeasureFlow]:
    """How much the candidate law loses to the DP best response under mu.

    Simulates the candidate under the frozen flow with the run's own
    ``sim`` (penalty, particles, seed), compares with the DP value
    averaged over the realized initial states, and clips the gap below at
    -3 standard errors: anything lower signals an inconsistency rather than
    a better-than-optimal law, so the report records the clip in ``clipped``.
    The best response is ``field`` when given, else the DP solved on
    ``grid`` at ``sim.penalty``, which a penalized run must already have padded.

    Returns the report and the rollout's realized flow.  That flow repeats,
    bit for bit, any run of this law under this flow with this ``sim``, so a
    solve can drop its last run's flow before the rollout allocates.
    """
    if field is None:
        if grid is None:
            raise GridError("exploitability needs a best-response field or a DP grid")
        field, _ = solve_dp(build_chain(ms, sim.penalty, flow, grid), flow)
    run, realized = simulate(ms, sim, law, frozen_flow=flow, keep_paths=False)
    rep = run.cost
    dp0 = float(np.mean(field.value_at(0, run.X[0])))
    gap, floor = rep.value - dp0, -3.0 * rep.stderr
    return ExploitabilityReport(gap=max(gap, floor), cost=rep.value,
                                cost_se=rep.stderr, dp_value=dp0,
                                clipped=gap < floor), realized


def value_to_csv(field: ValueField, path) -> None:
    """Rows (t, node coords, V, control index; -1 on the terminal slice)."""
    nodes = field.grid.nodes()
    xs = [f"x_{j + 1}" for j in range(nodes.shape[1])]
    u_index = np.vstack((field.argmin[:len(field.V) - 1], np.full((1, len(nodes)), -1)))
    heads = [",".join(map(format_float, row)) for row in nodes]
    m = len(field.V)
    write_csv_steps([(path, ",".join(["t"] + xs + ["value", "u_index"]),
                      lambda k: format_float(field.times[k]), heads, 2)],
                    (repr, "%d".__mod__),
                    stored_steps(lambda k: np.column_stack((field.V[k], u_index[k])),
                                 m), m)
