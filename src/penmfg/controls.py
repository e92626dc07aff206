"""Control laws: strict and relaxed feedback, open-loop measures, chattering.

A control law is one of

- :class:`StrictFeedback`         u = fn(t, x)
- :class:`RelaxedFeedback`        weights over a control grid as fn(t, x)
- :class:`BinnedRelaxedFeedback`  same, backed by per-bin tables (projection output)
- :class:`RelaxedOpenLoop`        a TimedControlMeasure, identical for all states
- :class:`PiecewiseConstantControl`  a deterministic open-loop switching schedule

Chattering turns a relaxed control into a strict one: the horizon is cut into
blocks of length delta, and inside each block every control atom receives a
number of whole time cells proportional to its block-averaged weight (largest
remainder rounding, atoms in fixed grid order).  As delta shrinks the schedule
occupies the relaxed measure's mass pattern ever more finely, which is what
the strict-approximation studies sweep.  :func:`chattered_indices` allocates
any weight table whose leading axis is the time cell: an open-loop measure's
(cells, nU) weights, or a per-node feedback table (cells, nodes, nU), which
chatters every node at once and yields a strict node-table law.

The Markovian projection compresses per-particle relaxed weights onto a state
binning: bin by bin it averages the weights of the particles inside, giving a
relaxed feedback law that depends on the state only through its bin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ContractViolationError, PenmfgError
from .measures import TimedControlMeasure

GRID_MATCH_TOL = 1e-9
DEFAULT_BINS = 32
MAX_BIN_DIM = 2


# ------------------------------------------------------------------ variants


@dataclass(eq=False)
class StrictFeedback:
    """Deterministic feedback u = fn(t, x) with values in the control set."""

    fn: Callable  # (t, (B, d)) -> (B, du)


@dataclass(eq=False)
class RelaxedFeedback:
    """State-dependent mixture over control atoms: fn(t, x) -> (B, nU)."""

    fn: Callable
    atoms: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.atoms, dtype=float)
        self.atoms = a[:, None] if a.ndim == 1 else a


@dataclass(eq=False)
class RelaxedOpenLoop:
    """One relaxed control path shared by every particle."""

    measure: TimedControlMeasure


@dataclass(eq=False)
class PiecewiseConstantControl:
    """Open-loop schedule: one control atom per time cell."""

    times: np.ndarray
    indices: np.ndarray
    atoms: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.indices = np.asarray(self.indices, dtype=int)
        a = np.asarray(self.atoms, dtype=float)
        self.atoms = a[:, None] if a.ndim == 1 else a
        if self.indices.size != self.times.size - 1:
            raise PenmfgError("need one control index per time cell")
        if np.any(self.indices < 0) or np.any(self.indices >= self.atoms.shape[0]):
            raise PenmfgError("control index out of range")

    def cell_of(self, t: float) -> int:
        dt = self.times[1] - self.times[0]
        return int(np.clip(np.floor((t - self.times[0]) / dt + 1e-12),
                           0, self.indices.size - 1))

    def value_at(self, t: float) -> np.ndarray:
        return self.atoms[self.indices[self.cell_of(t)]]

    def as_timed_measure(self) -> TimedControlMeasure:
        w = np.zeros((self.indices.size, self.atoms.shape[0]))
        w[np.arange(self.indices.size), self.indices] = 1.0
        return TimedControlMeasure(self.times, self.atoms, w)


# -------------------------------------------------------------- allocation


def _cells_per_block(times: np.ndarray, delta: float) -> int:
    dt = float(times[1] - times[0])
    if delta < dt - 1e-12:
        raise PenmfgError(
            f"switching period {delta} is below the time step {dt}"
        )
    k = int(round(delta / dt))
    if abs(k * dt - delta) > 1e-9 * max(delta, 1.0):
        raise PenmfgError(
            f"switching period {delta} must be a whole multiple of the step {dt}"
        )
    return k


def largest_remainder_counts(quotas: np.ndarray, total: int) -> np.ndarray:
    """Round nonnegative quotas summing to ``total`` to integers, batch-wise.

    Floor first, then hand out the missing cells by descending fractional
    remainder; ties go to the lower atom index (stable sort).
    """
    q = np.atleast_2d(np.asarray(quotas, dtype=float))
    floors = np.floor(q + 1e-12).astype(int)
    missing = total - floors.sum(axis=1)
    order = np.argsort(-(q - floors), axis=1, kind="stable")
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(q.shape[1])[None, :].repeat(q.shape[0], 0),
                      axis=1)
    counts = floors + (rank < missing[:, None])
    return counts if np.asarray(quotas).ndim == 2 else counts[0]


def chattering(q: TimedControlMeasure, delta: float) -> PiecewiseConstantControl:
    """Deterministic switching schedule approximating a relaxed control.

    Within each block of length delta, atom j occupies a contiguous run of
    whole cells whose count is the largest-remainder rounding of
    (block-averaged weight of j) * (cells per block); atoms appear in grid
    order.  Each atom's occupation time is within one cell of delta times its
    averaged weight.
    """
    return PiecewiseConstantControl(q.times, chattered_indices(q.times, q.weights, delta),
                                    q.atoms)


def chattered_indices(times: np.ndarray, weights: np.ndarray, delta: float) -> np.ndarray:
    """Chattering schedule of a (cells, ..., nU) weight table: (cells, ...) atom indices.

    Each entry of the batch axes is allocated on its own, as in :func:`chattering`.
    """
    k = _cells_per_block(times, delta)
    w = np.asarray(weights, dtype=float)
    indices = np.empty(w.shape[:-1], dtype=int)
    for start in range(0, w.shape[0], k):
        stop = min(start + k, w.shape[0])
        w_bar = w[start:stop].mean(axis=0).reshape(-1, w.shape[-1])
        counts = largest_remainder_counts(w_bar * (stop - start), stop - start)
        offset = np.arange(stop - start)[:, None, None]
        indices[start:stop] = np.sum(np.cumsum(counts, axis=1) <= offset,
                                     axis=2).reshape(indices[start:stop].shape)
    return indices


def _eval_weights(law, t: float, x: np.ndarray) -> np.ndarray:
    w = np.asarray(law.fn(t, x), dtype=float)
    if w.shape != (x.shape[0], law.atoms.shape[0]):
        raise ContractViolationError(
            f"relaxed feedback returned shape {w.shape}, expected "
            f"({x.shape[0]}, {law.atoms.shape[0]})"
        )
    if np.any(w < -1e-12) or np.max(np.abs(w.sum(axis=1) - 1.0)) > 1e-9:
        raise ContractViolationError("relaxed feedback weights must be probabilities")
    return np.clip(w, 0.0, None)


def _sample_rows(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    cum = np.cumsum(weights, axis=1)
    r = rng.random((weights.shape[0], 1)) * cum[:, -1:]
    return np.minimum(np.sum(cum < r, axis=1), weights.shape[1] - 1)


def sample_control(ms, law, t: float, x: np.ndarray, rng: np.random.Generator):
    """Controls for a batch of particles under a law.

    Returns ``(values, weights)`` where values is (B, du) and weights is the
    (B, nU) mixture for relaxed laws, None for strict ones.  Strict feedback
    values are checked against the model's control set.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if isinstance(law, StrictFeedback):
        u = np.atleast_2d(np.asarray(law.fn(t, x), dtype=float))
        if u.shape[0] != x.shape[0]:
            raise ContractViolationError(
                f"feedback returned {u.shape[0]} controls for {x.shape[0]} states"
            )
        ok = ms.controls.contains(u, tol=GRID_MATCH_TOL)
        if not np.all(ok):
            raise ContractViolationError(
                f"feedback emitted a control outside the control set: "
                f"{u[np.argmin(ok)]}"
            )
        return u, None
    if isinstance(law, (RelaxedFeedback, BinnedRelaxedFeedback)):
        w = _eval_weights(law, t, x)
        u = law.atoms[_sample_rows(w, rng)]
        return u, w
    if isinstance(law, RelaxedOpenLoop):
        q = law.measure
        dt = q.times[1] - q.times[0]
        cell = int(np.clip(np.floor((t - q.times[0]) / dt + 1e-12), 0, q.n_cells - 1))
        w = np.broadcast_to(q.weights[cell], (x.shape[0], q.atoms.shape[0])).copy()
        u = q.atoms[_sample_rows(w, rng)]
        return u, w
    if isinstance(law, PiecewiseConstantControl):
        u = law.value_at(t)
        return np.broadcast_to(u, (x.shape[0], u.size)).copy(), None
    raise PenmfgError(f"unknown control law {type(law).__name__}")


# ------------------------------------------------------- markovian projection


@dataclass(frozen=True)
class BinSpec:
    """Uniform state binning; bounds default to the data range."""

    n_bins: int = DEFAULT_BINS
    lower: tuple | None = None
    upper: tuple | None = None


@dataclass(eq=False)
class BinnedRelaxedFeedback:
    """Relaxed feedback constant on state bins, one table per time step."""

    times: np.ndarray
    edges: list[np.ndarray]
    tables: np.ndarray  # (M, n_flat, nU)
    atoms: np.ndarray

    def _bin_of(self, x: np.ndarray) -> np.ndarray:
        idx = 0
        for axis, e in enumerate(self.edges):
            j = np.clip(np.searchsorted(e, x[:, axis], side="right") - 1,
                        0, e.size - 2)
            idx = idx * (e.size - 1) + j
        return idx

    def fn(self, t: float, x: np.ndarray) -> np.ndarray:
        dt = self.times[1] - self.times[0]
        k = int(np.clip(np.round((t - self.times[0]) / dt),
                        0, self.tables.shape[0] - 1))
        return self.tables[k, self._bin_of(np.atleast_2d(x))]


def markovian_projection(paths, bins: BinSpec | None = None) -> BinnedRelaxedFeedback:
    """Average per-particle relaxed weights over state bins.

    ``paths`` must carry per-step control weights (relaxed simulation) or
    strict on-grid control values, which are lifted to point masses.  Empty
    bins inherit the table row of the nearest populated bin.
    """
    bins = bins or BinSpec()
    states = paths.X
    m_steps, n_particles = states.shape[0] - 1, states.shape[1]
    d = states.shape[2]
    if d > MAX_BIN_DIM:
        raise PenmfgError(f"state binning supports d <= {MAX_BIN_DIM}, got {d}")
    if n_particles == 0:
        raise PenmfgError("cannot project an empty path bundle")
    weights = _bundle_weights(paths)
    atoms = paths.ctrl.atoms
    lo = np.asarray(bins.lower if bins.lower is not None
                    else states.min(axis=(0, 1)), dtype=float).reshape(d)
    hi = np.asarray(bins.upper if bins.upper is not None
                    else states.max(axis=(0, 1)), dtype=float).reshape(d)
    hi = np.where(hi > lo, hi, lo + 1.0)
    edges = [np.linspace(lo[a], hi[a] + 1e-12 * (1 + abs(hi[a])), bins.n_bins + 1)
             for a in range(d)]
    n_flat = bins.n_bins**d
    tables = np.empty((m_steps, n_flat, atoms.shape[0]))
    centers = _bin_centers(edges)
    helper = BinnedRelaxedFeedback(paths.times, edges, tables, atoms)
    for k in range(m_steps):
        flat = helper._bin_of(states[k])
        sums = np.zeros((n_flat, atoms.shape[0]))
        np.add.at(sums, flat, weights[k])
        counts = np.bincount(flat, minlength=n_flat).astype(float)
        filled = counts > 0
        sums[filled] /= counts[filled, None]
        if not np.all(filled):
            src = np.where(filled)[0]
            dist = np.linalg.norm(
                centers[~filled][:, None, :] - centers[src][None, :, :], axis=2
            )
            sums[~filled] = sums[src[np.argmin(dist, axis=1)]]
        tables[k] = sums
    return helper


def _bin_centers(edges: list[np.ndarray]) -> np.ndarray:
    mids = [0.5 * (e[:-1] + e[1:]) for e in edges]
    mesh = np.meshgrid(*mids, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _bundle_weights(paths) -> np.ndarray:
    """Per-step (N, nU) weights; strict on-grid values become point masses."""
    ctrl = paths.ctrl
    if ctrl.weights is not None:
        return ctrl.weights
    atoms = ctrl.atoms
    if atoms is None or ctrl.values is None:
        raise PenmfgError("path bundle carries no usable control record")
    vals = ctrl.values
    gap = np.full(vals.shape[:2], np.inf)
    idx = np.zeros(vals.shape[:2], dtype=int)
    for j, atom in enumerate(atoms):  # strict '<': ties go to the lower atom
        dist = np.linalg.norm(vals - atom, axis=2)
        idx = np.where(dist < gap, j, idx)
        gap = np.minimum(gap, dist)
    if np.max(gap) > GRID_MATCH_TOL:
        raise ContractViolationError(
            "strict control values do not sit on the control grid; "
            "cannot lift them to point masses"
        )
    out = np.zeros(vals.shape[:2] + (atoms.shape[0],))
    np.put_along_axis(out, idx[:, :, None], 1.0, axis=2)
    return out


def realized_control_measure(paths) -> TimedControlMeasure:
    """Population-averaged relaxed control measure realized along a bundle."""
    w = _bundle_weights(paths).mean(axis=1)
    return TimedControlMeasure(paths.times, paths.ctrl.atoms, w)
