"""Control laws: node tables, sampling, chattering.

Every control law is a :class:`NodeTable`: atom indices (a strict law) or
atom weights (a relaxed one) per time cell and grid node, checked once when
built.  The DP's argmin feedback, relaxed probe and chattered schedules are
tables over its grid; an open-loop law has no grid and one node per time
cell, and :func:`constant_law` is the one-cell table that holds the first
atom.  A strict control is always one atom of a finite control set, and
relaxed weight rows must be probabilities within 1e-9.
:func:`sample_control` is the one per-step entry point.  Every law is a pure
function of (t, x): a run records the law, not its controls, and path
readers re-evaluate it at the recorded states.

Chattering turns a relaxed control into a strict one: the horizon is cut into
blocks of length delta, and inside each block every control atom receives a
number of whole time cells proportional to its block-averaged weight (largest
remainder rounding, atoms in fixed grid order).  As delta shrinks the schedule
occupies the relaxed measure's mass pattern ever more finely, which is what
the strict-approximation studies sweep.  :func:`chattered_indices` allocates
any weight table whose leading axis is the time cell: a relaxed control
measure's (cells, nU) weights, or a per-node feedback table (cells, nodes,
nU), which chatters every node at once and yields a strict node table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import ContractViolationError, PenmfgError


# ------------------------------------------------------------------- laws


@dataclass(eq=False)
class NodeTable:
    """A feedback law read at a state's time cell and nearest grid node.

    ``table`` holds (M, n_nodes) indices into the (nU, du) ``atoms``, a strict
    law, or (M, n_nodes, nU) weights, a relaxed one, over the M cells of
    ``times`` and the nodes of ``grid`` (a `dp.DPGrid`).  With ``grid`` None
    the law is open loop: every state reads the one node of its time cell,
    so the table is (M, 1) or (M, 1, nU).  Weight rows must be probabilities
    within 1e-9 and are stored divided by their sums.
    """

    times: np.ndarray
    grid: object
    table: np.ndarray
    atoms: np.ndarray

    def __post_init__(self):
        table, n_u = np.asarray(self.table), self.atoms.shape[0]
        self.relaxed = table.ndim == 3
        n_nodes = 1 if self.grid is None else self.grid.n_nodes
        want = (self.times.size - 1, n_nodes) + (n_u,) * self.relaxed
        if table.shape != want:
            raise ContractViolationError(f"node table shape {table.shape}, not {want}")
        if self.relaxed:
            table = _probabilities(table.reshape(-1, n_u)).reshape(want)
        elif table.dtype.kind not in "iu" or table.min() < 0 or table.max() >= n_u:
            raise ContractViolationError(f"node table indices must lie in 0..{n_u - 1}")
        self.table = table


def constant_law(atoms: np.ndarray) -> NodeTable:
    """Open-loop strict law holding ``atoms[0]`` at every (t, x).

    Its one time cell holds every t (`time_cell` clamps), and it has no
    grid, so it runs in any dimension.
    """
    return NodeTable(np.array([0.0, 1.0]), None, np.zeros((1, 1), dtype=np.intp),
                     atoms)


class StepControls(NamedTuple):
    """One step's controls for B states: the (B, du) atoms used (None for a
    relaxed law read without a generator), the (B, nU) relaxed weights (None
    for a strict law) and the (nU,) population-averaged control mass."""

    u: Optional[np.ndarray]
    weights: Optional[np.ndarray]
    mass: np.ndarray


def time_cell(times: np.ndarray, t: float) -> int:
    """Index k of the cell [t_k, t_k+1) holding t, clamped to the grid's cells.

    The 1e-9 slack keeps a time that is a node up to rounding in its own cell.
    """
    dt = float(times[1] - times[0])
    return int(np.clip(np.floor((t - times[0]) / dt + 1e-9), 0, times.size - 2))


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


def chattered_indices(times: np.ndarray, weights: np.ndarray, delta: float) -> np.ndarray:
    """Chattering schedule of a (cells, ..., nU) weight table: (cells, ...) atom indices.

    Within each block of length delta, atom j occupies a contiguous run of
    whole cells whose count is the largest-remainder rounding of
    (block-averaged weight of j) * (cells per block); atoms appear in grid
    order, so each atom's occupation time is within one cell of delta times
    its averaged weight.  Each entry of the batch axes is allocated on its own.
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


def _probabilities(w: np.ndarray) -> np.ndarray:
    """(B, nU) weight rows checked to be probabilities within 1e-9, each
    clipped at zero and divided by its running-sum total."""
    # a NaN weight makes its row sum NaN, which fails the `<=`
    if np.any(w < -1e-12) or not np.max(np.abs(_running_sums(w)[-1] - 1.0)) <= 1e-9:
        raise ContractViolationError("relaxed weights must be probabilities")
    w = np.clip(w, 0.0, None)
    return w / _running_sums(w)[-1][:, None]


def _running_sums(weights: np.ndarray) -> list:
    """Columns of ``np.cumsum(weights, axis=1)``, bit for bit, one array each.

    The last one is the row sum, added left to right as ``weights.sum(axis=1)``
    does for fewer than 8 atoms.  Column arithmetic avoids numpy's slow
    reductions over a short trailing axis.
    """
    sums = [weights[:, 0]]
    for j in range(1, weights.shape[1]):
        sums.append(sums[-1] + weights[:, j])
    return sums


def _sample_rows(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One atom index per row, drawn with probability proportional to its weight."""
    sums = _running_sums(weights)
    r = rng.random(weights.shape[0]) * sums[-1]
    below = np.zeros(weights.shape[0], dtype=np.intp)
    for s in sums:
        below += s < r
    return np.minimum(below, weights.shape[1] - 1)


def sample_control(law: NodeTable, t: float, x: np.ndarray,
                   rng: Optional[np.random.Generator]) -> StepControls:
    """The controls a batch of particles uses under a law at time t.

    Each state's node is looked up once and its time cell's row read.  A
    strict law's mass counts the states per node, a bincount of exact
    integers, so it has the bits of counting the atoms per particle.  Only
    relaxed laws draw, from ``rng``: given None they return their weights
    and no atoms, which is how readers re-evaluate a recorded run.
    """
    if not isinstance(law, NodeTable):
        raise PenmfgError(f"unknown control law {type(law).__name__}")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n = x.shape[0]
    nodes = np.zeros(n, np.intp) if law.grid is None else law.grid.nearest_node(x)
    row = law.table[time_cell(law.times, t)]
    if not law.relaxed:
        mass = np.bincount(row, np.bincount(nodes, minlength=row.size),
                           law.atoms.shape[0]) / n
        return StepControls(np.take(law.atoms[row], nodes, axis=0), None, mass)
    w = np.take(row, nodes, axis=0)
    u = None if rng is None else np.take(law.atoms, _sample_rows(w, rng), axis=0)
    # the bits of w.mean(axis=0), which reduces axis 0 far more slowly
    return StepControls(u, w, np.cumsum(w, axis=0)[-1] / n)
