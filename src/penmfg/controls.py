"""Control laws: strict and relaxed feedback, chattering.

A control law is one of

- :class:`StrictFeedback`         atom index = fn(t, x)
- :class:`RelaxedFeedback`        weights over a control grid as fn(t, x)

A strict control is always one atom of a finite control set, so strict laws
speak in atom indices: a feedback returns row indices into the model's
control grid, and the simulation hands the coefficients ``atoms[index]``.
Both kinds of feedback are pure functions of (t, x): a run records the law,
not its indices or weights, and :func:`read_controls` re-evaluates them at
the recorded states for every reader.

Chattering turns a relaxed control into a strict one: the horizon is cut into
blocks of length delta, and inside each block every control atom receives a
number of whole time cells proportional to its block-averaged weight (largest
remainder rounding, atoms in fixed grid order).  As delta shrinks the schedule
occupies the relaxed measure's mass pattern ever more finely, which is what
the strict-approximation studies sweep.  :func:`chattered_indices` allocates
any weight table whose leading axis is the time cell: a relaxed control
measure's (cells, nU) weights, or a per-node feedback table (cells, nodes,
nU), which chatters every node at once and yields a strict node-table law.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ContractViolationError, PenmfgError
from .measures import TimedControlMeasure


# ------------------------------------------------------------------ variants


@dataclass(eq=False)
class StrictFeedback:
    """Deterministic feedback: fn(t, x) picks one control grid row per state.

    ``fn`` must be a pure function of (t, x), which every reader re-evaluates.
    """

    fn: Callable  # (t, (B, d)) -> (B,) int indices into ms.control_grid()


@dataclass(eq=False)
class RelaxedFeedback:
    """State-dependent mixture over control atoms: fn(t, x) -> (B, nU).

    ``fn`` must be a pure function of (t, x), which every reader re-evaluates.
    """

    fn: Callable
    atoms: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.atoms, dtype=float)
        self.atoms = a[:, None] if a.ndim == 1 else a


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


def relaxed_weights(law: RelaxedFeedback, t: float, x: np.ndarray) -> np.ndarray:
    """The (B, nU) mixture ``law.fn(t, x)``, checked to be probabilities.

    A row may sum to one within 1e-9; it is divided by its sum, so every
    reader (the sampler, the cost, the realized control measure) gets the
    probability vectors a :class:`TimedControlMeasure` demands.  A row that
    sums to exactly 1.0 comes back unchanged.
    """
    w = np.asarray(law.fn(t, x), dtype=float)
    if w.shape != (x.shape[0], law.atoms.shape[0]):
        raise ContractViolationError(
            f"relaxed feedback returned shape {w.shape}, expected "
            f"({x.shape[0]}, {law.atoms.shape[0]})"
        )
    # a NaN weight makes its row sum NaN, which fails the `<=`
    if np.any(w < -1e-12) or not np.max(np.abs(_running_sums(w)[-1] - 1.0)) <= 1e-9:
        raise ContractViolationError("relaxed feedback weights must be probabilities")
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


def sample_control(ms, law, t: float, x: np.ndarray,
                   rng: Optional[np.random.Generator]):
    """Control atoms for a batch of particles under a law.

    Returns ``(indices, weights)``: indices is (B,) int into the law's atoms
    (the model's control grid for strict feedback), weights the (B, nU)
    mixture they were drawn from for relaxed laws, None for strict ones.
    Strict feedback output is checked against that index contract.  Only
    relaxed laws draw from ``rng``; strict ones may be given None.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if isinstance(law, StrictFeedback):
        idx = np.asarray(law.fn(t, x))
        n_u = ms.control_grid().shape[0]
        if idx.shape != (x.shape[0],) or idx.dtype.kind not in "iu":
            raise ContractViolationError(
                f"feedback returned {idx.dtype} of shape {idx.shape}, expected "
                f"({x.shape[0]},) integer indices into the control grid"
            )
        if np.any(idx < 0) or np.any(idx >= n_u):
            raise ContractViolationError(
                f"feedback returned a control index outside 0..{n_u - 1}"
            )
        return idx, None
    if isinstance(law, RelaxedFeedback):
        w = relaxed_weights(law, t, x)
        return _sample_rows(w, rng), w
    raise PenmfgError(f"unknown control law {type(law).__name__}")


def control_mass(n_u: int, indices: np.ndarray,
                 weights: Optional[np.ndarray]) -> np.ndarray:
    """One step's population-averaged control mass over the atoms: the mean
    of the (B, nU) relaxed weights when given, else of the point masses at
    the strict indices, counted."""
    if weights is not None:
        return weights.mean(axis=0)
    return np.bincount(indices, minlength=n_u) / indices.size


def read_controls(ms, law, t: float, x: np.ndarray):
    """The controls a run under ``law`` used at states x and time t.

    ``(indices, None)`` for strict feedback, read through `sample_control`
    with its index contract check; ``(None, weights)`` for a relaxed law,
    the mixture its controls were drawn from, bit for bit.
    """
    if isinstance(law, RelaxedFeedback):
        return None, relaxed_weights(law, t, x)
    return sample_control(ms, law, t, x, None)


def realized_control_measure(ms, paths) -> TimedControlMeasure:
    """Population-averaged relaxed control measure realized along a bundle.

    Each step's controls are re-read at its states (`read_controls`):
    strict indices are counted, which is the mean of their point masses bit
    for bit, and relaxed weights averaged.  A lean run sums the same masses
    as it steps (``LeanRun.controls``).
    """
    n_u = paths.atoms.shape[0]
    w = [control_mass(n_u, *read_controls(ms, paths.law, t, x))
         for t, x in zip(paths.times[:-1], paths.X)]
    return TimedControlMeasure(paths.times, paths.atoms, np.stack(w))
