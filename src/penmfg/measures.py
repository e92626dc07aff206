"""Empirical measures, measure flows, and Wasserstein-2 distances.

Every distance is exact, and the inputs pick its path:

- one-dimensional uniform clouds of equal size pair their points in sorted
  order (``_w2sq_sorted``);
- every other one-dimensional pair takes the quantile coupling
  (``_w2sq_quantile``);
- uniform clouds of equal size in d >= 2 take the optimal assignment
  (``_assignment_cost2``), which builds the N x N cost matrix and loads
  scipy.optimize on its first call;
- every other pair, each ``d_relaxed`` pair included, is a transportation LP
  solved by the network simplex in this module (``_ot_lp``, numpy only).
  An LP that needs more than ``LP_MAX_PIVOTS`` pivots raises a PenmfgError
  naming its shape.

So a run whose distances are all 1-D or LPs, as every shipped config's are,
never imports scipy.optimize, scipy.sparse, scipy.spatial or scipy.special.

Distances between measure flows are taken as the supremum of the per-node
marginal distances.

Relaxed controls on [0, T] carry their time marginal fixed to Lebesgue/T, so a
``TimedControlMeasure`` only stores per-cell weights over a finite control
grid.  The distance between two of them is the Wasserstein-2 distance of the
normalized measures on the product of time and control space.
"""

from __future__ import annotations

import hashlib
import logging
import os
import shutil
import signal
import warnings
from contextlib import ExitStack, suppress
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import PenmfgError

WEIGHT_TOL = 1e-12
LP_MAX_PIVOTS = 100_000


@dataclass(eq=False)
class EmpiricalMeasure:
    """Weighted point cloud on R^d. Uniform weights when none are given."""

    samples: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        x = np.asarray(self.samples, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if x.ndim != 2 or x.shape[0] == 0:
            raise PenmfgError(f"samples must be (N, d) with N >= 1, got {x.shape}")
        if not np.all(np.isfinite(x)):
            raise PenmfgError("samples must be finite")
        self.samples = x
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float).reshape(-1)
            if w.size != x.shape[0]:
                raise PenmfgError("one weight per sample required")
            # a NaN weight makes the sum NaN, which fails the `<=`
            if np.any(w < 0.0) or not abs(w.sum() - 1.0) <= WEIGHT_TOL:
                raise PenmfgError("weights must be nonnegative and sum to 1")
            self.weights = w

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    def weight_vector(self) -> np.ndarray:
        if self.weights is None:
            return np.full(self.n, 1.0 / self.n)
        return self.weights

    @cached_property
    def mean(self) -> np.ndarray:
        return self.weight_vector() @ self.samples


@dataclass(eq=False)
class MeasureFlow:
    """Marginal laws along a uniform time grid, one frame per node."""

    times: np.ndarray
    frames: list[EmpiricalMeasure]

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise PenmfgError("need a time grid with at least two nodes")
        steps = np.diff(t)
        if np.any(steps <= 0) or not np.allclose(steps, steps[0], rtol=1e-9):
            raise PenmfgError("time grid must be uniform and increasing")
        if len(self.frames) != t.size:
            raise PenmfgError("one frame per time node required")
        n0, d0 = self.frames[0].n, self.frames[0].dim
        for k, fr in enumerate(self.frames):
            if fr.n != n0 or fr.dim != d0:
                raise PenmfgError(f"frame {k} has shape ({fr.n},{fr.dim}) != ({n0},{d0})")
        self.times = t

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def n(self) -> int:
        return self.frames[0].n

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    @property
    def dim(self) -> int:
        return self.frames[0].dim

    def stack(self) -> np.ndarray:
        """Frames as one (M+1, N, d) array."""
        return np.stack([fr.samples for fr in self.frames])


def flow_from_states(times, states: np.ndarray) -> MeasureFlow:
    """MeasureFlow from an (M+1, N, d) state array."""
    return MeasureFlow(times, [EmpiricalMeasure(states[k]) for k in range(len(times))])


def format_float(v: float) -> str:
    """Locale-free shortest round-trip decimal, for reproducible CSV output."""
    return repr(float(v))


# The writer forks one helper for the second half of a table's steps.  A
# fork, wait and append cost about 3-6 ms in a 40-60 MB CLI process on a
# 2-core host, and the helper takes about 1 us of formatting per cell off the
# parent; below this many formatted cells (about 50 ms of work) the saving is
# too small against that fixed cost, and the writer stays serial.
SPLIT_MIN_CELLS = 50_000


def write_csv_steps(tables, formats, produce, m: int):
    """Write CSV files from one (N, C) block of cells per time step as a
    producer makes them, and return what it returns: ``produce(emit)`` calls
    ``emit(block)`` with the blocks of steps 0, 1, ..., m - 1 in turn.  Table
    ``(path, header, lead, row_heads, width)`` has as row i of step k
    ``lead(k),row_heads[i],`` and cells ``block[i, :width]``, column j made
    text by ``formats[j]`` only where its bits (not value: ``0.0 == -0.0``)
    moved since the last step; the tables share these strings.  A cell's text
    is the same whichever step formats it, so the bytes never depend on how
    the steps are split.

    Steps [m // 2, m) are written at the same time as the first half by one
    forked helper process, into ``<path>.part`` beside each table.  The helper
    replays ``produce`` from step 0, so a producer must make the same blocks
    in every process (a run's draws come from counter-based streams and the
    model callbacks are pure).  It formats and writes only its half, with
    warnings and logging off and no atexit of its own, sends the sha256 of
    that half's blocks, or its error, down a pipe and leaves by
    ``os._exit``.  The parent writes the header and steps [0, m // 2),
    hashes the blocks of the rest, waits for the helper, and appends each
    part once the two digests agree; a failed helper or a replay that
    differs raises OSError.  On any error the helper is killed and reaped,
    and the parts and the tables removed, before the error propagates.  The writer stays serial without ``os.fork``, on one
    usable CPU, below two steps or below SPLIT_MIN_CELLS formatted cells.
    The helper's CPU time and memory count in RUSAGE_CHILDREN, not in the
    parent's RUSAGE_SELF.
    """
    paths = [path for path, *_ in tables]
    cells = m * len(tables[0][3]) * len(formats)  # steps x rows x formatted columns
    try:
        if (m < 2 or cells < SPLIT_MIN_CELLS or not hasattr(os, "fork")
                or _usable_cpus() < 2):
            with ExitStack() as stack:
                return produce(_emitter(stack, paths, tables, formats, range(m)))
        return _split_write(paths, tables, formats, produce, m)
    except BaseException:
        for path in paths:
            with suppress(FileNotFoundError):
                os.remove(path)
        raise


def stored_steps(block, m: int):
    """The `write_csv_steps` producer of blocks already held: ``block(k)``
    for k in range(m)."""
    def produce(emit):
        for k in range(m):
            emit(block(k))
    return produce


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _split_write(paths, tables, formats, produce, m: int):
    """`write_csv_steps` with the helper writing steps [m // 2, m)."""
    theirs = range(m // 2, m)
    parts = [f"{path}.part" for path in paths]
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the helper: never returns into the caller's stack
        code = 1
        try:
            os.close(read_fd)
            # the parent's run reports each warning and log line once
            logging.disable(logging.CRITICAL)
            warnings.simplefilter("ignore")
            digest = hashlib.sha256()
            try:
                with ExitStack() as stack:
                    produce(_emitter(stack, parts, tables, formats, theirs,
                                     digest, theirs))
                message, code = digest.digest(), 0
            except BaseException as exc:
                message = repr(exc).encode()
            os.write(write_fd, message)
        finally:
            os._exit(code)
    os.close(write_fd)
    try:
        digest = hashlib.sha256()
        try:
            with ExitStack() as stack:
                result = produce(_emitter(stack, paths, tables, formats,
                                          range(theirs.start), digest, theirs))
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            with os.fdopen(read_fd, "rb") as pipe:  # EOF once the helper is gone
                message = pipe.read()
            status = os.waitpid(pid, 0)[1]
        if status != 0:
            raise OSError(f"CSV helper writing {parts[0]} failed (exit status "
                          f"{os.waitstatus_to_exitcode(status)}): "
                          f"{message.decode(errors='replace')}")
        if message != digest.digest():
            raise OSError(f"CSV helper's replay of steps [{theirs.start}, {m}) "
                          f"differs from the run written to {paths[0]}")
        for path, part in zip(paths, parts):
            with open(part, "rb") as src, open(path, "ab") as dst:
                shutil.copyfileobj(src, dst)
        return result
    finally:
        for part in parts:
            with suppress(FileNotFoundError):
                os.remove(part)


def _emitter(stack, paths, tables, formats, writes: range, digest=None,
             hashed: range = range(0)):
    """An ``emit(block)`` for the blocks of steps 0, 1, ...: writes the rows
    of the steps in ``writes`` into ``paths`` (opened now, and headed when
    ``writes`` starts at step 0; every cell of its first step is formatted)
    and feeds the blocks of the steps in ``hashed`` to ``digest``."""
    ufuncs = [np.frompyfunc(fmt, 1, 1) for fmt in formats]  # fed Python floats
    outs = []
    for path, (_, header, lead, row_heads, width) in zip(paths, tables):
        fh = stack.enter_context(open(path, "w", encoding="utf-8", newline="\n"))
        if writes.start == 0:
            fh.write(header + "\n")
        cells = [None, ","] * (width - 1) + [None, "\n"]  # (cell, separator) pairs
        parts = [p for head in row_heads for p in (None, f",{head},", *cells)]
        outs.append((fh, parts, lead, width))
    k, bits, strs = 0, None, None

    def emit(block):
        nonlocal k, bits, strs
        cur = np.ascontiguousarray(block, dtype=float)
        if k in hashed:
            digest.update(cur)
        if k in writes:
            old, bits = bits, cur.view(np.int64)
            if old is None:  # every bit of ~bits differs: format all cells
                strs, old = np.empty(cur.shape, dtype=object), ~bits
            for j, ufunc in enumerate(ufuncs):
                ufunc(cur[:, j], out=strs[:, j], where=bits[:, j] != old[:, j])
            for fh, parts, lead, width in outs:
                parts[::2 + 2 * width] = [lead(k)] * len(strs)
                for j in range(width):
                    parts[2 + 2 * j::2 + 2 * width] = strs[:, j].tolist()
                fh.write("".join(parts))
        k += 1

    return emit


def flow_table(path, n: int, dim: int) -> tuple:
    """flow.csv rows (t_index, particle_index, x_1..x_d) as a table."""
    head = ",".join(["t_index", "particle_index"] + [f"x_{j + 1}" for j in range(dim)])
    return path, head, str, range(n), dim


def flow_to_csv(flow: MeasureFlow, path) -> None:
    """Write a flow as CSV rows (t_index, particle_index, x_1..x_d)."""
    m = len(flow.frames)
    write_csv_steps([flow_table(path, flow.n, flow.dim)], (repr,) * flow.dim,
                    stored_steps(lambda k: flow.frames[k].samples, m), m)


@dataclass(eq=False)
class TimedControlMeasure:
    """Relaxed control on [0, T]: per-time-cell weights over a control grid.

    ``times`` are the M+1 cell edges; row k of ``weights`` distributes the
    Lebesgue mass of cell [t_k, t_{k+1}) over the rows of ``atoms``.
    """

    times: np.ndarray
    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        a = np.asarray(self.atoms, dtype=float)
        if a.ndim == 1:  # scalar controls listed as a flat vector
            a = a[:, None]
        w = np.atleast_2d(np.asarray(self.weights, dtype=float))
        steps = np.diff(t)
        if t.ndim != 1 or t.size < 2 or np.any(steps <= 0):
            raise PenmfgError("cell edges must be increasing")
        if not np.allclose(steps, steps[0], rtol=1e-9):
            raise PenmfgError("time cells must be uniform")
        if w.shape != (t.size - 1, a.shape[0]):
            raise PenmfgError(
                f"weights must be (cells, atoms) = ({t.size - 1}, {a.shape[0]}),"
                f" got {w.shape}"
            )
        # a NaN weight makes its row sum NaN, which fails the `<=`
        if np.any(w < 0.0) or not np.max(np.abs(w.sum(axis=1) - 1.0)) <= WEIGHT_TOL:
            raise PenmfgError("every weight row must be a probability vector")
        self.times, self.atoms, self.weights = t, a, w

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def n_cells(self) -> int:
        return self.times.size - 1

    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """Atoms in (t, u) product space with their masses, zeros dropped."""
        mids = 0.5 * (self.times[:-1] + self.times[1:])
        du = self.atoms.shape[1]
        pts = np.empty((self.n_cells, self.atoms.shape[0], 1 + du))
        pts[:, :, 0] = mids[:, None]
        pts[:, :, 1:] = self.atoms[None, :, :]
        mass = self.weights / self.n_cells
        pts, mass = pts.reshape(-1, 1 + du), mass.reshape(-1)
        keep = mass > 0.0
        return pts[keep], mass[keep]


# ------------------------------------------------------------------ distances


def w2(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """Wasserstein-2 distance between two empirical measures."""
    if mu.dim != nu.dim:
        raise PenmfgError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    uniform = mu.weights is None and nu.weights is None and mu.n == nu.n
    if mu.dim == 1:
        x, y = mu.samples[:, 0], nu.samples[:, 0]
        if uniform:
            cost2 = _w2sq_sorted(x, y)
        else:
            cost2 = _w2sq_quantile(x, mu.weight_vector(), y, nu.weight_vector())
    elif uniform:
        cost2 = _assignment_cost2(mu.samples, nu.samples)
    else:
        cost2 = _ot_lp(_sqdist(mu.samples, nu.samples),
                       mu.weight_vector(), nu.weight_vector())
    return float(np.sqrt(max(cost2, 0.0)))


def _w2sq_sorted(x, y) -> float:
    """Squared W2 of equal-size uniform clouds; the bits of :func:`_w2sq_quantile`."""
    return float(np.sum(_uniform_segments(x.size) * (np.sort(x) - np.sort(y)) ** 2))


@lru_cache(maxsize=4)
def _uniform_segments(n: int) -> np.ndarray:
    """Read-only segment masses of n uniform atoms: cumsum differences, not 1/n."""
    seg = np.diff(np.concatenate([[0.0], np.cumsum(np.full(n, 1.0 / n))]))
    seg.flags.writeable = False
    return seg


def _w2sq_quantile(x, wx, y, wy) -> float:
    """Exact squared W2 in one dimension via the quantile coupling."""
    ix, iy = np.argsort(x, kind="stable"), np.argsort(y, kind="stable")
    xs, ys = x[ix], y[iy]
    cwx, cwy = np.cumsum(wx[ix]), np.cumsum(wy[iy])
    if xs.size == ys.size and np.allclose(cwx, cwy, atol=1e-14):
        seg = np.diff(np.concatenate([[0.0], cwx]))
        return float(np.sum(seg * (xs - ys) ** 2))
    levels = np.union1d(cwx, cwy)
    levels = levels[levels <= 1.0 + 1e-15]
    seg = np.diff(np.concatenate([[0.0], levels]))
    mids = levels - 0.5 * seg
    qx = xs[np.minimum(np.searchsorted(cwx, mids, side="left"), xs.size - 1)]
    qy = ys[np.minimum(np.searchsorted(cwy, mids, side="left"), ys.size - 1)]
    return float(np.sum(seg * (qx - qy) ** 2))


def _assignment_cost2(x1: np.ndarray, x2: np.ndarray) -> float:
    """Squared W2 of uniform clouds of equal size: the optimal assignment."""
    # imported here, not at start-up: scipy.optimize takes ~0.8 s to load
    from scipy.optimize import linear_sum_assignment

    cost = _sqdist(x1, x2)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].mean())


def _sqdist(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, (n1, n2), summed column by column left
    to right: the bits of ``cdist(x1, x2, "sqeuclidean")`` for every d."""
    out = np.zeros((x1.shape[0], x2.shape[0]))
    for k in range(x1.shape[1]):
        diff = x1[:, k, None] - x2[None, :, k]
        out += diff * diff
    return out


def _ot_lp(cost: np.ndarray, w1: np.ndarray, w2_: np.ndarray) -> float:
    """Transportation LP, exact for any weighted discrete pair: network simplex.

    Row i is tree node i and column j node m + j; the m + n - 1 basic cells
    are the edges of a spanning tree, each stored at its child node.  The
    tree starts as the northwest corner.  Potentials keep u_i - w_j = c_ij on
    every tree cell (w is the negated column potential); each pivot enters
    the most negative reduced cost (Dantzig) and moves flow around the cycle
    it closes.  Zero-mass points are dropped first.  The tree stays strongly
    feasible, every cell without flow hanging its row below its column: the
    northwest corner breaks ties by moving down a row, and the leaving cell is
    the last blocking one on the cycle walked from its apex (Cunningham), so
    degenerate pivots cannot cycle.  The tree's preorder is kept in arrays,
    where every subtree is one contiguous range, so a pivot re-roots and
    moves the detached subtree and shifts its potentials with a few array
    operations.  Optimality is confirmed on potentials rebuilt from the tree.
    A pivot count over ``LP_MAX_PIVOTS`` raises instead of returning a bound.
    """
    keep1, keep2 = w1 > 0.0, w2_ > 0.0
    c = cost[np.ix_(keep1, keep2)]
    m, n = c.shape
    par, flow, depth, order = _northwest_tree(w1[keep1].tolist(), w2_[keep2].tolist())
    order, depth = np.array(order), np.array(depth)
    order_depth = depth[order]
    pos = np.empty(m + n, dtype=np.intp)
    pos[order] = np.arange(m + n)

    def potentials():
        pot = np.zeros(m + n)
        for node in order[1:].tolist():
            p = par[node]
            pot[node] = pot[p] + c[node, p - m] if node < m else pot[p] - c[p, node - m]
        return pot

    pot, fresh = potentials(), True
    # reduced costs within tol of 0 are rounding in the updated potentials
    tol = 1e-12 * float(np.abs(c).max())
    red = np.empty_like(c)
    pivots = 0
    while True:
        np.subtract(c, pot[:m, None], out=red)
        red += pot[m:]
        k = int(red.argmin())
        delta = red.flat[k]
        if not delta < -tol:
            if fresh:
                break
            pot, fresh = potentials(), True
            continue
        if pivots == LP_MAX_PIVOTS:
            raise PenmfgError(f"transportation LP of {m} x {n} points: "
                             f"no optimum after {pivots} pivots")
        pivots, fresh = pivots + 1, False
        i, j = divmod(k, n)
        # tree paths from row i and column j up to their common ancestor
        x, y = i, m + j
        path_i, path_j = [x], [y]
        dx, dy = depth[x], depth[y]
        while dx > dy:
            x, dx = par[x], dx - 1
            path_i.append(x)
        while dy > dx:
            y, dy = par[y], dy - 1
            path_j.append(y)
        while x != y:
            x, y = par[x], par[y]
            path_i.append(x)
            path_j.append(y)
        # the cells at even steps from the entering cell lose flow
        theta = min([flow[s] for s in path_i[:-1:2] + path_j[:-1:2]])
        # leave at the last blocking cell on the walk apex -> row i -> column
        # j -> apex: the one nearest the apex on j's side, else nearest row i
        blocking_j = [s for s in path_j[:-1:2] if flow[s] == theta]
        if blocking_j:
            path, leave, e_in, e_out, shift = path_j, blocking_j[-1], m + j, i, -delta
        else:
            leave = next(s for s in path_i[:-1:2] if flow[s] == theta)
            path, e_in, e_out, shift = path_i, i, m + j, delta
        if theta > 0.0:
            for t, s in enumerate(path_i[:-1]):
                flow[s] += theta if t & 1 else -theta
            for t, s in enumerate(path_j[:-1]):
                flow[s] += theta if t & 1 else -theta
        hop = path.index(leave)
        # the subtree of path[t] is the preorder range [lo[t], hi[t]); the one
        # cut off at the leaving cell is [L, R), re-rooted at e_in it lists
        # each range minus the one inside it, e_in's first
        lo = pos[path[:hop + 1]]
        d_in = int(depth[e_in])
        run = np.minimum.accumulate(order_depth[lo[0] + 1:])
        hi = lo[0] + 1 + (-run).searchsorted(np.arange(-d_in, hop + 1 - d_in))
        L, R = int(lo[-1]), int(hi[-1])
        span = np.arange(L, R)
        level = (hop + 1 - lo[::-1].searchsorted(span, "right")
                 + hi.searchsorted(span, "right"))
        perm = level.argsort(kind="stable")
        sub = order[L:R][perm]
        sub_depth = order_depth[L:R][perm] + (int(depth[e_out]) + 1 - d_in
                                              + 2 * level[perm])
        prev, prev_flow = e_out, theta
        for s in path[:hop + 1]:
            par[s], prev = prev, s
            flow[s], prev_flow = prev_flow, flow[s]
        pot[sub] += shift  # the entering cell becomes tight
        depth[sub] = sub_depth
        pe = int(pos[e_out])
        if pe < L:  # insert the subtree right after e_out
            a, b = pe + 1, R
            order[a:b] = np.concatenate([sub, order[a:L]])
            order_depth[a:b] = np.concatenate([sub_depth, order_depth[a:L]])
        else:
            a, b = L, pe + 1
            order[a:b] = np.concatenate([order[R:b], sub])
            order_depth[a:b] = np.concatenate([order_depth[R:b], sub_depth])
        pos[order[a:b]] = np.arange(a, b)
    nodes = order[1:]
    parents = np.array(par)[nodes]
    rows = np.where(nodes < m, nodes, parents)
    cols = np.where(nodes < m, parents, nodes) - m
    return float(c[rows, cols] @ np.array(flow)[nodes])


def _northwest_tree(a: list, b: list):
    """Northwest-corner basis as a tree rooted at row 0, nodes in preorder.

    Returns parent, flow on the edge to the parent and depth per node, and
    the order the nodes were added in, which is a preorder.  On a tie the
    corner moves down a row, so a cell carrying no flow hangs its row below
    its column; the last column takes what its row has left.
    """
    m, n = len(a), len(b)
    par, flow, depth, order = [-1] * (m + n), [0.0] * (m + n), [0] * (m + n), [0]
    i = j = 0
    ra, rb = a[0], b[0]
    child, parent = m, 0
    while True:
        x = ra if j == n - 1 else min(ra, rb)
        par[child], flow[child], depth[child] = parent, x, depth[parent] + 1
        order.append(child)
        if i == m - 1 and j == n - 1:
            return par, flow, depth, order
        if i < m - 1 and (j == n - 1 or ra <= rb):
            i, ra, rb = i + 1, a[i + 1], rb - x
            child, parent = i, m + j
        else:
            j, ra, rb = j + 1, ra - x, b[j + 1]
            child, parent = m + j, i


def w2_flow(a: MeasureFlow, b: MeasureFlow) -> float:
    """Supremum over grid nodes of the marginal W2 distances."""
    if a.times.size != b.times.size or not np.allclose(a.times, b.times, rtol=1e-9):
        raise PenmfgError("measure flows live on different time grids")
    return max(w2(fa, fb) for fa, fb in zip(a.frames, b.frames))


def d_relaxed(q1: TimedControlMeasure, q2: TimedControlMeasure) -> float:
    """Distance between relaxed controls: W2 on time-control product space.

    Both measures are normalized by the horizon so they compare as probability
    measures; the ground metric is the Euclidean one on (t, u).
    """
    if abs(q1.horizon - q2.horizon) > 1e-9 * (1.0 + abs(q1.horizon)):
        raise PenmfgError(
            f"control measures have different horizons: {q1.horizon} vs {q2.horizon}"
        )
    if q1.atoms.shape[1] != q2.atoms.shape[1]:
        raise PenmfgError("control atoms have mismatched dimensions")
    p1, m1 = q1.support()
    p2, m2 = q2.support()
    return float(np.sqrt(max(_ot_lp(_sqdist(p1, p2), m1, m2), 0.0)))
