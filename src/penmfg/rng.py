"""Counter-based random streams and the study-scoped noise block.

Every random draw in the library comes from a Philox counter-based generator
keyed by ``(seed, purpose, step)``.  Opening a stream is cheap and reads no
shared state, so a simulation step can be replayed in isolation and results
do not depend on the order in which steps or runs are executed.  Runs that
share a seed share noise (common random numbers), which is what the
penalization sweeps rely on.

Within a stream the draw for particle ``i`` sits at a fixed offset, so a fixed
``(seed, N, dt)`` reproduces bit-identical paths.

A study runs many simulations on one seed, so it draws the same noise over
and over.  Inside :func:`shared_noise` (a context manager, also usable as a
decorator) :func:`step_normals` keeps each ``(seed, step, n, m)`` block the
first time it is drawn and hands that same array, made read-only, to every
later call.  The block is the only module state: a nested entry reuses the
outer block, and leaving the outermost entry frees it, also when its body
raises.  Outside a block every call draws afresh, so a lone ``simulate``
holds no extra memory.  Either way a step's noise is the same bits.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

# Purpose tags partition the counter space so streams never overlap.
NOISE = 0
INIT = 1
CONTROL = 2
SUBSAMPLE = 3
PROBE = 4

_MAX_STEP = 1 << 64

# (seed, step, n, m) -> read-only normals while a shared_noise block is open
_block: dict | None = None


def stream(seed: int, purpose: int, step: int = 0) -> np.random.Generator:
    """Generator for the given (seed, purpose, step) triple.

    The 256-bit Philox counter is laid out as ``purpose * 2^192 + step * 2^128``
    which leaves 2^128 draws per stream, far beyond any run here.
    """
    seed = int(seed)
    if not 0 <= seed < _MAX_STEP:
        raise ValueError(f"seed must be a uint64, got {seed}")
    if not 0 <= step < _MAX_STEP:
        raise ValueError(f"step out of range: {step}")
    counter = (int(purpose) << 192) + (int(step) << 128)
    return np.random.Generator(np.random.Philox(key=seed, counter=counter))


@contextmanager
def shared_noise():
    """Keep every step's normals drawn inside the block for reuse until it ends."""
    global _block
    if _block is not None:
        yield
        return
    _block = {}
    try:
        yield
    finally:
        _block = None


def step_normals(seed: int, step: int, n: int, m: int) -> np.ndarray:
    """The (n, m) standard-normal block driving simulation step ``step``.

    Read-only and shared with later calls inside :func:`shared_noise`.
    """
    if _block is None:
        return stream(seed, NOISE, step).standard_normal((n, m))
    key = (int(seed), int(step), int(n), int(m))
    xi = _block.get(key)
    if xi is None:
        xi = stream(seed, NOISE, step).standard_normal((n, m))
        xi.flags.writeable = False
        _block[key] = xi
    return xi
