"""Convex domain geometry.

A domain is the closure of a convex open set in R^d with the origin inside it.
Four shapes are supported: half-spaces, balls, boxes and half-space polytopes.
The operations every other module builds on are the Euclidean projection
onto the closure, the squared distance to it, and the membership test.  The
projection is what the penalization term is made of, so it has to be exact
(idempotent to machine precision); the polytope case uses Dykstra's
alternating projections, which converges to the true projection for convex
sets, unlike plain cyclic projection.

Half-spaces are stored as {x : a.x <= c} with |a| = 1.

All operations accept a single point of shape (d,) or a batch of shape (B, d)
and are vectorized over the batch.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

log = logging.getLogger(__name__)

HALF_SPACE = "half_space"
BALL = "ball"
BOX = "box"
POLYTOPE = "polytope"

# Membership tolerance band, relative to the point's magnitude.
BOUNDARY_RTOL = 1e-9

DYKSTRA_MAX_SWEEPS = 10_000
DYKSTRA_TOL = 1e-12

# numpy adds up a row shorter than this left to right; longer rows go pairwise
_SEQUENTIAL_ROW = 8


def row_sumsq(a: np.ndarray) -> np.ndarray:
    """``np.sum(a**2, axis=1)`` of a (B, d) array, bit for bit.

    A reduction over a trailing axis of a few entries costs far more than
    the same additions done column by column, in the same order.
    """
    if a.shape[1] >= _SEQUENTIAL_ROW:
        return np.sum(a * a, axis=1)
    out = a[:, 0] * a[:, 0]
    for j in range(1, a.shape[1]):
        out += a[:, j] * a[:, j]
    return out


def row_norm(a: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(a, axis=-1)`` of a (B, d) array, bit for bit.

    Like numpy, it does not rescale: a square may underflow to 0 or overflow.
    """
    return np.sqrt(row_sumsq(a))


def tol_boundary(x: np.ndarray) -> np.ndarray:
    """Width of the membership tolerance band at x: 1e-9 * (1 + |x|)."""
    x = np.asarray(x, dtype=float)
    return BOUNDARY_RTOL * (1.0 + np.linalg.norm(x, axis=-1))


@dataclass(frozen=True, eq=False)
class ConvexDomain:
    """Closed convex domain. Build via half_space(), ball(), box(), polytope()."""

    kind: str
    dim: int
    # half_space / polytope: unit outward face normals (F, d) and offsets (F,)
    normals: np.ndarray | None = None
    offsets: np.ndarray | None = None
    # ball
    center: np.ndarray | None = None
    radius: float = 0.0
    # box
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def project(self, x):
        return project(self, x)

    def contains(self, x):
        """True where x lies in the closed domain (within tol_boundary of it)."""
        return np.sqrt(dist2(self, x)) <= tol_boundary(x)


def half_space(normal, offset: float) -> ConvexDomain:
    """{x : a.x <= c} with a normalized to unit length.  Needs c >= 0."""
    a = np.asarray(normal, dtype=float).reshape(-1)
    nrm = np.linalg.norm(a)
    if not np.isfinite(nrm) or nrm == 0.0:
        raise DomainError("half_space normal must be nonzero and finite")
    a = a / nrm
    c = float(offset) / nrm
    if not np.isfinite(c) or c < 0.0:
        raise DomainError(
            f"half_space must contain the origin: need offset >= 0, got {c:g}"
        )
    return ConvexDomain(HALF_SPACE, a.size, normals=a[None, :], offsets=np.array([c]))


def ball(center, radius: float) -> ConvexDomain:
    ctr = np.atleast_1d(np.asarray(center, dtype=float))
    r = float(radius)
    if not np.isfinite(r) or r <= 0.0:
        raise DomainError(f"ball radius must be positive, got {r:g}")
    if not np.all(np.isfinite(ctr)):
        raise DomainError("ball center must be finite")
    if np.linalg.norm(ctr) > r:
        raise DomainError("ball must contain the origin: need |center| <= radius")
    return ConvexDomain(BALL, ctr.size, center=ctr, radius=r)


def box(lower, upper) -> ConvexDomain:
    lo = np.atleast_1d(np.asarray(lower, dtype=float))
    hi = np.atleast_1d(np.asarray(upper, dtype=float))
    if lo.shape != hi.shape:
        raise DomainError("box bounds must have matching shapes")
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise DomainError("box bounds must be finite")
    if not np.all(lo < hi):
        raise DomainError("box needs lower < upper in every coordinate")
    if not (np.all(lo <= 0.0) and np.all(hi >= 0.0)):
        raise DomainError("box must contain the origin: need lower <= 0 <= upper")
    return ConvexDomain(BOX, lo.size, lower=lo, upper=hi)


def polytope(normals, offsets) -> ConvexDomain:
    """Intersection of half-spaces {x : A x <= c}, rows of A normalized."""
    a = np.atleast_2d(np.asarray(normals, dtype=float))
    c = np.atleast_1d(np.asarray(offsets, dtype=float))
    if a.shape[0] != c.size:
        raise DomainError("polytope needs one offset per face normal")
    if a.shape[0] == 0:
        raise DomainError("polytope needs at least one face")
    nrm = np.linalg.norm(a, axis=1)
    if not np.all(np.isfinite(a)) or np.any(nrm == 0.0):
        raise DomainError("polytope normals must be nonzero and finite")
    a = a / nrm[:, None]
    c = c / nrm
    if not np.all(np.isfinite(c)) or np.any(c < 0.0):
        raise DomainError("polytope must contain the origin: need all offsets >= 0")
    return ConvexDomain(POLYTOPE, a.shape[1], normals=a, offsets=c)


def _check_dim(dom: ConvexDomain, x: np.ndarray) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    xb = x[None, :] if single else x
    if xb.ndim != 2 or xb.shape[1] != dom.dim:
        raise DomainError(f"expected points of dimension {dom.dim}, got shape {x.shape}")
    return xb, single


def project(dom: ConvexDomain, x) -> np.ndarray:
    """Euclidean projection of x onto the closed domain."""
    xb, single = _check_dim(dom, x)
    if dom.kind == HALF_SPACE:
        a, c = dom.normals[0], dom.offsets[0]
        excess = np.maximum(xb @ a - c, 0.0)
        out = xb - excess[:, None] * a
    elif dom.kind == BALL:
        rel = xb - dom.center
        dist = np.linalg.norm(rel, axis=1)
        outside = dist > dom.radius
        out = xb.copy()
        scale = (dom.radius / dist[outside])[:, None]
        out[outside] = dom.center + rel[outside] * scale
    elif dom.kind == BOX:
        out = np.clip(xb, dom.lower, dom.upper)
    elif dom.kind == POLYTOPE:
        out = _project_polytope(dom.normals, dom.offsets, xb)
    else:  # pragma: no cover
        raise DomainError(f"unknown domain kind {dom.kind!r}")
    return out[0] if single else out


def _project_polytope(a: np.ndarray, c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Dykstra's alternating projections onto the defining half-spaces."""
    y = x.copy()
    corr = np.zeros((a.shape[0],) + x.shape)
    for _ in range(DYKSTRA_MAX_SWEEPS):
        start = y.copy()
        for i in range(a.shape[0]):
            z = y + corr[i]
            excess = np.maximum(z @ a[i] - c[i], 0.0)
            y = z - excess[:, None] * a[i]
            corr[i] = z - y
        if np.max(np.abs(y - start)) < DYKSTRA_TOL:
            return y
    log.warning("Dykstra projection hit the %d-sweep cap", DYKSTRA_MAX_SWEEPS)
    return y


def dist2(dom: ConvexDomain, x) -> np.ndarray:
    """Squared Euclidean distance to the closed domain (0 inside)."""
    xb, single = _check_dim(dom, x)
    d2 = np.sum((xb - project(dom, xb)) ** 2, axis=1)
    return d2[0] if single else d2
