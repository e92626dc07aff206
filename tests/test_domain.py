"""Geometry tests: projections, distances, membership.

The polytope projection is cross-checked against an independent oracle that
enumerates active-constraint subsets and solves the corresponding equality
system, which is exact for small face counts.
"""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from penmfg import domain
from penmfg.errors import DomainError

RNG = np.random.default_rng(20260823)


def project_polytope_oracle(a, c, x, tol=1e-9):
    """Projection onto {y : a y <= c} by enumerating active sets.

    The true projection equals the orthogonal projection onto the affine hull
    of its active faces, so it appears among the candidates; infeasible or
    inconsistent candidates are filtered out and cannot win because every
    feasible candidate is at least as far as the projection.
    """
    n_faces = a.shape[0]
    best, best_d = None, np.inf
    for mask in range(1 << n_faces):
        idx = [i for i in range(n_faces) if mask >> i & 1]
        if not idx:
            y = x.copy()
        else:
            asub, csub = a[idx], c[idx]
            lam, *_ = np.linalg.lstsq(asub @ asub.T, asub @ x - csub, rcond=None)
            y = x - asub.T @ lam
        if np.all(a @ y <= c + tol):
            d = np.linalg.norm(x - y)
            if d < best_d:
                best, best_d = y, d
    assert best is not None
    return best


def sample_domains():
    return [
        domain.half_space([-1.0], 0.0),                      # [0, inf)
        domain.half_space([1.0, 2.0], 1.5),
        domain.ball(np.zeros(2), 1.0),
        domain.ball([0.3, -0.2, 0.1], 2.0),
        domain.box([0.0, 0.0], [1.0, 1.0]),
        domain.box([-1.0], [1.0]),
        domain.polytope([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], [1.0, 1.0, 0.5]),
        domain.polytope([[1.0, 1.0], [1.0, -1.0], [-1.0, 0.0]], [1.0, 1.0, 0.2]),
    ]


def scatter_points(dom, n=2500):
    """Points inside, outside, far away and hugging the boundary."""
    d = dom.dim
    pts = [
        RNG.uniform(-1.5, 1.5, size=(n, d)),
        RNG.uniform(-30.0, 30.0, size=(n, d)),
        RNG.normal(scale=0.05, size=(n, d)),
    ]
    shell = domain.project(dom, RNG.uniform(-5.0, 5.0, size=(n, d)))
    pts.append(shell + RNG.normal(scale=1e-6, size=(n, d)))
    return np.concatenate(pts)


# ---------------------------------------------------------------- examples


def test_project_examples():
    b = domain.ball(np.zeros(2), 1.0)
    np.testing.assert_allclose(b.project([2.0, 0.0]), [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(domain.dist2(b, [0.0, 2.0]), 1.0, atol=1e-14)
    bx = domain.box([0.0, 0.0], [1.0, 1.0])
    np.testing.assert_array_equal(bx.project([0.5, 0.5]), [0.5, 0.5])
    np.testing.assert_allclose(bx.project([2.0, 0.5]), [1.0, 0.5], atol=1e-15)
    np.testing.assert_allclose(domain.dist2(bx, [2.0, 0.5]), 1.0, atol=1e-14)


# ---------------------------------------------------------------- invariants


@pytest.mark.parametrize("dom", sample_domains())
def test_projection_properties(dom):
    x = scatter_points(dom)
    px = domain.project(dom, x)
    scale = 1.0 + np.linalg.norm(x, axis=1)

    ppx = domain.project(dom, px)
    assert np.all(np.linalg.norm(ppx - px, axis=1) <= 1e-12 * scale)

    inside = domain.dist2(dom, x) <= 1e-30
    assert np.array_equal(px[inside], x[inside]), "interior points must be fixed"

    y = x[::-1]
    py = domain.project(dom, y)
    lhs = np.linalg.norm(px - py, axis=1)
    rhs = np.linalg.norm(x - y, axis=1)
    assert np.all(lhs <= rhs * (1.0 + 1e-12) + 1e-12)


@pytest.mark.parametrize("dom", sample_domains())
def test_convexity_inequality(dom):
    """<x - y, 2(x - proj(x))> >= dist2(x) for every y in the domain."""
    x = scatter_points(dom, n=1500)
    y = domain.project(dom, RNG.uniform(-8.0, 8.0, size=x.shape))
    grad = 2.0 * (x - domain.project(dom, x))
    lhs = np.sum((x - y) * grad, axis=1)
    d2 = domain.dist2(dom, x)
    scale = 1.0 + np.linalg.norm(x, axis=1) ** 2
    assert np.all(lhs >= d2 - 1e-10 * scale)
    assert np.all(d2 >= 0.0)


@pytest.mark.parametrize("dom", sample_domains())
def test_dist2_gradient_matches_projection(dom):
    """Central differences of dist2 agree with 2(x - proj(x))."""
    x = scatter_points(dom, n=300)
    # keep clear of the boundary where dist2 is only C^1: outside points by
    # their distance, inside points by their depth (nearest face or sphere)
    gap = np.sqrt(domain.dist2(dom, x))
    if dom.kind in (domain.HALF_SPACE, domain.POLYTOPE):
        depth = np.min(dom.offsets - x @ dom.normals.T, axis=1)
    elif dom.kind == domain.BALL:
        depth = dom.radius - np.linalg.norm(x - dom.center, axis=1)
    else:
        depth = np.min(np.minimum(x - dom.lower, dom.upper - x), axis=1)
    x = x[(gap > 1e-2) | (depth > 1e-2)][:400]
    grad = 2.0 * (x - domain.project(dom, x))
    h = 1e-6 * (1.0 + np.linalg.norm(x, axis=1))
    fd = np.empty_like(x)
    for j in range(dom.dim):
        e = np.zeros(dom.dim)
        e[j] = 1.0
        fd[:, j] = (
            domain.dist2(dom, x + h[:, None] * e) - domain.dist2(dom, x - h[:, None] * e)
        ) / (2.0 * h)
    scale = 1.0 + np.linalg.norm(grad, axis=1)
    assert np.max(np.abs(fd - grad) / scale[:, None]) < 1e-5


def test_polytope_projection_matches_active_set_oracle():
    for trial in range(40):
        d = int(RNG.integers(1, 4))
        f = int(RNG.integers(1, 6))
        a = RNG.normal(size=(f, d))
        while np.any(np.linalg.norm(a, axis=1) < 1e-6):
            a = RNG.normal(size=(f, d))
        c = RNG.uniform(0.0, 2.0, size=f)
        dom = domain.polytope(a, c)
        x = RNG.uniform(-6.0, 6.0, size=(12, d))
        got = domain.project(dom, x)
        for i in range(x.shape[0]):
            want = project_polytope_oracle(dom.normals, dom.offsets, x[i])
            np.testing.assert_allclose(got[i], want, atol=1e-9)


def test_box_polytope_agreement():
    """The same box expressed as a polytope projects identically."""
    bx = domain.box([-0.5, 0.0], [1.0, 2.0])
    pt = domain.polytope(
        [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [1.0, 0.5, 2.0, 0.0]
    )
    x = RNG.uniform(-4.0, 4.0, size=(200, 2))
    np.testing.assert_allclose(domain.project(bx, x), domain.project(pt, x), atol=1e-10)


def test_dykstra_sweep_cap_warns_and_returns_the_last_iterate(monkeypatch, caplog):
    """A narrow wedge needs many sweeps; capped at one, the first is returned."""
    dom = domain.polytope([[1.0, 0.2], [-1.0, 0.2]], [0.0, 0.0])
    x = np.array([[3.0, 5.0]])
    want = project_polytope_oracle(dom.normals, dom.offsets, x[0])
    y = x.copy()  # one sweep by hand: each face once, no corrections yet
    for a, c in zip(dom.normals, dom.offsets):
        y = y - max(y[0] @ a - c, 0.0) * a
    with caplog.at_level(logging.WARNING, logger="penmfg.domain"):
        np.testing.assert_allclose(domain.project(dom, x)[0], want, atol=1e-9)
    assert not caplog.records
    monkeypatch.setattr(domain, "DYKSTRA_MAX_SWEEPS", 1)
    with caplog.at_level(logging.WARNING, logger="penmfg.domain"):
        got = domain.project(dom, x)
    assert [r.getMessage() for r in caplog.records] == [
        "Dykstra projection hit the 1-sweep cap"]
    np.testing.assert_array_equal(got, y)
    assert np.max(np.abs(got[0] - want)) > 0.1  # one sweep is far from done


# ------------------------------------------------------------ row reductions


@pytest.mark.parametrize("d", [1, 2, 3, 8, 9])
def test_row_norm_matches_numpy_bitwise(d):
    """Column-wise sums of squares give numpy's bits, specials included."""
    special = [0.0, -0.0, 5e-324, -5e-324, 1e-160, -1e-160, 1e200, -1e200, 1.5]
    gen = np.random.default_rng(d)
    a = np.vstack([
        gen.choice(special, size=(400, d)),
        gen.standard_normal((400, d)),  # comparable terms: rounding order shows
        gen.standard_normal((400, d)) * 10.0 ** gen.integers(-170, 170, (400, d)),
        np.broadcast_to(gen.standard_normal(d), (5, d)),  # a stride-0 view
    ])
    bits = lambda v: v.view(np.int64)  # noqa: E731 -- tells 0.0 from -0.0
    with np.errstate(over="ignore", under="ignore"):
        np.testing.assert_array_equal(bits(domain.row_norm(a)),
                                      bits(np.linalg.norm(a, axis=-1)))
        np.testing.assert_array_equal(bits(domain.row_sumsq(a)),
                                      bits(np.sum(a**2, axis=1)))
        # no rescaling, as in numpy: the square underflows to 0 or into the
        # subnormals, where it loses bits, and overflows to inf
        edge = np.zeros((3, d))
        edge[:, 0] = [5e-324, 1e-160, 1e200]
        got = domain.row_norm(edge)
    assert got[0] == 0.0 and 0.0 < got[1] != 1e-160 and got[2] == np.inf


# ---------------------------------------------------------------- construction


def test_constructor_rejections():
    with pytest.raises(DomainError):
        domain.ball([0.0], -1.0)
    with pytest.raises(DomainError):
        domain.ball([2.0, 0.0], 1.0)  # origin outside
    with pytest.raises(DomainError):
        domain.box([1.0], [0.0])
    with pytest.raises(DomainError):
        domain.box([0.5], [1.0])  # origin outside
    with pytest.raises(DomainError):
        domain.half_space([1.0], -0.1)  # origin outside
    with pytest.raises(DomainError):
        domain.half_space([0.0, 0.0], 1.0)
    with pytest.raises(DomainError):
        domain.polytope([[1.0, 0.0]], [-0.2])
    with pytest.raises(DomainError):
        domain.polytope(np.zeros((0, 2)), [])


def test_normals_are_normalized_on_input():
    hs = domain.half_space([0.0, -2.0], 4.0)
    np.testing.assert_allclose(np.linalg.norm(hs.normals, axis=1), 1.0)
    np.testing.assert_allclose(hs.offsets, [2.0])
    pt = domain.polytope([[3.0, 0.0], [0.0, 5.0]], [3.0, 10.0])
    np.testing.assert_allclose(np.linalg.norm(pt.normals, axis=1), 1.0)
    np.testing.assert_allclose(pt.offsets, [1.0, 2.0])


@settings(max_examples=60, deadline=None)
@given(
    lo=st.floats(-5.0, -1e-3),
    hi=st.floats(1e-3, 5.0),
    x=st.lists(st.floats(-50.0, 50.0), min_size=2, max_size=2).map(np.array),
)
def test_box_projection_hypothesis(lo, hi, x):
    dom = domain.box([lo, lo], [hi, hi])
    px = domain.project(dom, x)
    assert np.all(px >= lo) and np.all(px <= hi)
    assert np.allclose(domain.project(dom, px), px)
    assert np.linalg.norm(px) <= np.linalg.norm(x) + np.linalg.norm(px - x) + 1e-9


@settings(max_examples=60, deadline=None)
@given(
    r=st.floats(0.1, 10.0),
    x=st.lists(st.floats(-40.0, 40.0), min_size=3, max_size=3).map(np.array),
)
def test_ball_projection_hypothesis(r, x):
    dom = domain.ball(np.zeros(3), r)
    px = domain.project(dom, x)
    assert np.linalg.norm(px) <= r * (1.0 + 1e-12)
    d2 = domain.dist2(dom, x)
    assert abs(d2 - max(np.linalg.norm(x) - r, 0.0) ** 2) <= 1e-9 * (1 + d2)
