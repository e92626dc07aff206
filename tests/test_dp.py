"""Markov-chain DP: grid, stencil consistency, recursion laws, exploitability."""

from dataclasses import replace
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from penmfg import domain, model, rng
from penmfg.config import build_model, parse_config_file
from penmfg.controls import (
    NodeTable,
    chattered_indices,
    largest_remainder_counts,
    sample_control,
    time_cell,
)
from penmfg.dp import (
    DPGrid,
    ExploitabilityReport,
    ValueField,
    _face_is_boundary,
    _probe_weights,
    _stencil_offsets,
    build_chain,
    chattered_probe,
    exploitability,
    feedback_law,
    pad_for_penalty,
    penalty_margin,
    relaxed_probe,
    solve_dp,
    value_to_csv,
)
from penmfg.equilibrium import EquilibriumReport
from penmfg.errors import ConfigError, GridError
from penmfg.measures import flow_from_states, format_float
from penmfg.simulate import SimConfig, evaluate_cost, simulate
from test_controls import sample_rows_reference

UNIT_BOX = domain.box([0.0], [1.0])
HALF_LINE = domain.half_space([-1.0], 0.0)


def const_flow(x0, dt, m, n=8):
    """Flow whose every frame is a point mass: enough to freeze coefficients."""
    times = np.arange(m + 1) * dt
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    states = np.tile(x0.reshape(1, 1, -1), (m + 1, n, 1))
    return flow_from_states(times, states)


def chain_moments(chain, k, u_idx):
    """Per-substep mean and second moment of the displacement at every node."""
    nodes = chain.grid.nodes()
    disp = nodes[chain.geometry.idx] - nodes[:, None, :]  # (n_nodes, n_st, d)
    p = chain.probs[k][u_idx]
    mean = np.einsum("ns,nsj->nj", p, disp)
    sec = np.einsum("ns,nsi,nsj->nij", p, disp, disp)
    return mean, sec


def interior_mask(grid):
    multi = np.stack(np.unravel_index(np.arange(grid.n_nodes), grid.shape),
                     axis=1)
    shape = np.asarray(grid.shape)
    return np.all((multi > 0) & (multi < shape - 1), axis=1)


# --------------------------------------------------------------------- grid


def test_grid_construction_and_lookup():
    g = DPGrid.regular([0.0], [1.0], 0.25)
    assert g.n_nodes == 5 and g.hx == pytest.approx(0.25)
    assert np.allclose(g.nodes()[:, 0], [0.0, 0.25, 0.5, 0.75, 1.0])
    assert g.nearest_node([[0.6]])[0] == 2  # 0.6 rounds down to node 0.5
    assert g.nearest_node([[-5.0]])[0] == 0
    assert g.nearest_node([[7.0]])[0] == 4
    g2 = DPGrid.regular([0.0, -1.0], [1.0, 0.0], 0.5)
    assert g2.shape == (3, 3) and g2.dim == 2
    with pytest.raises(GridError):
        DPGrid.regular([0.0], [1.0], 0.3)  # does not tile evenly
    with pytest.raises(GridError):
        DPGrid.regular([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 0.5)  # d = 3
    with pytest.raises(GridError):
        DPGrid.regular([1.0], [0.0], 0.1)
    with pytest.raises(GridError):
        DPGrid([0.0, 0.0], [1.0, 2.0], (11, 11))  # unequal spacings


def nearest_node_reference(grid, x):
    """The ravel_multi_index lookup that the column-wise one replaced."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    idx = np.round((x - grid.lower) / grid.hx).astype(int)
    idx = np.clip(idx, 0, np.asarray(grid.shape) - 1)
    return np.ravel_multi_index(tuple(idx.T), grid.shape)


@pytest.mark.parametrize("grid", [
    DPGrid.regular([0.0], [1.0], 0.05),
    DPGrid.regular([-0.3], [0.45], 0.025),
    DPGrid.regular([0.0, -1.0], [1.0, 0.5], 0.1),
    DPGrid.regular([-0.2, 0.0], [0.2, 1.0], 0.05),
], ids=["d1", "d1-offset", "d2", "d2-tall"])
def test_nearest_node_matches_ravel_multi_index(grid):
    gen = np.random.default_rng(grid.n_nodes)
    lo, hi = grid.lower, grid.upper
    span = hi - lo
    x = np.vstack([
        gen.uniform(lo - span, hi + span, size=(3000, grid.dim)),  # many clamped
        grid.nodes(),
        grid.nodes() + 0.5 * grid.hx,                   # halfway: round half even
        [lo - 1e6, hi + 1e6, lo, hi],
    ])
    want = nearest_node_reference(grid, x)
    got = grid.nearest_node(x)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    assert got.min() == 0 and got.max() == grid.n_nodes - 1
    np.testing.assert_array_equal(grid.nearest_node(x[0]), want[:1])  # one point


@pytest.mark.parametrize("far", [1e18, 1e300])
def test_nearest_node_clamps_far_points_to_their_own_end(far):
    """An integer cast before the clip sent these to INT_MIN, hence node 0."""
    g = DPGrid.regular([0.0], [1.0], 0.05)
    np.testing.assert_array_equal(g.nearest_node([[far], [-far]]), [20, 0])
    g2 = DPGrid.regular([0.0, -1.0], [1.0, 0.5], 0.1)  # 11 x 16 nodes
    corners = [[far, far], [far, -far], [-far, far], [-far, -far]]
    np.testing.assert_array_equal(g2.nearest_node(corners),
                                  [g2.n_nodes - 1, 10 * 16, 15, 0])
    zeros = np.zeros((1, 21), int)
    field = ValueField(grid=g, times=np.array([0.0, 1.0]), V=np.arange(42.0).reshape(2, 21),
                       argmin=zeros, runner_up=zeros, atoms=np.zeros((1, 1)))
    np.testing.assert_array_equal(field.value_at(0, [[far], [-far]]), [20.0, 0.0])


def test_for_model_pads_penalized_box_on_grid():
    ms = model.make_preset("reflected_bm", UNIT_BOX, {"x0": 0.5})
    g_ref = DPGrid.for_model(ms, hx=0.05)
    assert g_ref.lower[0] == 0.0 and g_ref.upper[0] == 1.0
    g_pen = pad_for_penalty(g_ref, ms, 1e-3, 128)
    margin = penalty_margin(1.0, 1e-3, 128)
    assert g_pen.lower[0] < 0.0 < 1.0 < g_pen.upper[0]
    assert g_pen.lower[0] <= -margin + 1e-12
    # domain boundary nodes stay on-grid after padding
    k = (0.0 - g_pen.lower[0]) / g_pen.hx
    assert abs(k - round(k)) < 1e-9
    with pytest.raises(GridError):
        DPGrid.for_model(model.make_preset("reflected_bm", HALF_LINE, {}),
                         hx=0.05)  # unbounded, no explicit bounds


@pytest.mark.parametrize("atoms", [[[0.2], [0.6]], [[0.6], [0.2]]])
def test_penalty_padding_follows_the_widest_control_sigma(atoms):
    """With sigma = u the margin is sized for the atom 0.6, whichever atom
    comes first: a narrower margin would cut off the wider control's
    excursions."""
    ms = model.ModelSpec(
        dim=1, noise_dim=1, horizon=1.0, atoms=np.array(atoms),
        drift=lambda t, x, mu, u: np.zeros_like(x),
        diffusion=lambda t, x, mu, u: u[:, :, None].copy(),
        running_cost=lambda t, x, mu, u: np.zeros(x.shape[0]),
        boundary_cost=lambda t, x, mu: np.zeros(x.shape[0]),
        terminal_cost=lambda x, mu: np.zeros(x.shape[0]),
        initial_law=model._point_law(np.array([0.5])), dom=UNIT_BOX,
    )
    g = DPGrid.regular([0.0], [1.0], 0.001)
    wide, narrow = (int(np.ceil(penalty_margin(sigma, 1e-3, 8) / g.hx - 1e-12))
                    for sigma in (0.6, 0.2))
    assert narrow < wide
    g_pen = pad_for_penalty(g, ms, 1e-3, 8)
    assert g_pen.lower[0] == pytest.approx(-wide * g.hx, abs=1e-12)
    assert g_pen.upper[0] == pytest.approx(1.0 + wide * g.hx, abs=1e-12)


# -------------------------------------------------------------- chain rows


def test_interior_row_symmetric_for_driftless_unit_noise():
    ms = model.make_preset("reflected_bm", UNIT_BOX, {"sigma": 1.0, "x0": 0.5})
    g = DPGrid.regular([0.0], [1.0], 0.1)
    chain = build_chain(ms, None, const_flow(0.5, 2e-3, 4), g)
    assert np.all(chain.substeps == 1)
    row = chain.probs[0][0, 5]  # stencil order: stay, minus, plus
    assert row[1] == pytest.approx(0.1, abs=1e-14)
    assert row[2] == pytest.approx(0.1, abs=1e-14)
    assert row.sum() == pytest.approx(1.0, abs=1e-12)
    mean, sec = chain_moments(chain, 0, 0)
    inner = interior_mask(g)
    assert np.max(np.abs(mean[inner])) < 1e-14
    assert np.allclose(sec[inner, 0, 0], 1.0 * 2e-3, atol=1e-14)


def test_all_rows_are_probabilities():
    dom = domain.box([0.0, 0.0], [1.0, 1.0])
    ms = model.make_preset("reflected_ou_mf", dom, {
        "kappa": 2.0, "sigma": 0.6, "x0": [0.4, 0.6],
    })
    g = DPGrid.regular([0.0, 0.0], [1.0, 1.0], 0.1)
    chain = build_chain(ms, None, const_flow([0.4, 0.6], 1e-3, 6), g)
    for k in range(chain.n_slices):
        p = chain.probs[k]
        assert np.min(p) >= -1e-12
        assert np.max(np.abs(p.sum(axis=2) - 1.0)) <= 1e-12


def test_chain_locally_consistent_with_cross_covariance():
    # correlated noise: corners must carry the off-diagonal covariance
    dom = domain.box([0.0, 0.0], [1.0, 1.0])
    sig = np.array([[1.0, 0.3], [0.0, 0.9]])
    a_true = sig @ sig.T
    bvec = np.array([0.3, -0.2])
    ms = model.ModelSpec(
        dim=2, noise_dim=2, horizon=1.0,
        atoms=np.zeros((1, 1)),
        drift=lambda t, x, mu, u: np.broadcast_to(bvec, x.shape).copy(),
        diffusion=lambda t, x, mu, u: np.broadcast_to(
            sig, (x.shape[0], 2, 2)).copy(),
        running_cost=lambda t, x, mu, u: np.zeros(x.shape[0]),
        boundary_cost=lambda t, x, mu: np.zeros(x.shape[0]),
        terminal_cost=lambda x, mu: np.zeros(x.shape[0]),
        initial_law=model._point_law(np.array([0.5, 0.5])),
        dom=dom,
    )
    g = DPGrid.regular([0.0, 0.0], [1.0, 1.0], 0.1)
    chain = build_chain(ms, None, const_flow([0.5, 0.5], 4e-3, 3), g)
    assert np.all(chain.substeps == 1)
    mean, sec = chain_moments(chain, 0, 0)
    inner = interior_mask(g)
    dts = 4e-3
    assert np.allclose(mean[inner], bvec * dts, atol=1e-14)
    # off-diagonal exact, diagonal within the upwinding O(hx |b|) correction
    assert np.allclose(sec[inner, 0, 1], a_true[0, 1] * dts, atol=1e-14)
    diag_err = np.abs(sec[inner, 0, 0] - a_true[0, 0] * dts)
    assert np.max(diag_err) <= 0.1 * np.max(np.abs(bvec)) * dts + 1e-14


def test_penalized_row_mean_restores_toward_domain():
    ms = model.make_preset("reflected_bm", HALF_LINE, {"sigma": 1.0, "x0": 0.1})
    g = DPGrid.regular([-0.3], [0.9], 0.05)
    chain = build_chain(ms, 32, const_flow(0.1, 1e-3, 3), g)
    assert np.all(chain.substeps == 1)
    mean, _ = chain_moments(chain, 0, 0)
    node = g.nearest_node([[-0.2]])[0]
    assert g.nodes()[node, 0] == pytest.approx(-0.2, abs=1e-12)
    # restoring drift -n (x - proj x) = +6.4 at x = -0.2
    assert mean[node, 0] == pytest.approx(32 * 0.2 * 1e-3, rel=1e-12)
    # penalized running cost carries the surcharge n h dist
    ms_h = model.make_preset("reflected_bm", HALF_LINE,
                             {"sigma": 1.0, "x0": 0.1, "h_const": 2.0})
    chain_h = build_chain(ms_h, 32, const_flow(0.1, 1e-3, 3), g)
    assert chain_h.run_cost[0][0, node] == pytest.approx(32 * 2.0 * 0.2,
                                                         rel=1e-12)


def test_reflecting_rows_redirect_and_charge():
    ms = model.make_preset("reflected_bm", UNIT_BOX,
                           {"sigma": 1.0, "x0": 0.5, "h_const": 2.0})
    g = DPGrid.regular([0.0], [1.0], 0.1)
    chain = build_chain(ms, None, const_flow(0.5, 2e-3, 3), g)
    # the outward move from node 0 is clamped back onto node 0
    assert chain.geometry.idx[0, 1] == 0
    assert chain.probs[0][0, 0].sum() == pytest.approx(1.0, abs=1e-12)
    # charge = P(outward) * h * hx at both walls, zero inside
    assert chain.charge[0][0, 0] == pytest.approx(0.1 * 2.0 * 0.1, rel=1e-12)
    assert chain.charge[0][0, -1] == pytest.approx(0.1 * 2.0 * 0.1, rel=1e-12)
    assert np.max(np.abs(chain.charge[0][0, 1:-1])) == 0.0
    assert chain.truncated_mass == 0.0


def test_truncation_face_uncharged_but_counted():
    # upper edge of [0, 2] sits inside the half-line: truncation, not boundary
    ms = model.make_preset("reflected_bm", HALF_LINE,
                           {"sigma": 1.0, "x0": 0.5, "h_const": 2.0})
    g = DPGrid.regular([0.0], [2.0], 0.1)
    chain = build_chain(ms, None, const_flow(0.5, 2e-3, 3), g)
    assert chain.charge[0][0, 0] > 0.0      # genuine boundary at 0
    assert chain.charge[0][0, -1] == 0.0    # truncation wall at 2
    assert chain.truncated_mass > 0.0


def test_reflected_mode_rejects_offgrid_domains():
    dom = domain.ball([0.0, 0.0], 1.0)
    ms = model.make_preset("reflected_bm", dom, {"x0": [0.0, 0.0]})
    g = DPGrid.regular([-1.0, -1.0], [1.0, 1.0], 0.25)
    with pytest.raises(GridError):
        build_chain(ms, None, const_flow([0.0, 0.0], 1e-3, 2), g)


def test_diagonal_dominance_violation_raises():
    dom = domain.box([0.0, 0.0], [1.0, 1.0])
    sig = np.array([[1.0, 0.0], [0.9, 0.1]])
    ms = model.ModelSpec(
        dim=2, noise_dim=2, horizon=1.0,
        atoms=np.zeros((1, 1)),
        drift=lambda t, x, mu, u: np.zeros_like(x),
        diffusion=lambda t, x, mu, u: np.broadcast_to(
            sig, (x.shape[0], 2, 2)).copy(),
        running_cost=lambda t, x, mu, u: np.zeros(x.shape[0]),
        boundary_cost=lambda t, x, mu: np.zeros(x.shape[0]),
        terminal_cost=lambda x, mu: np.zeros(x.shape[0]),
        initial_law=model._point_law(np.array([0.5, 0.5])),
        dom=dom,
    )
    g = DPGrid.regular([0.0, 0.0], [1.0, 1.0], 0.1)
    with pytest.raises(GridError, match="diagonally dominant"):
        build_chain(ms, None, const_flow([0.5, 0.5], 1e-3, 2), g)


def test_substepping_keeps_rows_valid_and_caps():
    ms = model.make_preset("reflected_bm", UNIT_BOX, {"sigma": 1.0, "x0": 0.5})
    g = DPGrid.regular([0.0], [1.0], 0.05)
    chain = build_chain(ms, None, const_flow(0.5, 0.05, 4), g)
    assert np.all(chain.substeps >= 20)
    assert np.all(chain.substeps <= 64)
    assert np.min(chain.probs[0]) >= -1e-12
    with pytest.raises(GridError, match="substeps"):
        build_chain(ms, None, const_flow(0.5, 0.5, 2), g)


def test_consistency_residual_shrinks_linearly_in_hx():
    ms = model.make_preset("reflected_ou_mf", UNIT_BOX, {
        "kappa": 2.0, "sigma": 0.6, "x0": 0.3,
    })
    flow = const_flow(0.3, 1e-3, 2)
    errs = {}
    for hx in (0.05, 0.025):
        g = DPGrid.regular([0.0], [1.0], hx)
        chain = build_chain(ms, None, flow, g)
        assert np.all(chain.substeps == 1)
        _, sec = chain_moments(chain, 0, 0)
        inner = interior_mask(g)
        errs[hx] = np.max(np.abs(sec[inner, 0, 0] - 0.36 * 1e-3))
    assert errs[0.025] <= 0.7 * errs[0.05]


# ------------------------------------------------ chain assembly reference


def reference_geometry(grid, dom, penalized):
    """Per (node, stencil cell): redirect target, charged step length, truncation."""
    offsets = _stencil_offsets(grid.dim)
    multi = np.stack(np.unravel_index(np.arange(grid.n_nodes), grid.shape), axis=1)
    shape = np.asarray(grid.shape)
    idx = np.empty((grid.n_nodes, len(offsets)), dtype=np.int64)
    disp = np.zeros((grid.n_nodes, len(offsets), grid.dim))
    trunc = np.zeros((grid.n_nodes, len(offsets)), dtype=bool)
    for s, off in enumerate(offsets):
        tgt = multi + off
        clipped = np.clip(tgt, 0, shape - 1)
        idx[:, s] = np.ravel_multi_index(tuple(clipped.T), grid.shape)
        over = tgt - clipped
        for ax in range(grid.dim):
            for side, hit in ((-1, over[:, ax] < 0), (1, over[:, ax] > 0)):
                if not penalized and _face_is_boundary(grid, dom, ax, side):
                    disp[hit, s, ax] = side * grid.hx
                else:
                    trunc[:, s] |= hit
    return idx, np.linalg.norm(disp, axis=2), trunc * 1.0


def reference_slice(ms, penalty, hx, disp_norm, trunc_mask, nodes, t, mu, dt):
    """One slice assembled control by control, with hand-written stencil columns."""
    atoms = ms.atoms
    n_nodes, d = nodes.shape
    coeff = np.zeros((atoms.shape[0], n_nodes, disp_norm.shape[1]))
    fvals = np.empty((atoms.shape[0], n_nodes))
    hval = np.asarray(ms.boundary_cost(t, nodes, mu), dtype=float)
    worst = 0.0
    for ui, atom in enumerate(atoms):
        u = np.broadcast_to(atom, (n_nodes, atoms.shape[1]))
        if penalty is not None:
            b = model.penalized_drift(ms, penalty, t, nodes, mu, u)
            fvals[ui] = model.penalized_running_cost(ms, penalty, t, nodes, mu, u)
        else:
            b = np.asarray(ms.drift(t, nodes, mu, u), dtype=float)
            fvals[ui] = np.asarray(ms.running_cost(t, nodes, mu, u), dtype=float)
        sig = np.asarray(ms.diffusion(t, nodes, mu, u), dtype=float)
        a = np.einsum("bim,bjm->bij", sig, sig)
        bp = np.maximum(b, 0.0)
        bm = np.maximum(-b, 0.0)
        if d == 1:
            coeff[ui, :, 1] = a[:, 0, 0] / 2.0 + hx * bm[:, 0]
            coeff[ui, :, 2] = a[:, 0, 0] / 2.0 + hx * bp[:, 0]
        else:
            cross = a[:, 0, 1]
            slack0 = a[:, 0, 0] - np.abs(cross)
            slack1 = a[:, 1, 1] - np.abs(cross)
            assert np.min(np.minimum(slack0, slack1)) >= 0.0
            coeff[ui, :, 1] = slack0 / 2.0 + hx * bm[:, 0]
            coeff[ui, :, 2] = slack0 / 2.0 + hx * bp[:, 0]
            coeff[ui, :, 3] = slack1 / 2.0 + hx * bm[:, 1]
            coeff[ui, :, 4] = slack1 / 2.0 + hx * bp[:, 1]
            coeff[ui, :, 5] = np.maximum(cross, 0.0) / 2.0
            coeff[ui, :, 6] = np.maximum(cross, 0.0) / 2.0
            coeff[ui, :, 7] = np.maximum(-cross, 0.0) / 2.0
            coeff[ui, :, 8] = np.maximum(-cross, 0.0) / 2.0
        worst = max(worst, float(np.max(coeff[ui].sum(axis=1))))
    substeps = max(1, int(np.ceil(worst * dt / hx**2 - 1e-12)))
    probs = coeff * (dt / substeps / hx**2)
    probs[:, :, 0] = 1.0 - probs[:, :, 1:].sum(axis=2)
    np.clip(probs[:, :, 0], 0.0, None, out=probs[:, :, 0])
    charge = np.einsum("uns,ns->un", probs, disp_norm) * hval[None, :]
    trunc = float(np.max(np.einsum("uns,ns->un", probs, trunc_mask)))
    return probs, charge, fvals, substeps, trunc


def lq_box_model():
    cfg = parse_config_file(Path(__file__).parents[1] / "scripts/configs/lq_box.cfg")
    return build_model(cfg), cfg.sim["dt"], cfg.dp["hx"]


def sheared_2d_model():
    """2-D, nine controls, x- and mu-dependent drift, non-diagonal x-dependent sigma."""
    side = np.array([-1.0, 0.0, 1.0])
    atoms = np.stack(np.meshgrid(side, side, indexing="ij"), axis=-1).reshape(-1, 2)

    def diffusion(t, x, mu, u):
        sig = np.zeros((x.shape[0], 2, 2))
        sig[:, 0, 0] = 0.5 + 0.2 * x[:, 1] + 0.05 * u[:, 0]
        sig[:, 0, 1] = 0.15 * np.cos(x[:, 0]) + t
        sig[:, 1, 1] = 0.45 + 0.1 * x[:, 0] ** 2
        return sig

    ms = model.ModelSpec(
        dim=2, noise_dim=2, horizon=1.0, atoms=atoms,
        drift=lambda t, x, mu, u: u + 0.5 * np.sin(3.0 * x) + 0.3 * (mu.mean - x),
        diffusion=diffusion,
        running_cost=lambda t, x, mu, u: (0.5 * np.sum(u**2, axis=1)
                                          + np.sum((x - mu.mean) ** 2, axis=1)
                                          + 0.1 * x[:, 0] * u[:, 1]),
        boundary_cost=lambda t, x, mu: 1.0 + 0.5 * x[:, 0] - 0.2 * x[:, 1] * t,
        terminal_cost=lambda x, mu: np.sum(x**2, axis=1),
        initial_law=model._point_law(np.array([0.4, 0.6])),
        dom=domain.box([0.0, 0.0], [1.0, 1.0]),
    )
    return ms, 0.005, 0.05


CHAIN_CASES = {
    "lq_box-penalized": (lq_box_model, 128),
    "lq_box-reflected": (lq_box_model, None),
    "sheared2d-penalized": (sheared_2d_model, 64),
    "sheared2d-reflected": (sheared_2d_model, None),
}


def chain_case(name, slices=4):
    """Model, penalty, grid (padded when penalized) and a random flow in the domain."""
    make, penalty = CHAIN_CASES[name]
    ms, dt, hx = make()
    grid = DPGrid.for_model(ms, hx)
    if penalty is not None:
        grid = pad_for_penalty(grid, ms, dt, penalty)
    gen = np.random.default_rng(7)
    states = gen.uniform(0.0, 1.0, size=(slices + 1, 50, ms.dim))
    return ms, penalty, grid, flow_from_states(np.arange(slices + 1) * dt, states)


@pytest.mark.parametrize("name", list(CHAIN_CASES))
def test_chain_matches_per_control_reference(name):
    """Every array of the chain equals the control-by-control assembly, bit for bit."""
    ms, penalty, grid, flow = chain_case(name)
    chain = build_chain(ms, penalty, flow, grid)
    idx, disp_norm, trunc_mask = reference_geometry(grid, ms.dom, penalty is not None)
    np.testing.assert_array_equal(chain.geometry.idx, idx)
    nodes = grid.nodes()
    rows = [reference_slice(ms, penalty, grid.hx, disp_norm, trunc_mask, nodes,
                            float(flow.times[k]), flow.frames[k], flow.dt)
            for k in range(flow.n_steps)]
    for k, (probs, charge, f, substeps, _) in enumerate(rows):
        np.testing.assert_array_equal(chain.probs[k], probs)
        np.testing.assert_array_equal(chain.charge[k], charge)
        np.testing.assert_array_equal(chain.run_cost[k], f)
        assert chain.substeps[k] == substeps
    assert chain.truncated_mass == max(row[4] for row in rows)
    assert (chain.truncated_mass > 0.0) == (penalty is not None)


@pytest.mark.parametrize("name", list(CHAIN_CASES))
def test_chain_calls_each_coefficient_once_per_slice(name):
    ms, penalty, grid, flow = chain_case(name)
    calls = {}
    for key in ("drift", "diffusion", "running_cost", "boundary_cost"):
        def counted(*args, _fn=getattr(ms, key), _key=key):
            calls[_key] = calls.get(_key, 0) + 1
            return _fn(*args)
        setattr(ms, key, counted)
    build_chain(ms, penalty, flow, grid)
    assert calls == dict.fromkeys(calls, flow.n_steps) and len(calls) == 4


# ---------------------------------------------------------------- recursion


def test_zero_costs_give_zero_value_and_lowest_tie_index():
    dom = UNIT_BOX
    ms = model.make_preset("lq_control", dom, {
        "sigma": 0.5, "c": 0.0, "x0": 0.5, "control_grid": [-1.0, 0.0, 1.0],
    })
    ms.running_cost = lambda t, x, mu, u: np.zeros(x.shape[0])
    flow = const_flow(0.5, 2e-3, 10)
    g = DPGrid.regular([0.0], [1.0], 0.1)
    field, law = solve_dp(build_chain(ms, None, flow, g), flow)
    assert np.max(np.abs(field.V)) == 0.0
    assert np.all(field.argmin == 0)
    c = sample_control(law, 0.0, np.array([[0.3], [0.9]]), None)
    assert np.array_equal(c.u, [[-1.0], [-1.0]])  # atom 0
    assert c.mass.tolist() == [1.0, 0.0, 0.0]


def test_constant_running_cost_integrates_exactly():
    ms = model.make_preset("reflected_bm", UNIT_BOX,
                           {"sigma": 1.0, "x0": 0.5, "f_const": 1.0})
    flow = const_flow(0.5, 2e-3, 250)
    g = DPGrid.regular([0.0], [1.0], 0.1)
    field, _ = solve_dp(build_chain(ms, None, flow, g), flow)
    assert np.allclose(field.V[0], 0.5, atol=1e-10)  # T = 250 * 2e-3


def test_terminal_shift_moves_value_exactly():
    ms1 = model.make_preset("reflected_bm", UNIT_BOX,
                            {"sigma": 1.0, "x0": 0.5, "h_const": 1.0})
    ms2 = model.make_preset("reflected_bm", UNIT_BOX,
                            {"sigma": 1.0, "x0": 0.5, "h_const": 1.0})
    ms2.terminal_cost = lambda x, mu: np.full(x.shape[0], 0.7)
    flow = const_flow(0.5, 2e-3, 50)
    g = DPGrid.regular([0.0], [1.0], 0.1)
    v1, _ = solve_dp(build_chain(ms1, None, flow, g), flow)
    v2, _ = solve_dp(build_chain(ms2, None, flow, g), flow)
    assert np.allclose(v2.V, v1.V + 0.7, atol=1e-9)


def test_value_monotone_in_running_cost():
    params = {"sigma": 0.5, "c": 1.0, "x0": 0.5}
    ms1 = model.make_preset("lq_control", UNIT_BOX, dict(params))
    ms2 = model.make_preset("lq_control", UNIT_BOX, dict(params))
    base = ms2.running_cost
    ms2.running_cost = lambda t, x, mu, u: base(t, x, mu, u) \
        + 0.25 * (1.0 + np.sin(5.0 * x[:, 0]))
    flow = const_flow(0.5, 2e-3, 50)
    g = DPGrid.regular([0.0], [1.0], 0.05)
    v1, _ = solve_dp(build_chain(ms1, None, flow, g), flow)
    v2, _ = solve_dp(build_chain(ms2, None, flow, g), flow)
    assert np.all(v2.V >= v1.V - 1e-12)


def test_dp_value_matches_monte_carlo_rollout():
    ms = model.make_preset("lq_control", UNIT_BOX, {
        "sigma": 0.5, "horizon": 0.5, "c": 1.0, "h_const": 0.5, "x0": 0.4,
    })
    dt, hx = 2.5e-3, 0.05
    flow = const_flow(0.4, dt, 200)
    g = DPGrid.regular([0.0], [1.0], hx)
    chain = build_chain(ms, None, flow, g)
    field, law = solve_dp(chain, flow)
    cfg = SimConfig(n_particles=3000, dt=dt, seed=17)
    paths, _ = simulate(ms, cfg, law, frozen_flow=flow)
    rep = evaluate_cost(ms, paths, flow)
    v0 = float(np.mean(field.value_at(0, paths.X[0])))
    assert abs(rep.value - v0) <= 3.0 * rep.stderr + 2.0 * (hx + dt)


def test_exploitability_near_zero_for_dp_law_positive_for_bad_law():
    ms = model.make_preset("lq_control", UNIT_BOX, {
        "sigma": 0.5, "horizon": 0.5, "c": 1.0, "x0": 0.4,
    })
    dt = 2.5e-3
    flow = const_flow(0.4, dt, 200)
    g = DPGrid.regular([0.0], [1.0], 0.05)
    chain = build_chain(ms, None, flow, g)
    field, law = solve_dp(chain, flow)
    sim = SimConfig(n_particles=2000, dt=dt, seed=5)
    good, _ = exploitability(ms, flow, law, sim, grid=g, field=field)
    assert isinstance(good, ExploitabilityReport)
    assert good.gap <= 3.0 * good.cost_se + 2.0 * (0.05 + dt)
    assert good.gap >= -3.0 * good.cost_se - 1e-12
    push = NodeTable(np.array([0.0, 1.0]), None, np.full((1, 1), 2),  # the atom +1
                     ms.atoms)
    bad, _ = exploitability(ms, flow, push, sim, grid=g, field=field)
    assert bad.gap > 0.05
    assert bad.gap > 5.0 * max(good.gap, 1e-3)


def test_exploitability_clip_is_recorded():
    ms = model.make_preset("lq_control", UNIT_BOX, {
        "sigma": 0.5, "horizon": 0.5, "c": 1.0, "x0": 0.4,
    })
    flow = const_flow(0.4, 0.0125, 40)
    g = DPGrid.regular([0.0], [1.0], 0.05)
    field, law = solve_dp(build_chain(ms, None, flow, g), flow)
    sim = SimConfig(n_particles=500, dt=0.0125, seed=5)
    fair, _ = exploitability(ms, flow, law, sim, field=field)
    assert not fair.clipped
    with pytest.raises(GridError):  # no field, and no grid to solve one on
        exploitability(ms, flow, law, sim)
    # a best response that claims 1.0 more than the law's cost is inconsistent
    inflated = replace(field, V=field.V + 1.0)
    rep, _ = exploitability(ms, flow, law, sim, field=inflated)
    assert rep.clipped
    assert rep.gap == -3.0 * rep.cost_se
    assert rep.cost - rep.dp_value < rep.gap

    def exploit_line(report):
        eq = EquilibriumReport(flow=flow, law=law, residuals=[0.01],
                               cost=SimpleNamespace(value=rep.cost, stderr=rep.cost_se),
                               iterations=1, converged=True,
                               exploitability=report)
        return eq.summary().splitlines()[-1]

    assert exploit_line(rep) == f"exploit    {rep.gap:.6f}  [CLIPPED]"
    assert exploit_line(fair) == f"exploit    {fair.gap:.6f}"


def test_exploitability_replays_the_runs_own_scheme():
    """The candidate runs under the SimConfig it is given, penalty included:
    its report and its realized flow equal a direct frozen run's, bit for
    bit."""
    ms = model.make_preset("lq_control", UNIT_BOX, {
        "sigma": 0.5, "horizon": 0.5, "c": 1.0, "h_const": 0.5, "x0": 0.1,
    })
    dt = 0.0125
    flow = const_flow(0.4, dt, 40)
    sim = SimConfig(n_particles=500, dt=dt, penalty=8, seed=5)
    grid = pad_for_penalty(DPGrid.regular([0.0], [1.0], 0.05), ms, dt, 8)
    field, law = solve_dp(build_chain(ms, 8, flow, grid), flow)
    rep, realized = exploitability(ms, flow, law, sim, field=field)
    paths, direct = simulate(ms, sim, law, frozen_flow=flow)
    assert realized.times.tobytes() == direct.times.tobytes()
    for got, want in zip(realized.frames, direct.frames, strict=True):
        assert got.samples.tobytes() == want.samples.tobytes()
    cost = evaluate_cost(ms, paths, flow)
    dp0 = float(np.mean(field.value_at(0, paths.X[0])))
    assert (rep.cost, rep.cost_se, rep.dp_value) == (cost.value, cost.stderr, dp0)
    assert rep.gap == max(cost.value - dp0, -3.0 * cost.stderr)
    # solving the DP on the grid uses the run's penalty, so the same report
    assert exploitability(ms, flow, law, sim, grid=grid)[0] == rep
    # the scheme matters: a reflected replay of the same run costs otherwise
    reflected = simulate(ms, replace(sim, penalty=None), law,
                         frozen_flow=flow)[0]
    assert evaluate_cost(ms, reflected, flow).value != rep.cost


def test_relaxed_probe_mixture_weights():
    ms = model.make_preset("lq_control", UNIT_BOX, {
        "sigma": 0.5, "c": 1.0, "x0": 0.4,
    })
    flow = const_flow(0.4, 2e-3, 20)
    g = DPGrid.regular([0.0], [1.0], 0.1)
    field, _ = solve_dp(build_chain(ms, None, flow, g), flow)
    probe = relaxed_probe(field, epsilon=0.1)
    x = np.array([[0.15], [0.85]])
    w = sample_control(probe, 0.0, x, None).weights
    assert w.shape == (2, 3)
    assert np.allclose(w.sum(axis=1), 1.0)
    assert np.isclose(np.sort(w[0])[-1], 0.9)
    strict_w = sample_control(relaxed_probe(field, epsilon=0.0), 0.0, x, None).weights
    assert np.allclose(np.max(strict_w, axis=1), 1.0)
    with pytest.raises(ConfigError):
        relaxed_probe(field, epsilon=0.9)


# Per-particle references of the DP laws as plain numpy functions of
# (t, x, generator): each state's node by the ravel_multi_index lookup, its
# row read at the time cell, weights divided by their cumsum totals and drawn
# by the cumsum/compare-sum sampler, and the mass averaged over the states.


def reference_strict(field, table):
    """(u, None, mass) of the strict law reading ``table`` per particle."""
    def read(t, x, gen):
        idx = table[time_cell(field.times, t)][nearest_node_reference(field.grid, x)]
        return (np.take(field.atoms, idx, axis=0), None,
                np.bincount(idx, minlength=len(field.atoms)) / idx.size)
    return read


def reference_weights(field, epsilon):
    """The relaxed probe's (B, nU) weight rows at (t, x), per particle."""
    table = _probe_weights(field, epsilon)

    def weights(t, x):
        w = np.take(table[time_cell(field.times, t)],
                    nearest_node_reference(field.grid, x), axis=0)
        return w / np.cumsum(w, axis=1)[:, -1:]
    return weights


def reference_relaxed(field, epsilon):
    """(u, weights, mass) of the relaxed probe per particle; u is None
    without a generator."""
    weights = reference_weights(field, epsilon)

    def read(t, x, gen):
        w = weights(t, x)
        u = None if gen is None else np.take(field.atoms, sample_rows_reference(w, gen),
                                             axis=0)
        return u, w, w.mean(axis=0)
    return read


def table_case(d, penalty):
    """The DP field on the unit box in dimension d, on the penalty-padded grid
    when a penalty is given, with argmin and runner-up scrambled per node."""
    atoms = [[-1.0], [0.0], [1.0]] if d == 1 else [[-1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    ms = model.make_preset("lq_control", domain.box([0.0] * d, [1.0] * d), {
        "sigma": 0.4, "horizon": 0.1, "c": 1.0, "x0": [0.4] * d, "control_grid": atoms})
    flow = const_flow([0.4] * d, 0.0125, 8)
    grid = DPGrid.regular([0.0] * d, [1.0] * d, 0.1 if d == 1 else 0.25)
    if penalty is not None:
        grid = pad_for_penalty(grid, ms, 0.0125, penalty)
    field, _ = solve_dp(build_chain(ms, penalty, flow, grid), flow)
    gen = np.random.default_rng(3 * d)
    arg = gen.integers(0, 3, size=field.argmin.shape)
    second = (arg + gen.integers(1, 3, arg.shape)) % 3
    return replace(field, argmin=arg, runner_up=second)


@pytest.mark.parametrize("penalty", [None, 8], ids=["reflected", "padded"])
@pytest.mark.parametrize("d", [1, 2])
def test_node_tables_read_what_the_closures_read(d, penalty):
    """u, relaxed weights and control mass of every DP law equal, bit for
    bit, those of its per-particle numpy reference (the closure laws that
    node tables replaced), at nodes, half-way points and clamped points far
    outside the grid."""
    field = table_case(d, penalty)
    g = field.grid
    gen = np.random.default_rng(d)
    span = g.upper - g.lower
    x = np.vstack([g.nodes(), g.nodes() + 0.5 * g.hx,  # half-way: round half even
                   gen.uniform(g.lower - span, g.upper + span, (400, d)),
                   [g.lower - 1e6, g.upper + 1e6, g.lower - 0.5 * g.hx]])
    pairs = [(feedback_law(field), reference_strict(field, field.argmin))]
    for eps in (0.0, 0.25):
        chattered = chattered_indices(field.times, _probe_weights(field, eps), 0.025)
        pairs += [(relaxed_probe(field, eps), reference_relaxed(field, eps)),
                  (chattered_probe(field, 0.025, eps),
                   reference_strict(field, chattered))]
    for law, ref in pairs:
        for k, t in enumerate(field.times[:-1]):
            for draws in (None, 7):  # relaxed laws read, then sample
                got, want = (read(t, x, draws and rng.stream(draws, rng.CONTROL, k))
                             for read in (partial(sample_control, law), ref))
                for a, b in zip(got, want):
                    assert (a is None) == (b is None)
                    assert a is None or (a.dtype, a.tobytes()) == (b.dtype, b.tobytes())


def reference_chattered_indices(weights, times, delta, t, x):
    """Per-particle chattering: weigh every cell of t's block at x, then allocate."""
    dt = float(times[1] - times[0])
    k = int(round(delta / dt))
    m = times.size - 1
    cell = int(np.clip(np.floor((t - times[0]) / dt + 1e-12), 0, m - 1))
    start = (cell // k) * k
    stop = min(start + k, m)
    w = np.stack([weights(times[c], x) for c in range(start, stop)])
    w_bar = w.mean(axis=0)
    counts = largest_remainder_counts(w_bar * (stop - start), stop - start)
    cum = np.cumsum(counts, axis=1)
    return np.sum(cum <= (cell - start), axis=1)


@pytest.mark.parametrize("control_grid", [[-1.0, 0.0, 1.0], [0.0]])
def test_chattered_probe_matches_per_particle_reference(control_grid):
    ms = model.make_preset("lq_control", UNIT_BOX, {
        "sigma": 0.4, "horizon": 0.5, "c": 1.0, "x0": 0.4,
        "control_grid": control_grid,
    })
    n_u = ms.atoms.shape[0]
    flow = const_flow(0.4, 0.0125, 40)
    g = DPGrid.regular([0.0], [1.0], 0.05)
    field, _ = solve_dp(build_chain(ms, None, flow, g), flow)
    gen = np.random.default_rng(21)
    fields = [field]
    if n_u == 1:
        np.testing.assert_array_equal(field.argmin, field.runner_up)
    else:  # scrambled tables put mixed weights into most blocks
        arg = gen.integers(0, n_u, size=field.argmin.shape)
        second = (arg + gen.integers(1, n_u, size=arg.shape)) % n_u
        fields.append(replace(field, argmin=arg, runner_up=second))
    x = gen.uniform(-0.1, 1.1, size=(300, 1))  # edge nodes take clamped points
    nodes = g.nearest_node(x)
    for f in fields:
        for eps in (0.0, 0.25):
            weights = reference_weights(f, eps)
            table = _probe_weights(f, eps)
            for delta in (0.2, 0.1, 0.05):  # 0.2: blocks of 16, 16 and 8 cells
                sched = chattered_indices(f.times, table, delta)
                law = chattered_probe(f, delta, epsilon=eps)
                for c in range(flow.n_steps):
                    t = float(f.times[c])
                    ref = reference_chattered_indices(weights, f.times, delta, t, x)
                    np.testing.assert_array_equal(sched[c][nodes], ref)
                    c = sample_control(law, t, x, None)
                    assert c.weights is None
                    np.testing.assert_array_equal(c.u, ms.atoms[ref])


def test_chattered_run_looks_up_nodes_once_per_step(monkeypatch):
    ms = model.make_preset("lq_control", UNIT_BOX, {
        "sigma": 0.4, "horizon": 0.5, "c": 1.0, "x0": 0.4,
    })
    flow = const_flow(0.4, 0.0125, 40)
    field, _ = solve_dp(build_chain(ms, None, flow, DPGrid.regular([0.0], [1.0], 0.05)),
                        flow)
    calls = []
    lookup = DPGrid.nearest_node

    def counted(grid, x):
        calls.append(len(x))
        return lookup(grid, x)

    monkeypatch.setattr(DPGrid, "nearest_node", counted)
    law = chattered_probe(field, 0.2, epsilon=0.25)
    assert calls == []  # tabulating the schedule looks up no state
    cfg = SimConfig(n_particles=64, dt=0.0125, penalty=10, seed=3)
    simulate(ms, cfg, law, frozen_flow=flow)
    assert calls == [64] * flow.n_steps


def test_chattered_run_records_table_indices():
    ms = model.make_preset("lq_control", UNIT_BOX, {
        "sigma": 0.4, "horizon": 0.5, "c": 1.0, "x0": 0.4,
    })
    flow = const_flow(0.4, 0.0125, 40)
    grid = DPGrid.regular([0.0], [1.0], 0.05)
    field, _ = solve_dp(build_chain(ms, None, flow, grid), flow)
    gen = np.random.default_rng(8)  # scrambled, so the schedule varies by node
    arg = gen.integers(0, 3, size=field.argmin.shape)
    field = replace(field, argmin=arg, runner_up=(arg + gen.integers(1, 3, arg.shape)) % 3)
    table = chattered_indices(field.times, _probe_weights(field, 0.25), 0.2)
    cfg = SimConfig(n_particles=64, dt=0.0125, penalty=10, seed=3)
    paths, _ = simulate(ms, cfg, chattered_probe(field, 0.2, epsilon=0.25),
                        frozen_flow=flow)
    rec = np.stack([sample_control(paths.law, t, x, None).u
                    for t, x in zip(paths.times[:-1], paths.X)])
    assert rec.shape == (40, 64, 1)
    assert sum(np.unique(row).size > 1 for row in rec) >= 10  # particles differ
    for k in range(flow.n_steps):
        np.testing.assert_array_equal(
            rec[k], ms.atoms[table[k][grid.nearest_node(paths.X[k])]])
    np.testing.assert_array_equal(paths.law.atoms, ms.atoms)


def test_chain_flow_mismatch_raises():
    ms = model.make_preset("reflected_bm", UNIT_BOX, {"sigma": 1.0, "x0": 0.5})
    g = DPGrid.regular([0.0], [1.0], 0.1)
    chain = build_chain(ms, None, const_flow(0.5, 2e-3, 10), g)
    with pytest.raises(ConfigError):
        solve_dp(chain, const_flow(0.5, 2e-3, 12), )


# Floats whose shortest repr is easy to get wrong: signed zero, subnormal,
# tiny, the switch to exponent notation, a rounding artifact.
EDGE_FLOATS = np.array([-0.0, 5e-324, 1e-300, 1e16, 0.1 + 0.2, 1e22])


def reference_value_csv(field) -> bytes:
    """The per-cell writer: one format_float per cell, rows joined by ','."""
    nodes = field.grid.nodes()
    d = nodes.shape[1]
    rows = ["t," + ",".join(f"x_{j + 1}" for j in range(d)) + ",value,u_index"]
    last = field.V.shape[0] - 1
    for k in range(last + 1):
        for i in range(nodes.shape[0]):
            u = -1 if k == last else int(field.argmin[k, i])
            rows.append(",".join([format_float(field.times[k])]
                                 + [format_float(v) for v in nodes[i]]
                                 + [format_float(field.V[k, i]), str(u)]))
    return ("\n".join(rows) + "\n").encode()


def test_value_csv_export(tmp_path, request):
    ms = model.make_preset("reflected_bm", UNIT_BOX, {"sigma": 1.0, "x0": 0.5})
    flow = const_flow(0.5, 2e-3, 3)
    g = DPGrid.regular([0.0], [1.0], 0.25)
    field, _ = solve_dp(build_chain(ms, None, flow, g), flow)
    out = tmp_path / "value.csv"
    value_to_csv(field, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x_1,value,u_index"
    assert len(lines) == 1 + 4 * 5  # (M+1) slices x 5 nodes
    assert all(row.endswith(",-1") for row in lines[-5:])  # terminal slice
    assert out.read_bytes() == reference_value_csv(field)
    # d = 2 with edge floats in V and every control index in use
    g2 = DPGrid.regular([-1.0, 0.0], [0.0, 1.0], 0.5)
    edge = np.resize(np.concatenate([EDGE_FLOATS, -EDGE_FLOATS]), (4, 9))
    field2 = replace(field, grid=g2, V=edge,
                     argmin=np.arange(27).reshape(3, 9) % 4)
    value_to_csv(field2, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x_1,x_2,value,u_index"
    assert all(row.endswith(",-1") for row in lines[-9:])
    assert out.read_bytes() == reference_value_csv(field2)
    # split writes: a forked helper writes slices [0, m // 2), the same bytes
    # for both fields and for their first one and two slices
    forks = request.getfixturevalue("split_writes")
    fields = [field, field2] + [
        replace(f, times=f.times[:m], V=f.V[:m], argmin=f.argmin[:m - 1])
        for f in (field, field2) for m in (1, 2)]
    for f in fields:
        value_to_csv(f, out)
        assert out.read_bytes() == reference_value_csv(f)
    assert len(forks) == len(fields) - 2  # one slice: serial
    assert not list(tmp_path.glob("*.part"))
