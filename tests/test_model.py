"""Model layer tests: penalized transforms, generator, presets.

The generator is cross-checked against a finite-difference oracle that only
uses the test function's values, an independent route from the analytic
gradients and Hessians the implementation consumes.
"""

from dataclasses import replace

import numpy as np
import pytest

from penmfg import domain, model
from penmfg.errors import ContractViolationError, PenmfgError
from penmfg.measures import EmpiricalMeasure

RNG = np.random.default_rng(3)

HALF_LINE = domain.half_space([-1.0], 0.0)
UNIT_BALL2 = domain.ball(np.zeros(2), 1.0)


def mu_of(points):
    return EmpiricalMeasure(np.asarray(points, dtype=float))


def generator_fd_oracle(ms, value_fn, t, x, mu, u, h=1e-5):
    """Generator via central differences of the plain value function."""
    x = np.atleast_2d(x)
    b = ms.drift(t, x, mu, u)
    sig = ms.diffusion(t, x, mu, u)
    a = np.einsum("bim,bjm->bij", sig, sig)
    d = x.shape[1]
    grad = np.empty_like(x)
    hess = np.empty((x.shape[0], d, d))
    f0 = value_fn(x)
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = h
        fp, fm = value_fn(x + ei), value_fn(x - ei)
        grad[:, i] = (fp - fm) / (2 * h)
        hess[:, i, i] = (fp - 2 * f0 + fm) / h**2
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = h
            cross = (
                value_fn(x + ei + ej) - value_fn(x + ei - ej)
                - value_fn(x - ei + ej) + value_fn(x - ei - ej)
            ) / (4 * h**2)
            hess[:, i, j] = hess[:, j, i] = cross
    return np.sum(b * grad, axis=1) + 0.5 * np.einsum("bij,bij->b", a, hess)


# ------------------------------------------------------------ penalization


def test_penalized_drift_half_line_example():
    ms = model.make_preset("reflected_bm", HALF_LINE)
    mu = mu_of([[0.5]])
    u = np.zeros((1, 1))
    out = model.penalized_drift(ms, 4, 0.0, np.array([[-0.5]]), mu, u)
    np.testing.assert_allclose(out, [[2.0]])


def test_penalized_drift_ball_example():
    ms = model.make_preset("reflected_bm", UNIT_BALL2)
    mu = mu_of([[0.0, 0.0]])
    u = np.zeros((1, 1))
    out = model.penalized_drift(ms, 2, 0.0, np.array([[2.0, 0.0]]), mu, u)
    np.testing.assert_allclose(out, [[-2.0, 0.0]])


def test_penalized_drift_matches_drift_inside():
    ms = model.make_preset("lq_control", domain.box([-1.0], [1.0]), {"sigma": 0.5})
    x = RNG.uniform(-1.0, 1.0, size=(50, 1))
    u = RNG.choice([-1.0, 0.0, 1.0], size=(50, 1))
    mu = mu_of(x)
    for n in (1, 7, 128):
        np.testing.assert_array_equal(
            model.penalized_drift(ms, n, 0.3, x, mu, u), ms.drift(0.3, x, mu, u)
        )


def test_penalized_drift_displacement_identity():
    """|b_n - b| equals n * dist for any point, any level."""
    ms = model.make_preset("reflected_bm", UNIT_BALL2)
    x = RNG.uniform(-3.0, 3.0, size=(200, 2))
    mu = mu_of(np.zeros((1, 2)))
    u = np.zeros((200, 1))
    for n in (1, 8, 64):
        gap = model.penalized_drift(ms, n, 0.0, x, mu, u) - ms.drift(0.0, x, mu, u)
        np.testing.assert_allclose(
            np.linalg.norm(gap, axis=1),
            n * np.sqrt(domain.dist2(UNIT_BALL2, x)),
            atol=1e-12,
        )


def test_penalized_running_cost_example():
    ms = model.make_preset("reflected_bm", HALF_LINE, {"h_const": 1.0})
    mu = mu_of([[0.5]])
    u = np.zeros((1, 1))
    out = model.penalized_running_cost(ms, 4, 0.0, np.array([[-0.5]]), mu, u)
    np.testing.assert_allclose(out, [2.0])


def test_penalized_cost_dominates_when_h_nonnegative():
    ms = model.make_preset("reflected_bm", HALF_LINE, {"h_const": 0.7, "f_const": 0.2})
    x = RNG.uniform(-2.0, 2.0, size=(100, 1))
    mu = mu_of([[0.2]])
    u = np.zeros((100, 1))
    fn = model.penalized_running_cost(ms, 16, 0.0, x, mu, u)
    assert np.all(fn >= ms.running_cost(0.0, x, mu, u) - 1e-15)


def test_penalty_level_validation():
    ms = model.make_preset("reflected_bm", HALF_LINE)
    with pytest.raises(PenmfgError):
        model.penalized_drift(ms, 0, 0.0, np.zeros((1, 1)), mu_of([[0.0]]), None)
    with pytest.raises(PenmfgError):
        model.validate_penalty(2.5)


# ---------------------------------------------------------------- generator


def test_generator_linear_probe():
    ms = model.make_preset("lq_control", domain.box([-2.0], [2.0]))
    mu = mu_of([[0.0]])
    x = np.array([[0.3]])
    u = np.array([[1.0]])
    phi = model.linear_probe([1.0])
    np.testing.assert_allclose(
        model.generator_apply(ms, phi, 0.0, x, mu, u), [1.0], atol=1e-14
    )


def test_generator_quadratic_probe_is_dimension():
    ms = model.make_preset("reflected_bm", UNIT_BALL2)
    mu = mu_of([[0.0, 0.0]])
    x = RNG.uniform(-0.5, 0.5, size=(6, 2))
    u = np.zeros((6, 1))
    phi = model.quadratic_probe(dim=2)
    np.testing.assert_allclose(
        model.generator_apply(ms, phi, 0.0, x, mu, u), np.full(6, 2.0), atol=1e-12
    )


def test_generator_matches_finite_difference_oracle():
    ms = model.make_preset(
        "reflected_ou_mf", UNIT_BALL2, {"kappa": 0.8, "sigma": 0.6}
    )
    mu = mu_of(RNG.normal(scale=0.3, size=(40, 2)))
    x = RNG.uniform(-0.8, 0.8, size=(20, 2))
    u = np.zeros((20, 1))
    a = np.array([[0.4, -0.2], [0.1, 0.9]])
    b = np.array([0.5, -1.0])
    phi = model.quadratic_probe(a, b, 0.3)
    got = model.generator_apply(ms, phi, 0.2, x, mu, u)
    want = generator_fd_oracle(ms, phi.value, 0.2, x, mu, u)
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)


def test_generator_linear_in_probe():
    ms = model.make_preset("reflected_bm", HALF_LINE)
    mu = mu_of([[0.4]])
    x = RNG.uniform(0.0, 2.0, size=(15, 1))
    u = np.zeros((15, 1))
    p1 = model.linear_probe([2.0], 1.0)
    p2 = model.quadratic_probe(dim=1)
    combo = model.SmoothFn(
        value=lambda z: 2.0 * p1.value(z) - 3.0 * p2.value(z),
        grad=lambda z: 2.0 * p1.grad(z) - 3.0 * p2.grad(z),
        hess=lambda z: 2.0 * p1.hess(z) - 3.0 * p2.hess(z),
    )
    lhs = model.generator_apply(ms, combo, 0.0, x, mu, u)
    rhs = (2.0 * model.generator_apply(ms, p1, 0.0, x, mu, u)
           - 3.0 * model.generator_apply(ms, p2, 0.0, x, mu, u))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


# ------------------------------------------------------------------ presets


def test_preset_registry_round_trip():
    assert set(model.preset_names()) >= {"reflected_bm", "reflected_ou_mf", "lq_control"}
    with pytest.raises(PenmfgError):
        model.make_preset("nope", HALF_LINE)
    with pytest.raises(PenmfgError):
        model.make_preset("reflected_bm", HALF_LINE, {"bogus": 1.0})


# each preset's resolved parameters with every value left at its default
DEFAULT_PARAMS = {
    "reflected_bm": {"sigma": 1.0, "horizon": 1.0, "h_const": 0.0, "f_const": 0.0},
    "reflected_ou_mf": {"kappa": 1.0, "sigma": 1.0, "horizon": 1.0, "f_x2": 0.0,
                        "h_const": 0.0},
    "lq_control": {"sigma": 1.0, "horizon": 1.0, "c": 1.0, "gamma": 0.0,
                   "h_const": 0.0, "control_grid": [[-1.0], [0.0], [1.0]]},
}


@pytest.mark.parametrize("name", sorted(DEFAULT_PARAMS))
def test_preset_records_its_resolved_parameters(name):
    """`diagnose` prints these, the initial law and its point included."""
    got = model.make_preset(name, domain.box([0.0], [1.0]), {}).params
    assert got == {**DEFAULT_PARAMS[name], "init": "point", "x0": [0.0]}
    ms = model.make_preset(name, domain.box([0.0] * 2, [1.0] * 2), {
        "init": "uniform_box", "init_lower": 0.25, "init_upper": [0.5, 0.75],
        **({"control_grid": [[0.0, 1.0]]} if name == "lq_control" else {})})
    assert {k: ms.params[k] for k in ("init", "init_lower", "init_upper")} == {
        "init": "uniform_box", "init_lower": [0.25, 0.25], "init_upper": [0.5, 0.75]}


@pytest.mark.parametrize("params, key", [
    ({"sigma": "abc"}, "sigma"),
    ({"sigma": float("nan")}, "sigma"),
    ({"gamma": (1.0, 2.0)}, "gamma"),
    ({"control_grid": "a"}, "control_grid"),
    ({"control_grid": [[0.0, 1.0]]}, "control_grid"),
    ({"control_grid": []}, "control_grid"),
    ({"x0": (0.0, 1.0)}, "x0"),
    ({"init": "uniform_box", "init_upper": 1.0}, "init_lower"),
    ({"init": "uniform_box", "init_lower": 0.0, "init_upper": [np.inf]}, "init_upper"),
    ({"init": "gaussian"}, "init"),
    ({"bogus": 1.0}, "bogus"),
])
def test_preset_rejects_a_bad_parameter_by_name(params, key):
    with pytest.raises(PenmfgError, match=f"'{key}'"):
        model.make_preset("lq_control", domain.box([0.0], [1.0]), params)


def test_preset_initial_law_must_stay_inside():
    with pytest.raises(ContractViolationError):
        model.make_preset("reflected_bm", HALF_LINE, {"x0": -0.5})


def test_model_refuses_nan_or_empty_control_atoms():
    ms = model.make_preset("reflected_bm", HALF_LINE)
    for atoms in (np.array([[0.0], [np.nan]]), np.zeros((0, 1))):
        with pytest.raises(PenmfgError, match="control atoms"):
            replace(ms, atoms=atoms)


def test_reflected_ou_mf_pulls_toward_population_mean():
    ms = model.make_preset("reflected_ou_mf", HALF_LINE, {"kappa": 2.0})
    mu = mu_of([[1.0], [3.0]])  # mean 2
    x = np.array([[0.0], [2.0], [5.0]])
    out = ms.drift(0.0, x, mu, np.zeros((3, 1)))
    np.testing.assert_allclose(out, [[4.0], [0.0], [-6.0]])


def test_lq_control_cost_and_drift():
    ms = model.make_preset(
        "lq_control", domain.box([-1.0], [1.0]), {"c": 0.5, "gamma": 2.0}
    )
    mu = mu_of([[0.5]])
    x = np.array([[1.0]])
    u = np.array([[-1.0]])
    np.testing.assert_allclose(ms.drift(0.0, x, mu, u), [[-1.0]])
    # 0.5*1 + 0.5*1 + 2*(0.5)^2
    np.testing.assert_allclose(ms.running_cost(0.0, x, mu, u), [1.5])


@pytest.mark.parametrize("d", [1, 2])
def test_lq_control_running_cost_matches_row_sum_expression(d):
    """Column-wise sums give the bits of the np.sum(..., axis=1) expression."""
    c, gamma = 0.7, 0.3
    grid = np.array([[-1.0] * d, [0.0] * d, [0.5] * d])
    ms = model.make_preset("lq_control", domain.box([-1.0] * d, [1.0] * d),
                           {"c": c, "gamma": gamma, "control_grid": grid.tolist()})
    gen = np.random.default_rng(d)
    x = gen.uniform(-1.5, 1.5, size=(2000, d))
    mu = mu_of(gen.uniform(-1.0, 1.0, size=(50, d)))
    for u in (grid[gen.integers(0, 3, 2000)], np.broadcast_to(grid[2], (2000, d))):
        want = (0.5 * np.sum(u**2, axis=1) + c * np.sum(x**2, axis=1)
                + gamma * np.sum((x - mu.mean) ** 2, axis=1))
        np.testing.assert_array_equal(ms.running_cost(0.0, x, mu, u), want)


def test_uniform_box_initial_law():
    ms = model.make_preset(
        "reflected_bm",
        domain.box([0.0], [2.0]),
        {"init": "uniform_box", "init_lower": 0.5, "init_upper": 1.5},
    )
    x = ms.initial_law(500, np.random.default_rng(1))
    assert np.all((x >= 0.5) & (x <= 1.5))
