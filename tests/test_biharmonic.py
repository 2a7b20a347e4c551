import numpy as np
import pytest

from weylglue import biharmonic as bh
from weylglue.energy import leading_bracket

from oracles import harmonic_component, radial_bilaplacian, smallgamma_expansion
from random_tensors import random_weyl


def test_profile_powers_are_biharmonic():
    # the four radial profiles solve the separated biharmonic equation
    for k, p in enumerate(bh.PROFILE_POWERS):
        c = np.zeros(4)
        c[k] = 1.0
        for r in (0.3, 0.7, 1.5):
            # normalize by the size of the individual operator terms
            scale = max(r ** (p - 4), 1.0)
            assert abs(radial_bilaplacian(c, r)) < 1e-11 * scale


def test_a_gamma_structure():
    gamma = 0.25
    mat = bh.a_gamma(gamma)
    g2 = gamma ** 2
    expect = np.array([
        [1.0, g2, g2 ** 3, g2 ** 4],
        [-4.0, -2.0 * g2, 2.0 * g2 ** 3, 4.0 * g2 ** 4],
        [1.0, 1.0, 1.0, 1.0],
        [-4.0, -2.0, 2.0, 4.0],
    ])
    assert np.abs(mat - expect).max() < 1e-14


def test_a_gamma_rejects_bad_gamma():
    with pytest.raises(ValueError):
        bh.a_gamma(1.5)
    with pytest.raises(ValueError):
        bh.a_gamma(0.0)


def test_closed_solve_matches_direct():
    rng = np.random.default_rng(31)
    for gamma in (0.3, 0.1, 0.02):
        v1, v3 = rng.standard_normal(2)
        v = np.array([v1, -2.0 * v1, v3, 2.0 * v3])
        c_closed = bh.solve_profile(gamma, v)
        c_direct = np.linalg.solve(bh.a_gamma(gamma), v)
        scale = max(np.abs(c_direct).max(), 1e-30)
        assert np.abs(c_closed - c_direct).max() < 1e-11 * scale


def test_solve_profile_satisfies_boundary_conditions():
    rng = np.random.default_rng(32)
    gamma = 0.2
    v = rng.standard_normal(4)
    c = np.linalg.solve(bh.a_gamma(gamma), v)
    scale = max(np.abs(v).max(), 1e-30)
    assert gamma ** 4 * bh.radial_profile(c, gamma) == pytest.approx(v[0], abs=1e-10 * scale)
    assert gamma ** 5 * bh.radial_profile(c, gamma, deriv=1) == pytest.approx(v[1], abs=1e-10 * scale)
    assert bh.radial_profile(c, 1.0) == pytest.approx(v[2], abs=1e-10 * scale)
    assert bh.radial_profile(c, 1.0, deriv=1) == pytest.approx(v[3], abs=1e-10 * scale)


def test_smallgamma_expansion_orders():
    # residual of the truncated coefficients decays at the documented orders
    rng = np.random.default_rng(33)
    v1, v3 = rng.standard_normal(2)
    v = np.array([v1, -2.0 * v1, v3, 2.0 * v3])
    gammas = np.array([0.04, 0.02, 0.01])
    residuals = np.zeros((len(gammas), 4))
    for k, gamma in enumerate(gammas):
        exact = np.linalg.solve(bh.a_gamma(gamma), v)
        residuals[k] = np.abs(exact - smallgamma_expansion(v, gamma))
    for j, order in enumerate((8, 4, 4, 4)):
        slope = np.polyfit(np.log(gammas), np.log(residuals[:, j]), 1)[0]
        assert abs(slope - order) < 0.3


def test_smallgamma_expansion_requires_structured_vector():
    with pytest.raises(ValueError):
        smallgamma_expansion(np.array([1.0, 1.0, 0.0, 0.0]), 0.1)


def test_boundary_vector_structure():
    rng = np.random.default_rng(34)
    wm = random_weyl(rng)
    wz = random_weyl(rng)
    for case, idx in (("diag-phi", (0, 1, 2)), ("diag-psi", (0, 1)),
                      ("offdiag-phi", (0, 1, 2, 3)), ("offdiag-phi-st", (0, 1)),
                      ("offdiag-psi-st", (0, 1))):
        v = bh.boundary_vector(case, idx, wm, wz, 0.1, 1.5)
        assert v[1] == pytest.approx(-2.0 * v[0], abs=1e-13)
        assert v[3] == pytest.approx(2.0 * v[2], abs=1e-13)


def test_interpolant_boundary_values():
    # the scaled interpolant continues the two quadratic models in C^1
    rng = np.random.default_rng(35)
    wm = random_weyl(rng)
    wz = random_weyl(rng)
    gamma, lam = 0.25, 1.3
    wdot = bh.assemble_interpolant(wm, wz, gamma, lam)
    x_in = gamma * np.array([[0.5, 0.5, 0.5, 0.5]])
    inner = -np.einsum("kijl,nk,nl->nij", wm, x_in, x_in) / 3.0
    inner /= (x_in ** 2).sum() ** 2
    got = wdot.derivative(x_in, 0)
    scale = max(np.abs(inner).max(), 1e-30)
    assert np.abs(got - inner).max() < 1e-9 * scale

    x_out = np.array([[0.5, 0.5, 0.5, 0.5]])
    outer = -lam ** 2 * np.einsum("kijl,nk,nl->nij", wz, x_out, x_out) / 3.0
    got = wdot.derivative(x_out, 0)
    scale = max(np.abs(outer).max(), 1e-30)
    assert np.abs(got - outer).max() < 1e-9 * scale


@pytest.mark.parametrize("lam", [np.nan, np.inf, -1.0])
def test_interpolant_refuses_bad_lam(lam):
    # a non-finite lam would reach leading_bracket as a nan result
    w = random_weyl(np.random.default_rng(17))
    with pytest.raises(ValueError, match="lam must be positive and finite"):
        bh.assemble_interpolant(w, w, 0.1, lam)
    with pytest.raises(ValueError, match="lam must be positive and finite"):
        leading_bracket(w, w, 0.1, lam)


def test_interpolant_tt_and_biharmonic():
    rng = np.random.default_rng(36)
    wm = random_weyl(rng)
    wz = random_weyl(rng)
    wdot = bh.assemble_interpolant(wm, wz, 0.1, 2.0)
    dirs = rng.standard_normal((30, 4))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    x = rng.uniform(0.15, 0.95, (30, 1)) * dirs
    scale = max(np.abs(wdot.derivative(x, 0)).max(), 1e-30)
    assert np.abs(wdot.trace(x)).max() < 1e-12 * scale
    assert np.abs(wdot.divergence(x)).max() < 1e-12 * scale
    # the double trace of the slab d_a d_a d_b d_b, against the slab's scale
    terms = wdot.bilaplacian_terms(x)
    d4scale = max(np.abs(terms).max(), 1e-30)
    assert np.abs(np.einsum("nabij->nij", terms)).max() < 1e-11 * d4scale


def test_harmonic_component_matches_collapsed():
    rng = np.random.default_rng(37)
    wm = random_weyl(rng)
    wz = random_weyl(rng)
    wdot = bh.assemble_interpolant(wm, wz, 0.15, 1.2)
    x = np.array([0.3, -0.2, 0.25, 0.4])
    for i in range(4):
        for j in range(i, 4):
            evaluate = harmonic_component(wm, wz, 0.15, 1.2, i, j)
            direct = wdot.derivative(x[None], 0)[0, i, j]
            scale = max(abs(direct), 1e-30)
            assert abs(evaluate(x) - direct) < 1e-12 * scale


def test_unit_sources_scaling():
    gamma, lam = 0.2, 3.0
    um, uz = bh.unit_sources(gamma, lam)
    assert um[0] == pytest.approx(-gamma ** 2 / 3.0)
    assert um[1] == pytest.approx(2.0 * gamma ** 2 / 3.0)
    assert uz[2] == pytest.approx(-lam ** 2 / 3.0)
    assert uz[3] == pytest.approx(-2.0 * lam ** 2 / 3.0)
