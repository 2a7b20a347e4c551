"""End-to-end acceptance checks, one test per headline claim.

Each test exercises a full pipeline at desk scale with the tolerances
stated inline; together they certify the package against its contract:
exact sphere quadrature, verified linearizations, the biharmonic
interpolant, the TT structure, the second-variation boundary forms, the
interaction identity and its positivity, the fitted interaction
coefficient, the negative energy bracket, the inversion expansion, and
the cutoff-region scaling.
"""

import numpy as np
import pytest
import warnings

from weylglue import biharmonic as bh
from weylglue import curvature as cv
from weylglue import duality
from weylglue import energy as en
from weylglue import gluing as gl
from weylglue import tensor_core as tc
from weylglue.fields import PolynomialField

from oracles import (harmonic_component, rough_energy_bound, smallgamma_expansion,
                     weyl_energy_numeric)
from random_tensors import random_weyl


def random_pair(rng):
    return random_weyl(rng), random_weyl(rng)


def test_sphere_moments_exact():
    pts, wts = en.sphere_rule(16)
    assert abs(float(wts.sum()) - 2.0 * np.pi ** 2) < 1e-12
    worst = 0.0
    for mu in range(4):
        for nu in range(4):
            for k in range(4):
                for l in range(4):
                    q = float(np.sum(wts * pts[:, mu] * pts[:, nu]
                                     * pts[:, k] * pts[:, l]))
                    worst = max(worst, abs(q - en.sphere_moment(mu, nu, k, l)))
    assert worst < 1e-10


def test_linearized_curvature_matches_finite_differences():
    rng = np.random.default_rng(101)
    quantities = ["inv", "gamma", "riem13", "riem04", "ric", "scal", "weyl"]
    for _ in range(20):
        field = PolynomialField.random(rng, scale=0.05)
        chart = cv.FieldChart(field)
        h = PolynomialField.random(rng, scale=1.0)
        x = 0.2 * rng.standard_normal(4)
        lin = cv.linearize_curvature(chart, h, x)
        fds = cv.fd_linearize(chart, h, x)
        for q in quantities:
            fd = fds[q + "_dot"]
            scale = max(np.abs(fd).max(), 1.0)
            assert np.abs(np.asarray(lin[q + "_dot"]) - fd).max() < 1e-6 * scale


def test_biharmonic_interpolation_system():
    rng = np.random.default_rng(102)
    exp_gammas = np.array([0.04, 0.02, 0.01])
    for _ in range(50):
        wm, wz = random_pair(rng)
        lam = float(rng.uniform(0.5, 3.0))
        # unit-scale weights keep the inner and outer data comparable, so
        # the leading residual order of each coefficient is the visible one
        v = bh.boundary_vector("offdiag-phi", (0, 1, 2, 3), wm, wz, 1.0, 1.0)
        for gamma in (0.3, 0.1, 0.02):
            v_g = bh.boundary_vector("offdiag-phi", (0, 1, 2, 3), wm, wz,
                                     gamma, lam)
            c_closed = bh.solve_profile(gamma, v_g)
            c_direct = np.linalg.solve(bh.a_gamma(gamma), v_g)
            scale = max(np.abs(c_direct).max(), 1e-30)
            assert np.abs(c_closed - c_direct).max() < 1e-11 * scale

            vscale = max(np.abs(v_g).max(), 1e-30)
            assert gamma ** 4 * bh.radial_profile(c_closed, gamma) \
                == pytest.approx(v_g[0], abs=1e-10 * vscale)
            assert gamma ** 5 * bh.radial_profile(c_closed, gamma, deriv=1) \
                == pytest.approx(v_g[1], abs=1e-10 * vscale)
            assert bh.radial_profile(c_closed, 1.0) \
                == pytest.approx(v_g[2], abs=1e-10 * vscale)
            assert bh.radial_profile(c_closed, 1.0, deriv=1) \
                == pytest.approx(v_g[3], abs=1e-10 * vscale)

            wdot = bh.assemble_interpolant(wm, wz, gamma, lam)
            dirs = rng.standard_normal((100, 4))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            x = (gamma + rng.uniform(0.02, 0.98, (100, 1)) * (1.0 - gamma)) * dirs
            # the double trace of the slab d_a d_a d_b d_b, against its scale
            terms = wdot.bilaplacian_terms(x)
            d4scale = max(np.abs(terms).max(), 1e-30)
            assert np.abs(np.einsum("nabij->nij", terms)).max() < 1e-9 * d4scale

        # truncation orders of the small-gamma coefficient expansion
        residuals = np.zeros((len(exp_gammas), 4))
        for k, gamma in enumerate(exp_gammas):
            exact = np.linalg.solve(bh.a_gamma(gamma), v)
            residuals[k] = np.abs(exact - smallgamma_expansion(v, gamma))
        for j, order in enumerate((8, 4, 4, 4)):
            slope = np.polyfit(np.log(exp_gammas), np.log(residuals[:, j]), 1)[0]
            assert abs(slope - order) < 0.3


def test_interpolant_is_transverse_traceless():
    rng = np.random.default_rng(103)
    for _ in range(50):
        wm, wz = random_pair(rng)
        gamma = float(rng.uniform(0.05, 0.35))
        lam = float(rng.uniform(0.5, 3.0))
        wdot = bh.assemble_interpolant(wm, wz, gamma, lam)
        dirs = rng.standard_normal((100, 4))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        x = (gamma + rng.uniform(0.02, 0.98, (100, 1)) * (1.0 - gamma)) * dirs
        scale = max(np.abs(wdot.derivative(x, 0)).max(), 1e-30)
        assert np.abs(wdot.trace(x)).max() < 1e-10 * scale
        assert np.abs(wdot.divergence(x)).max() < 1e-10 * scale

        # harmonic-sum representation against the collapsed evaluation
        point = x[0]
        direct = wdot.derivative(point[None], 0)[0]
        dscale = max(np.abs(direct).max(), 1e-30)
        for i in range(4):
            for j in range(i, 4):
                evaluate = harmonic_component(wm, wz, gamma, lam, i, j)
                assert abs(evaluate(point) - direct[i, j]) < 1e-12 * dscale


def test_second_variation_boundary_forms():
    rng = np.random.default_rng(104)
    h = gl.model_H(random_weyl(rng))
    a = en.second_variation(h, ("ball", 1.0), form="bilap")
    b = en.second_variation(h, ("ball", 1.0), form="biharm")
    assert abs(a - b) < 1e-10 * max(abs(a), 1.0)
    F = gl.model_F(random_weyl(rng))
    c = en.second_variation(F, ("annulus", 0.4, 1.6), form="bilap")
    d = en.second_variation(F, ("annulus", 0.4, 1.6), form="biharm")
    assert abs(c - d) < 1e-10 * max(abs(c), 1.0)

    # quadratic model: energy of delta + t H deviates from t^2 Phi at order > t^2
    ts = np.geomspace(1e-3, 1e-2, 4)
    res = []
    for t in ts:
        chart = cv.FieldChart(h, scale=t, r_max=2.0)
        numeric = weyl_energy_numeric(chart, 0.0, 1.0, level=8, n_radial=12)
        res.append(abs(numeric - t * t * a))
    slope = np.polyfit(np.log(ts), np.log(res), 1)[0]
    assert slope >= 2.7


def test_interaction_identity_and_positivity():
    rng = np.random.default_rng(105)
    for _ in range(1000):
        wm, wz = random_pair(rng)
        flags = duality.positivity_bound(wm, wz)
        out = duality.align_and_interact(wm, wz)
        # realized pairing equals 6 sum of sorted eigenvalue products
        assert abs(out["value"] - flags["aligned_value"]) < 1e-10
        # and equals (3/2) times the full tensor inner product of the pair
        inner = np.einsum("ijkl,ijkl->", out["aligned_m"], out["aligned_z"])
        assert abs(out["value"] - 1.5 * inner) < 1e-10
        assert out["value"] >= flags["bound"] - 1e-10

    sd_only = tc.algweyl_from_spectrum((2.0, -1.0, -1.0), (0.0, 0.0, 0.0))
    asd_only = tc.algweyl_from_spectrum((0.0, 0.0, 0.0), (1.0, 1.0, -2.0))
    flags = duality.positivity_bound(sd_only, asd_only)
    assert flags["excluded_case"]
    assert flags["aligned_value"] == 0.0


def test_interaction_coefficient_fit():
    w = tc.algweyl_from_spectrum((1.0, 0.0, -1.0), (1.0, 0.0, -1.0))
    predicted = -(2.0 / 9.0) * np.pi ** 2 * 24.0
    fits = {}
    for gamma in (0.04, 0.02):
        out = en.extract_interaction_coefficient(w, w, gamma=gamma)
        fits[gamma] = out
    inner = fits[0.02]["coeff_inner"]
    outer = fits[0.02]["coeff_outer"]
    assert abs(inner - predicted) < 0.01 * abs(predicted)
    assert abs(outer - predicted) < 0.01 * abs(predicted)
    assert abs(inner - outer) < 0.02 * abs(predicted)
    # deviation from the limit shrinks at least quadratically in gamma
    dev = {g: max(abs(fits[g]["coeff_inner"] - predicted),
                  abs(fits[g]["coeff_outer"] - predicted)) for g in fits}
    assert dev[0.02] < dev[0.04] / 3.0


def test_gluing_mechanism_negative_bracket():
    w = tc.algweyl_from_spectrum((1.0, 0.0, -1.0), (1.0, 0.0, -1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", gl.RegimeWarning)
        params = en.choose_parameters(w, w.copy(), margin=1.0)
        bal = en.energy_balance(w, w.copy(), params)
    assert bal.leading_bracket < -1.0

    sd_only = tc.algweyl_from_spectrum((2.0, -1.0, -1.0), (0.0, 0.0, 0.0))
    asd_only = tc.algweyl_from_spectrum((0.0, 0.0, 0.0), (1.0, 1.0, -2.0))
    assert duality.interaction_star(sd_only, asd_only) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        en.choose_parameters(sd_only, asd_only)


def test_inversion_pullback_expansion():
    rng = np.random.default_rng(106)
    wm = random_weyl(rng)
    y = np.array([1.4, -0.6, 0.8, 0.3])
    out = gl.invert_pullback(wm, y)
    assert np.abs(out["pullback"] - out["model"]).max() < 1e-12
    assert np.abs(out["residual"]).max() < 1e-12

    radii = np.array([2.0, 4.0, 8.0, 16.0])
    res = []
    for r in radii:
        point = r * np.array([0.5, 0.5, 0.5, 0.5])
        cubic = gl.invert_pullback(wm, point, cubic_scale=1.0,
                                   rng=np.random.default_rng(9))
        res.append(np.abs(cubic["residual"]).max())
    slope = np.polyfit(np.log(radii), np.log(res), 1)[0]
    assert slope <= -2.7


def test_cutoff_region_scaling():
    rng = np.random.default_rng(107)
    wm, wz = random_pair(rng)
    rows = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", gl.RegimeWarning)
        for gamma in (0.08, 0.04, 0.02):
            for a in (1e-6, 2e-6, 4e-6):
                params = gl.GluingParams(a=a, lam=2.0, gamma=gamma)
                chart = gl.GluedChart(wm, wz, params)
                r0 = gamma - np.sqrt(a)
                bound = rough_energy_bound(chart, r0, gamma,
                                              level=6, n_radial=10)
                numeric = weyl_energy_numeric(chart, r0, gamma,
                                                 level=6, n_radial=10)
                assert bound >= numeric
                rows.append((a, gamma, bound))
    design = np.column_stack([np.ones(len(rows)),
                              np.log([r[0] for r in rows]),
                              np.log([r[1] for r in rows])])
    target = np.log([r[2] for r in rows])
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    assert abs(coef[1] - 4.5) < 0.3
    assert abs(coef[2] + 5.0) < 0.3
