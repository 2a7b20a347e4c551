import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import warnings

from weylglue import energy as en
from weylglue import tensor_core as tc
from weylglue.biharmonic import (PROFILE_POWERS, assemble_interpolant, solve_profile,
                                 unit_sources)
from weylglue.curvature import FieldChart, flat_chart, weyl_density
from weylglue.fields import CurvatureQuadraticField, PolynomialField
from weylglue.gluing import GluingParams, RegimeWarning, model_F, model_H


SPEC = (1.0, 0.0, -1.0)


def pair_tensors():
    w = tc.algweyl_from_spectrum(SPEC, SPEC)
    return w, w.copy()


def random_weyl(rng):
    sd = rng.standard_normal(3)
    asd = rng.standard_normal(3)
    return tc.algweyl_from_spectrum(sd - sd.mean(), asd - asd.mean())


def test_sphere_rule_volume():
    for level in (6, 12, 16):
        _, wts = en.sphere_rule(level)
        assert abs(wts.sum() - en.VOL_S3) < 1e-12


def test_sphere_rule_moment_exactness():
    for mu, nu, k, l in ((0, 0, 0, 0), (0, 1, 0, 1), (2, 3, 2, 3), (0, 1, 2, 3)):
        got = en.sphere_moment_quadrature(mu, nu, k, l, level=12)
        assert got == pytest.approx(en.sphere_moment(mu, nu, k, l), abs=1e-13)


def test_sphere_rule_is_built_once_and_read_only():
    pts, wts = en.sphere_rule(12)
    again = en.sphere_rule(12)
    assert again[0] is pts and again[1] is wts
    for arr in (pts, wts):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_sphere_rule_rejects_low_level():
    with pytest.raises(ValueError):
        en.sphere_rule(1)


def test_radial_rule_bounds():
    with pytest.raises(ValueError):
        en.radial_rule(1.0, 0.5)


def test_sphere_moment_index_validation():
    with pytest.raises(ValueError):
        en.sphere_moment(0, 0, 0, 4)


HALF_LEVELS = range(2, 17)


def test_half_sphere_rule_keeps_one_node_of_each_antipodal_pair():
    for level in HALF_LEVELS:
        pts, wts = en.sphere_rule(level)
        half, half_w = en._half_sphere_rule(level)
        assert 2 * half.shape[0] == pts.shape[0]
        kept, antipode = [], []
        for start in range(0, half.shape[0], 512):
            dots = half[start:start + 512] @ pts.T
            kept.extend(np.argmax(dots, axis=1))
            antipode.extend(np.argmin(dots, axis=1))
        kept, antipode = np.array(kept), np.array(antipode)
        assert np.abs(pts[kept] - half).max() == 0.0
        assert np.abs(pts[antipode] + half).max() <= 2e-15
        # every node of the full rule is kept or the antipode of a kept one
        assert np.unique(np.concatenate([kept, antipode])).size == pts.shape[0]
        assert np.abs(wts[antipode] - wts[kept]).max() <= 1e-15 * wts.max()
        assert np.array_equal(half_w, 2.0 * wts[kept])


def test_half_sphere_rule_volume():
    for level in HALF_LEVELS:
        _, half_w = en._half_sphere_rule(level)
        assert abs(half_w.sum() - en.VOL_S3) < 1e-12


def test_half_sphere_rule_matches_full_rule_on_even_integrands():
    exponents = [e for e in np.ndindex((7,) * 4) if sum(e) == 6]
    for level in HALF_LEVELS:
        rules = [en.sphere_rule(level), en._half_sphere_rule(level)]
        full, half = ([np.sum(w * np.prod(x ** np.array(e), axis=1)) for e in exponents]
                      for x, w in rules)
        assert np.abs(np.array(full) - np.array(half)).max() <= 1e-13


def test_half_sphere_rule_degree_four_moments():
    # the full rule is exact at degree 4 from level 3 on
    exact = np.array([en.sphere_moment(*idx) for idx in np.ndindex((4,) * 4)])
    for level in HALF_LEVELS[1:]:
        x, w = en._half_sphere_rule(level)
        got = np.einsum("n,na,nb,nc,nd->abcd", w, x, x, x, x).ravel()
        assert np.abs(got - exact).max() <= 1e-13


def _breakdown_keys(*sides):
    return {"bulk"} | {f"{side}_{key}" for side in sides for key in en._BOUNDARY_KEYS}


def test_boundary_forms_agree_on_ball():
    rng = np.random.default_rng(51)
    h = model_H(random_weyl(rng))
    a, b = (en.second_variation(h, ("ball", 1.0), form=form) for form in ("bilap", "biharm"))
    assert abs(a.value - b.value) < 1e-10 * max(abs(a.value), 1.0)
    for phi in (a, b):
        assert phi.breakdown.keys() == _breakdown_keys("outer")


def test_boundary_forms_agree_on_annulus():
    # F has nonvanishing Laplacian, so this exercises the genuine bulk term
    rng = np.random.default_rng(52)
    F = model_F(random_weyl(rng))
    a, b = (en.second_variation(F, ("annulus", 0.5, 2.0), form=form)
            for form in ("bilap", "biharm"))
    assert abs(a.value - b.value) < 1e-10 * max(abs(a.value), 1.0)
    for phi in (a, b):
        assert phi.breakdown.keys() == _breakdown_keys("inner", "outer")


def test_second_variation_rejects_non_tt():
    from weylglue.fields import model_field
    kn = tc.kulkarni_nomizu(np.eye(4), np.eye(4))
    h = model_field(kn, 1.0, 0.0)
    with pytest.raises(ValueError):
        en.second_variation(h, ("ball", 1.0))


def test_second_variation_rejects_unknown_domain():
    h = model_H(random_weyl(np.random.default_rng(53)))
    with pytest.raises(ValueError, match="unknown domain"):
        en.second_variation(h, ("exterior", 1.0))


def test_second_variation_positive_for_models():
    rng = np.random.default_rng(54)
    assert en.second_variation(model_H(random_weyl(rng)), ("ball", 1.0)).value > 0.0


def test_interaction_fit_is_exact_quadratic():
    wm, wz = pair_tensors()
    out = en.extract_interaction_coefficient(wm, wz, gamma=0.1,
                                             lam_grid=(1.0, 2.0, 3.0, 4.0))
    assert out["fit_residual"] < 1e-8


def test_interaction_coefficient_prediction():
    wm, wz = pair_tensors()
    out = en.extract_interaction_coefficient(wm, wz, gamma=0.02)
    predicted = -(2.0 / 9.0) * np.pi ** 2 * 24.0
    assert out["coeff_inner"] == pytest.approx(predicted, rel=0.01)
    assert out["coeff_outer"] == pytest.approx(predicted, rel=0.01)


def test_energy_balance_decomposition():
    wm, wz = pair_tensors()
    params = GluingParams(a=2e-5, lam=2.0, gamma=0.02)
    bal = en.energy_balance(wm, wz, params)
    assert bal.interaction == pytest.approx(24.0, rel=1e-10)
    assert bal.leading_bracket < 0.0
    predicted = bal.constant_C - (4.0 / 9.0) * np.pi ** 2 * 4.0 * 24.0
    assert bal.leading_bracket == pytest.approx(predicted, rel=1e-4)


def test_energy_balance_zero_wz_is_constant():
    wm, _ = pair_tensors()
    params = GluingParams(a=2e-5, lam=2.0, gamma=0.02)
    bal = en.energy_balance(wm, np.zeros((4, 4, 4, 4)), params)
    assert bal.interaction == 0.0
    assert bal.leading_bracket == pytest.approx(bal.constant_C, rel=1e-12)


def test_choose_parameters_margin_monotone():
    wm, wz = pair_tensors()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        p1 = en.choose_parameters(wm, wz, margin=1.0)
        p10 = en.choose_parameters(wm, wz, margin=10.0)
    assert p10.lam >= p1.lam
    assert en.leading_bracket(wm, wz, p1.gamma, p1.lam) < -1.0


def test_choose_parameters_rejects_degenerate():
    wm, _ = pair_tensors()
    with pytest.raises(ValueError):
        en.choose_parameters(wm, np.zeros((4, 4, 4, 4)))


def test_rough_bound_flat_chart_is_zero():
    out = en.rough_energy_bound(flat_chart(), 0.5, 1.0)
    assert out["value"] == 0.0


def test_rough_bound_dominates_numeric_energy():
    rng = np.random.default_rng(55)
    from weylglue.curvature import FieldChart
    chart = FieldChart(model_H(random_weyl(rng)), scale=0.05,
                       r_max=3.0)
    bound = en.rough_energy_bound(chart, 0.3, 1.0)["value"]
    numeric = en.weyl_energy_numeric(chart, 0.3, 1.0, level=6, n_radial=8)
    assert bound >= numeric


def test_truncation_slope_of_numeric_energy():
    rng = np.random.default_rng(56)
    from weylglue.curvature import FieldChart
    h = model_H(random_weyl(rng))
    phi = en.second_variation(h, ("ball", 1.0), form="bilap").value
    ts = np.geomspace(1e-3, 1e-2, 4)
    res = []
    for t in ts:
        chart = FieldChart(h, scale=t, r_max=2.0)
        res.append(abs(en.weyl_energy_numeric(chart, 0.0, 1.0, level=8,
                                              n_radial=12) - t * t * phi))
    slope = np.polyfit(np.log(ts), np.log(res), 1)[0]
    assert slope >= 2.7


@pytest.mark.parametrize("make_h, ts", [
    (model_F, [1e-3]),
    (lambda w: CurvatureQuadraticField([(1.0, w, 0.0), (1.0, w, -4.0)]), [1e-3]),
    (lambda w: PolynomialField(c2=np.ones((4, 4, 4, 4))), [1e-3]),
    (model_H, []),
    (model_H, [1e-3, np.nan]),
    (model_H, [np.inf]),
    (model_H, [0.0, 1e-3]),
    (model_H, [-1e-3]),
])
def test_dilation_energy_rejects_bad_input(make_h, ts):
    h = make_h(random_weyl(np.random.default_rng(61)))
    with pytest.raises(ValueError):
        en.dilation_energy(h, ts)


def test_weyl_density_dilation_identity():
    # delta + t h at r y is the dilation of delta + t r^2 h at y, and
    # |W|^2 dV is conformally invariant in dimension 4
    h = model_H(random_weyl(np.random.default_rng(62)))
    y, _ = en.sphere_rule(3)
    for t, r in ((1e-2, 0.5), (3e-3, 0.9), (0.1, 0.2)):
        near = weyl_density(FieldChart(h, scale=t), r * y)
        unit = r ** -4 * weyl_density(FieldChart(h, scale=t * r * r), y)
        assert np.abs(near - unit).max() <= 1e-13 * np.abs(unit).max()


def test_dilation_energy_matches_numeric_energy():
    h = model_H(random_weyl(np.random.default_rng(63)))
    ts = [2e-3, 1e-2]
    got = en.dilation_energy(h, ts, level=8)
    for t, e in zip(ts, got):
        want = en.weyl_energy_numeric(FieldChart(h, scale=t), 0.0, 1.0, level=8,
                                      n_radial=12)
        assert e == pytest.approx(want, rel=1e-12)


def test_dilation_slope_at_zero_is_second_variation():
    # E(t) = (1/2) int_0^t G with G(s) = F(s) / s, so Phi = G'(0) / 4: an
    # oracle for the boundary forms that integrates no boundary term
    h = model_H(random_weyl(np.random.default_rng(64)))
    pts, wts = en.sphere_rule(10)
    x, _ = np.polynomial.legendre.leggauss(en.DILATION_NODES)
    s = 0.5e-2 * (x + 1.0)
    g = [np.sum(wts * weyl_density(FieldChart(h, scale=si), pts)) / si for si in s]
    fit = np.polynomial.Legendre.fit(s, g, en.DILATION_NODES - 1, domain=[0.0, 1e-2])
    phi = en.second_variation(h, ("ball", 1.0), form="bilap").value
    assert fit.deriv()(0.0) / 4.0 == pytest.approx(phi, rel=1e-11)


@pytest.mark.parametrize("level", [7, 10])
def test_dilation_energy_half_rule_equals_full_rule(level, monkeypatch):
    h = model_H(random_weyl(np.random.default_rng(65)))
    ts = np.geomspace(1e-3, 1e-2, 5)
    half = en.dilation_energy(h, ts, level=level)
    monkeypatch.setattr(en, "_half_sphere_rule", en.sphere_rule)
    full = en.dilation_energy(h, ts, level=level)
    assert np.abs(half - full).max() <= 1e-13 * np.abs(full).max()


@pytest.mark.parametrize("form", ["bilap", "biharm"])
def test_bulk_integral_half_rule_equals_full_rule(form, monkeypatch):
    # powers 0, -4 and 4: the last is not biharmonic, so neither form vanishes
    w = random_weyl(np.random.default_rng(66))
    h = CurvatureQuadraticField([(1.0, w, 0.0), (0.5, w, -4.0), (0.3, w, 4.0)])
    half = en._bulk_integral(h, 0.5, 2.0, form)
    monkeypatch.setattr(en, "_half_sphere_rule", en.sphere_rule)
    full = en._bulk_integral(h, 0.5, 2.0, form)
    assert abs(full) > 1.0
    assert half == pytest.approx(full, rel=1e-13)


def test_phi_boundary_terms_reported():
    wm, wz = pair_tensors()
    out = en.phi_inner(assemble_interpolant(wm, wz, 0.1, 2.0), 0.1)
    assert set(out.breakdown) == {"h_d3", "hess_ij", "cross", "hess_ab", "lap_rad"}
    assert out.sign == -1.0


# ---------------------------------------------------------------------------
# exact oracle for the bracket

#: K(p, q) of the bilap boundary functional: a pair of field terms
#: c_t W_t x x |x|^p_t and c_u W_u x x |x|^p_u contributes
#: s c_t c_u <W_t, W_u> pi^2 K(p_t, p_u) r^(p_t + p_u + 4) on the sphere of
#: radius r with sign s.  Derived exactly with sympy polynomial arithmetic
#: and S^3 moments; K vanishes for every mixed {-6, -4} x {0, 2} pair.
_K = {(-6, -6): -9.0, (-6, -4): -6.0, (-4, -4): -4.5,
      (0, 0): 4.5, (0, 2): 6.0, (2, 2): 9.0}


def _exact_bilap(terms, r, sign):
    return sum(sign * ct * cu * float(np.sum(wt * wu)) * np.pi ** 2
               * _K.get((min(pt, pu), max(pt, pu)), 0.0) * r ** (pt + pu + 4)
               for ct, wt, pt in terms for cu, wu, pu in terms)


def _exact_bracket(wm, wz, gamma, lam):
    interp = [(c, w, p - 2.0) for w, u in zip((wm, wz), unit_sources(gamma, lam))
              for c, p in zip(solve_profile(gamma, u), PROFILE_POWERS)]
    return (_exact_bilap(interp, gamma, -1.0) + _exact_bilap(interp, 1.0, 1.0)
            - _exact_bilap([(-1.0 / 3.0, wm, -4.0)], gamma, -1.0)
            - lam ** 4 * _exact_bilap([(-1.0 / 3.0, wz, 0.0)], 1.0, 1.0))


@pytest.mark.parametrize("gamma", [0.3, 0.08])
def test_leading_bracket_matches_exact_invariant_form(gamma):
    """The level-12 quadrature bracket against the closed K-table form.

    The error is measured against the largest term of the balance,
    max(|C|, (4/9) pi^2 lam^2 |W * W|, |bracket|).  At gamma = 0.3 and 0.08
    the quadrature agrees to about 1e-14 and 2e-12 of it.  Smaller gamma
    loses digits to cancellation: at gamma = 0.02 the quadrature drifts by
    about 2e-9 (4e-10 for this pair), so it is not asserted there.
    """
    rng = np.random.default_rng(57)
    wm, wz = random_weyl(rng), random_weyl(rng)
    lam = 2.0
    exact = _exact_bracket(wm, wz, gamma, lam)
    exact_c = _exact_bracket(wm, np.zeros((4,) * 4), gamma, lam)
    largest = max(abs(exact_c), abs(exact),
                  (4.0 / 9.0) * np.pi ** 2 * lam ** 2 * abs(en.interaction_star(wm, wz)))
    assert abs(en.leading_bracket(wm, wz, gamma, lam) - exact) < 1e-11 * largest


# ---------------------------------------------------------------------------
# repeated boundary quadratures are evaluated once

def test_constant_bracket_is_independent_of_lam():
    wm, _ = pair_tensors()
    zero = np.zeros((4,) * 4)
    assert en.leading_bracket(wm, zero, 0.08, 1.0) == en.leading_bracket(wm, zero, 0.08, 3.1)


@pytest.mark.parametrize("gamma", en.GAMMA_GRID)
def test_constant_C_equals_interaction_free_bracket(gamma):
    rng = np.random.default_rng(70)
    zero = np.zeros((4,) * 4)
    for _ in range(3):
        wm = random_weyl(rng)
        c_const = en.constant_C(wm, gamma)
        for lam in (1.0, 3.1):
            assert c_const == en.leading_bracket(wm, zero, gamma, lam)


@pytest.mark.parametrize("gamma", en.GAMMA_GRID + (0.3,))
def test_interaction_free_outer_functional_vanishes(gamma):
    # the W^M-only interpolant has zero data on |x| = 1, so phi_outer is
    # roundoff, far below phi_inner; constant_C leaves it out
    rng = np.random.default_rng(71)
    for _ in range(3):
        wdot = assemble_interpolant(random_weyl(rng), np.zeros((4,) * 4), gamma, 1.0)
        inner = en.phi_inner(wdot, gamma).value
        assert abs(en.phi_outer(wdot).value) <= 1e-12 * abs(inner)


def test_constant_C_at_large_gamma_agrees_with_the_bracket():
    # at gamma = 0.3 the inner term is small enough that the dropped
    # roundoff of phi_outer may show in the last bits
    rng = np.random.default_rng(72)
    zero = np.zeros((4,) * 4)
    for _ in range(3):
        wm = random_weyl(rng)
        want = en.leading_bracket(wm, zero, 0.3, 1.0)
        assert abs(en.constant_C(wm, 0.3) - want) <= 1e-13 * abs(want)


def test_zero_tensor_term_changes_no_derivative():
    rng = np.random.default_rng(58)
    w1, w2 = random_weyl(rng), random_weyl(rng)
    terms = [(0.7, w1, -4.0), (-1.3, w2, 2.0)]
    plain = CurvatureQuadraticField(terms)
    padded = CurvatureQuadraticField(terms[:1] + [(2.5, np.zeros((4,) * 4), -6.0)] + terms[1:])
    x = rng.uniform(0.2, 1.0, (7, 1)) * rng.standard_normal((7, 4))
    for order in range(5):
        assert np.array_equal(padded.derivative(x, order), plain.derivative(x, order))


def test_energy_balance_reuses_selection_quadratures(monkeypatch):
    # the selection measures C at the smallest gamma of the grid; when it
    # also selects that gamma, energy_balance repeats only integrals it made
    wm, _ = pair_tensors()
    wz = 0.3 * wm
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        params = en.choose_parameters(wm, wz, margin=1.0)
    assert params.gamma == en.GAMMA_GRID[-1]
    calls = []
    original = CurvatureQuadraticField.jet

    def counting(self, x, slab=False):
        if slab:
            calls.append(len(self.terms))
        return original(self, x, slab)

    monkeypatch.setattr(CurvatureQuadraticField, "jet", counting)
    en.energy_balance(wm, wz, params)
    assert calls == []


def test_energy_balance_integrates_no_sphere_twice(monkeypatch):
    # the same reuse counted at the quadrature itself: the boundary jet
    # forms no full third derivative, so counting those sees nothing
    wm, _ = pair_tensors()
    wz = 0.3 * wm
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        params = en.choose_parameters(wm, wz, margin=1.0)
    assert params.gamma == en.GAMMA_GRID[-1]
    calls = []
    original = en._boundary_quadrature

    def counting(h, r, level=12):
        calls.append(r)
        return original(h, r, level)

    monkeypatch.setattr(en, "_boundary_quadrature", counting)
    en.energy_balance(wm, wz, params)
    assert calls == []


def test_balance_makes_five_boundary_quadratures(monkeypatch):
    # selection then balance at gamma = 0.02: C is phi_inner of the W^M-only
    # interpolant and the inner model, the bracket adds the interpolant's
    # two spheres and the outer model; everything else is a cache hit
    wm, _ = pair_tensors()
    wz = 0.3 * wm
    en._boundary_terms.cache_clear()
    calls = []
    original = en._boundary_quadrature

    def counting(h, r, level=12):
        calls.append((len(h.terms), r, level))
        return original(h, r, level)

    monkeypatch.setattr(en, "_boundary_quadrature", counting)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        params = en.choose_parameters(wm, wz, margin=1.0)
    en.energy_balance(wm, wz, params)
    assert params.gamma == 0.02
    assert calls == [(4, 0.02, 12), (1, 0.02, 12), (8, 0.02, 12), (8, 1.0, 12),
                     (1, 1.0, 12)]


def test_breakdown_mutation_does_not_leak():
    rng = np.random.default_rng(59)
    h = model_H(random_weyl(rng))
    en._boundary_terms.cache_clear()
    first = en.boundary_functional(h, 1.0)
    expected = dict(first.breakdown)
    for _ in range(2):
        # the first call fills the cache, the second reads it
        with pytest.raises(TypeError):
            en.boundary_functional(h, 1.0).breakdown["h_d3"] = 1e300
    again = en.boundary_functional(h, 1.0)
    assert again.breakdown == expected
    assert again.value == first.value
    with pytest.raises(TypeError):
        en.second_variation(h, ("ball", 1.0)).breakdown["bulk"] = 0.0


def test_boundary_cache_is_thread_safe():
    # more threads than cores, a short switch interval and a cleared cache
    # every few lookups, so hits, misses and clears interleave
    rng = np.random.default_rng(60)
    fields = [model_H(random_weyl(rng)) for _ in range(3)]
    expected = [en._boundary_quadrature(h, 1.0, 2) for h in fields]

    def work(k):
        ok = True
        for i in range(200):
            if (i + k) % 5 == 0:
                en._boundary_terms.cache_clear()
            ok &= en._boundary_terms(fields[(i + k) % 3], 1.0, 2) == expected[(i + k) % 3]
        return ok

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(work, range(8), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert all(results)
    assert en._boundary_terms.cache_info().currsize <= 3


@pytest.mark.parametrize("chunk", [1, 7, 2 * 12 ** 3])
def test_boundary_quadrature_is_chunk_invariant(monkeypatch, chunk):
    # each integrand value depends on its own point alone, so the chunk
    # size of the sphere loop changes no bit of any boundary integral
    rng = np.random.default_rng(62)
    wm, wz = random_weyl(rng), random_weyl(rng)
    wdot = assemble_interpolant(wm, wz, 0.02, 3.0)
    # the bracket's own sphere at level 12, the others at level 8 for time
    cases = [(wdot, 0.02, 12), (wdot, 1.0, 8), (model_F(wm), 0.02, 8),
             (model_H(wz), 1.0, 8), (CurvatureQuadraticField([]), 1.0, 8)]
    expected = [en._boundary_quadrature(*case) for case in cases]
    monkeypatch.setattr(en, "SPHERE_CHUNK", chunk)
    for case, want in zip(cases, expected):
        assert en._boundary_quadrature(*case) == want


def test_other_sphere_loops_are_chunk_invariant(monkeypatch):
    rng = np.random.default_rng(63)
    w = random_weyl(rng)
    h, f = model_H(w), model_F(w)

    def run():
        return (en.dilation_energy(h, [0.01, 0.1], level=6).tolist(),
                en._bulk_integral(f, 0.5, 2.0, "biharm", level=6, n_radial=4),
                en.weyl_energy_numeric(FieldChart(h, scale=0.2), 0.0, 1.0, level=4, n_radial=4))

    expected = run()
    monkeypatch.setattr(en, "SPHERE_CHUNK", 7)
    assert run() == expected


#: pool-1/p07 of the benchmark inputs (its "sd"/"asd" spectra) and the
#: parameters ``choose_parameters`` selects for it at margin 1.0
P07_M = ([1.3968784634435116, -0.2034982863551386, -1.193380177088373],
         [-0.370545939521914, -1.030264479235384, 1.4008104187572978])
P07_Z = ([-0.24691610606420947, -0.03735294596532606, 0.2842690520295355],
         [-0.8198068314937882, -1.6065296561342064, 2.4263364876279945])
P07_PARAMS = dict(a=2e-05, lam=2.6031259117448755, gamma=0.02)


def test_energy_balance_does_not_drift():
    """The level-12 quadrature's numbers for pool-1/p07, pinned.

    C at gamma = 0.02 is the difference of two boundary functionals of
    about 1.26e9, so one ulp of drift in either is about 2.4e-10 of the
    largest term; the tolerance 1e-12 catches it.  The values are the
    quadrature's, not exact: ROADMAP item 2 replaces them with exact mpmath
    values of the closed form.
    """
    wm, wz = (tc.algweyl_from_spectrum(*tc.spectrum_from_json({"sd": sd, "asd": asd}))
              for sd, asd in (P07_M, P07_Z))
    got = en.energy_balance(wm, wz, GluingParams(**P07_PARAMS)).to_json()
    want = {"leading_bracket": -575.1815459245245,
            "constant_C": 259.68372905254364,
            "interaction": 28.087274288640124,
            "interaction_term": -834.866765797587,
            "remainder": 0.0014908205189385626}
    scale = max(abs(v) for v in want.values())
    for key, value in want.items():
        assert abs(got[key] - value) <= 1e-12 * scale, key
