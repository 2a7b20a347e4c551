import sys
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import warnings
from types import SimpleNamespace

from weylglue import energy as en
from weylglue import tensor_core as tc
from weylglue.biharmonic import PROFILE_POWERS, assemble_interpolant
from weylglue.curvature import flat_chart
from weylglue.fields import CurvatureQuadraticField
from weylglue.gluing import GluingParams, RegimeWarning, model_F, model_H


SPEC = (1.0, 0.0, -1.0)


def pair_tensors():
    w = tc.algweyl_from_spectrum(SPEC, SPEC).tensor
    return w, w.copy()


def random_weyl(rng):
    sd = rng.standard_normal(3)
    asd = rng.standard_normal(3)
    return tc.algweyl_from_spectrum(sd - sd.mean(), asd - asd.mean()).tensor


def test_sphere_rule_volume():
    for level in (6, 12, 16):
        _, wts = en.sphere_rule(level)
        assert abs(wts.sum() - en.VOL_S3) < 1e-12


def test_sphere_rule_moment_exactness():
    for mu, nu, k, l in ((0, 0, 0, 0), (0, 1, 0, 1), (2, 3, 2, 3), (0, 1, 2, 3)):
        got = en.sphere_moment_quadrature(mu, nu, k, l, level=12)
        assert got == pytest.approx(en.sphere_moment(mu, nu, k, l), abs=1e-13)


def test_sphere_rule_rejects_low_level():
    with pytest.raises(ValueError):
        en.sphere_rule(1)


def test_radial_rule_bounds():
    with pytest.raises(ValueError):
        en.radial_rule(1.0, 0.5)


def test_sphere_moment_index_validation():
    with pytest.raises(ValueError):
        en.sphere_moment(0, 0, 0, 4)


def test_boundary_forms_agree_on_ball():
    rng = np.random.default_rng(51)
    h = model_H(random_weyl(rng))
    a = en.second_variation(h, ("ball", 1.0), form="bilap").value
    b = en.second_variation(h, ("ball", 1.0), form="biharm").value
    assert abs(a - b) < 1e-10 * max(abs(a), 1.0)


def test_boundary_forms_agree_on_annulus():
    # F has nonvanishing Laplacian, so this exercises the genuine bulk term
    rng = np.random.default_rng(52)
    F = model_F(random_weyl(rng))
    a = en.second_variation(F, ("annulus", 0.5, 2.0), form="bilap").value
    b = en.second_variation(F, ("annulus", 0.5, 2.0), form="biharm").value
    assert abs(a - b) < 1e-10 * max(abs(a), 1.0)


def test_second_variation_rejects_non_tt():
    from weylglue.fields import model_field
    kn = tc.kulkarni_nomizu(np.eye(4), np.eye(4))
    h = model_field(kn, 1.0, 0.0)
    with pytest.raises(ValueError):
        en.second_variation(h, ("ball", 1.0))


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
    assert bal.cutoff_region_term == 0.0


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
    chart = FieldChart(model_H(random_weyl(rng)), scale=0.05, kind="custom",
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
        chart = FieldChart(h, scale=t, kind="custom", r_max=2.0)
        res.append(abs(en.weyl_energy_numeric(chart, 0.0, 1.0, level=8,
                                              n_radial=12) - t * t * phi))
    slope = np.polyfit(np.log(ts), np.log(res), 1)[0]
    assert slope >= 2.7


def test_phi_boundary_terms_reported():
    wm, wz = pair_tensors()
    interp = assemble_interpolant(wm, wz, SimpleNamespace(gamma=0.1, lam=2.0))
    out = en.phi_inner(interp)
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
    it = assemble_interpolant(wm, wz, SimpleNamespace(gamma=gamma, lam=lam))
    interp = ([(c, wm, p - 2.0) for c, p in zip(it.chat_m, PROFILE_POWERS)]
              + [(c, wz, p - 2.0) for c, p in zip(it.chat_z, PROFILE_POWERS)])
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


def test_breakdown_mutation_does_not_leak():
    rng = np.random.default_rng(59)
    h = model_H(random_weyl(rng))
    first = en.boundary_functional(h, 1.0)
    expected = dict(first.breakdown)
    for _ in range(2):
        # the first call fills the cache, the second reads it
        en.boundary_functional(h, 1.0).breakdown["h_d3"] = 1e300
    again = en.boundary_functional(h, 1.0)
    assert again.breakdown == expected
    assert again.value == first.value


class _YieldingCache(OrderedDict):
    """A cache that hands the interpreter to another thread after every
    lookup and insertion, so unguarded check-then-act sequences collide."""

    def get(self, key, default=None):
        out = super().get(key, default)
        time.sleep(0)
        return out

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        time.sleep(0)


def test_boundary_cache_is_thread_safe(monkeypatch):
    # more threads than cores, a one-entry cache and a short switch
    # interval, so lookups, insertions and evictions interleave
    rng = np.random.default_rng(60)
    fields = [model_H(random_weyl(rng)) for _ in range(3)]
    expected = [en._boundary_quadrature(h, 1.0, 2) for h in fields]
    monkeypatch.setattr(en, "_BOUNDARY_CACHE_SIZE", 1)
    monkeypatch.setattr(en, "_boundary_cache", _YieldingCache())

    def work(k):
        return all(en._boundary_terms(fields[(i + k) % 3], 1.0, 2) == expected[(i + k) % 3]
                   for i in range(200))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(work, range(8), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert all(results)
    assert len(en._boundary_cache) <= 1
