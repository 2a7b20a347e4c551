from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylglue import curvature as cv
from weylglue import gluing as gl
from weylglue import tensor_core as tc
from weylglue.biharmonic import assemble_interpolant
from weylglue.fields import CurvatureQuadraticField, PolynomialField


def random_weyl(rng):
    sd = rng.standard_normal(3)
    asd = rng.standard_normal(3)
    return tc.algweyl_from_spectrum(sd - sd.mean(), asd - asd.mean()).tensor


def jet_field(rng):
    # every power of the interpolant, and a zero tensor the field drops
    terms = [(float(rng.uniform(-2.0, 2.0)), random_weyl(rng), p)
             for p in (-6.0, -4.0, 0.0, 2.0)]
    terms.insert(2, (1.7, np.zeros((4,) * 4), -4.0))
    return CurvatureQuadraticField(terms)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       coeffs=st.lists(st.floats(-3.0, 3.0), min_size=10, max_size=10))
def test_blocks_equal_sum_of_single_terms(seed, coeffs):
    # the interpolant's shape (two tensors x powers {-6, -4, 0, 2}), a block
    # whose powers are all 0 and a zero tensor, in shuffled term order
    rng = np.random.default_rng(seed)
    wm, wz, w0 = random_weyl(rng), random_weyl(rng), random_weyl(rng)
    powers = (-6.0, -4.0, 0.0, 2.0)
    terms = ([(c, wm, p) for c, p in zip(coeffs[:4], powers)]
             + [(c, wz, p) for c, p in zip(coeffs[4:8], powers)]
             + [(coeffs[8], w0, 0.0), (coeffs[9], w0, 0.0), (1.7, np.zeros((4,) * 4), -4.0)])
    terms = [terms[i] for i in rng.permutation(len(terms))]
    h = CurvatureQuadraticField(terms)
    singles = [CurvatureQuadraticField([t]) for t in terms]
    assert len(h.terms) == 10 and len(h.blocks) == 3
    x = rng.uniform(0.05, 1.5, (6, 1)) * rng.standard_normal((6, 4))

    def close(got, parts):
        # to 1e-12 of the largest entry of any single term
        scale = max(np.abs(part).max() for part in parts)
        assert np.abs(got - sum(parts)).max() <= 1e-12 * scale

    for order in range(5):
        close(h.derivative(x, order), [f.derivative(x, order) for f in singles])
    for slab in (True, False):
        single_jets = [f.jet(x, slab) for f in singles]
        for k, got in enumerate(h.jet(x, slab)):
            close(got, [jet[k] for jet in single_jets])
    close(h.laplacian(x), [f.laplacian(x) for f in singles])
    close(h.bilaplacian(x), [f.bilaplacian(x) for f in singles])


@pytest.mark.parametrize("seed", [61, 62, 63])
def test_jet_equals_derivatives_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    h = jet_field(rng)
    batch = rng.uniform(0.02, 1.5, (9, 1)) * rng.standard_normal((9, 4))
    for x in (batch, batch[4]):
        h0, h1, h2, slab = h.jet(x)
        for k, got in enumerate((h0, h1, h2)):
            assert np.array_equal(got, h.derivative(x, k))
        d3 = h.derivative(x, 3)
        assert slab.shape == d3.shape[:-5] + (4, 4, 4, 4)
        assert np.array_equal(slab, np.einsum("...abbij->...abij", d3))


def _charts(rng):
    quad = cv.FieldChart(jet_field(rng), scale=0.3)
    poly = cv.polynomial_chart(PolynomialField.random(rng, scale=0.05))
    wm, wz = random_weyl(rng), random_weyl(rng)
    params = gl.GluingParams(a=1e-5, lam=1.5, gamma=0.05)
    interp = assemble_interpolant(wm, wz, SimpleNamespace(gamma=0.05, lam=1.5))
    glued = gl.glued_chart(wm, wz, params, interp, error_model="synthetic",
                           zeta_scale=1e-6, eta_scale=1e-6, seed=3)
    return [quad, poly, cv.ScaledChart(quad, 1.7), cv.ScaledChart(poly, 0.4),
            cv.SumChart(poly, jet_field(rng), 0.2), cv.SumChart(quad, poly.h, 0.1),
            glued]


@pytest.mark.parametrize("seed", [64, 65])
def test_metric_jet_equals_metric_derivatives(seed):
    rng = np.random.default_rng(seed)
    # radii in all three zones of the glued chart (a = 1e-5, gamma = 0.05)
    radii = np.array([0.02, 0.04, 0.08, 0.3, 0.6, 0.9, 1.1, 1.5, 1.9])
    dirs = rng.standard_normal((9, 4))
    batch = radii[:, None] * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    for chart in _charts(rng):
        for x in (batch, batch[4]):
            want = (chart.metric(x), chart.metric_derivative(x, 1),
                    chart.metric_derivative(x, 2))
            got = chart.metric_jet(x)
            assert len(got) == 3
            for a, b in zip(got, want):
                assert a.shape == b.shape
                assert np.array_equal(a, b)
