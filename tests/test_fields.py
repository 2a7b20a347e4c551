import numpy as np
import pytest

from weylglue import tensor_core as tc
from weylglue.fields import CurvatureQuadraticField


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
