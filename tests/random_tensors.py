"""Seeded random inputs and a jet reader shared by the test modules."""

import numpy as np

from weylglue import tensor_core as tc
from weylglue.fields import _as_batch


def random_weyl(rng):
    """An algebraic Weyl tensor with standard-normal trace-free spectra.

    Draws the self-dual triple, then the anti-self-dual one, from ``rng``.
    """
    sd = rng.standard_normal(3)
    asd = rng.standard_normal(3)
    return tc.algweyl_from_spectrum(sd - sd.mean(), asd - asd.mean())


def slab_jet(h, x):
    """(h, dh, d2h, d_a d_b d_b h) of a ``CurvatureQuadraticField`` at x: the
    point-last jet the sphere integrands read, copied with the point axis
    first, or dropped for a single point, C-ordered as ``jet`` returns it."""
    xb, single = _as_batch(x)
    return tuple(np.ascontiguousarray(f[..., 0] if single else np.moveaxis(f, -1, 0))
                 for f in h._jet_points_last(xb))
