"""Seeded random inputs shared by the test modules."""

from weylglue import tensor_core as tc


def random_weyl(rng):
    """An algebraic Weyl tensor with standard-normal trace-free spectra.

    Draws the self-dual triple, then the anti-self-dual one, from ``rng``.
    """
    sd = rng.standard_normal(3)
    asd = rng.standard_normal(3)
    return tc.algweyl_from_spectrum(sd - sd.mean(), asd - asd.mean())
