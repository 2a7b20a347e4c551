"""Quadrature oracles for quantities the package computes in closed form."""

import numpy as np

from weylglue import energy as en


def bulk_integral(h, r0: float, r1: float, form: str,
                  level: int = 8, n_radial: int = 24) -> float:
    """The bulk term of ``second_variation`` by quadrature: (1/2) int
    (Lap^2 h) h for form "bilap", (1/2) int |Lap h|^2 for "biharm", over
    r0 < |x| < r1.

    The sphere rule, the radial rule and the chunked loop are read from
    ``energy`` at call time, so a test may patch them there.
    """
    # panelize the radial range dyadically: a single Gauss rule loses
    # accuracy badly on steep r^-k integrands spanning many octaves, and on
    # a non-integer power r^(e-1) near 0.  A range from below 1e-12 r1
    # starts its panels there: on a ball every exponent e of a field the
    # tests integrate is at least 1, so the rest adds below 1e-12 of it.
    # h is a CurvatureQuadraticField, a sum of Q_S(x) f(|x|): even in x, so
    # are its Laplacians and both integrands
    pts, wts = en._half_sphere_rule(level)
    edges = [max(r0, 1e-12 * r1)]
    while edges[-1] * 2.0 < r1:
        edges.append(edges[-1] * 2.0)
    edges.append(r1)
    rs, wr = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        r_p, w_p = en.radial_rule(lo, hi, n_radial)
        rs.extend(r_p)
        wr.extend(w_p)

    def integrand(xc):
        if form == "bilap":
            return np.einsum("nij,nij->n", h.bilaplacian(xc), h.derivative(xc, 0))
        lap = h.laplacian(xc)
        return np.einsum("nij,nij->n", lap, lap)

    total = 0.0
    for r, w in zip(rs, wr):
        total += w * r ** 3 * float(np.sum(wts * en._pointwise(integrand, r * pts)))
    return 0.5 * total
