"""Quadrature, finite-difference and dense-tensor oracles for the tests.

The package computes its numbers in closed form or from exact jets; these
are the independent references the tests hold them against: direct sphere
and radial quadratures, central differences of the metric, the
per-harmonic interpolant, the small-gamma expansion, the model charts, and
the dense (4, 4, 4, 4) Weyl decomposition ``weyl_from_riemann``, the
reference of the package's 6x6 pair pipeline.  Its Kulkarni-Nomizu product
``kulkarni_nomizu`` carries a 1/2 normalization, so that
(delta (x) delta)_{1212} = -1 and the curvature operator of
delta (x) delta is plus the identity on 2-forms; the pipeline's product
(.) in ``weylglue.curvature`` carries none, so it is twice this one.
The sphere rule and the chunked loop (with its ``SPHERE_CHUNK``) are read
from ``energy`` at call time, so a test may patch them there.
"""

from functools import partial

import numpy as np

from weylglue import curvature as cv
from weylglue import energy as en
from weylglue.biharmonic import boundary_vector, radial_profile, solve_profile
from weylglue.fields import CurvatureQuadraticField, _as_batch
from weylglue.tensor_core import DIM, check_class

_EYE = np.eye(DIM)


# ---------------------------------------------------------------------------
# tensors and charts

def kulkarni_nomizu(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Half-normalized Kulkarni-Nomizu product of two symmetric 2-tensors.

    (a . b)_ijkl = 1/2 (a_il b_jk + a_jk b_il - a_ik b_jl - a_jl b_ik).
    The result has all the algebraic symmetries of a curvature tensor.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    term = np.einsum("il,jk->ijkl", a, b) + np.einsum("jk,il->ijkl", a, b)
    term -= np.einsum("ik,jl->ijkl", a, b) + np.einsum("jl,ik->ijkl", a, b)
    return 0.5 * term


def weyl_from_riemann(riem: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Totally trace-free (Weyl) part of a curvature tensor, n = 4.

    W_ijkl = R_ijkl - 1/2 (R_jk g_il + R_il g_jk - R_ik g_jl - R_jl g_ik)
             + (R/6) (g_jk g_il - g_ik g_jl),
    that is Rm - Ric . g + (R/6) g . g with the half-normalized
    ``kulkarni_nomizu`` product.  Ricci and scalar curvature are computed
    from ``riem`` and ``g``.  The result is trace-free in every index pair.
    """
    riem = np.asarray(riem, dtype=float)
    g = np.asarray(g, dtype=float)
    check_class(riem, "riemann", 1e-9)
    if abs(np.linalg.det(g)) < 1e-14:
        raise np.linalg.LinAlgError("degenerate metric")
    ginv = np.linalg.inv(g)
    ric = np.einsum("kijl,kl->ij", riem, ginv)
    scal = float(np.einsum("ij,ij->", ginv, ric))
    return riem - kulkarni_nomizu(ric, g) + (scal / 6.0) * kulkarni_nomizu(g, g)


def tensor_norm2(t: np.ndarray) -> float:
    """Full-contraction squared norm |T|^2 = T_ijkl T_ijkl (identity metric)."""
    t = np.asarray(t, dtype=float)
    return float(np.sum(t * t))


def metric(chart, x):
    """g of the chart at x: the first entry of its metric jet."""
    return chart.metric_jet(x)[0]


class ScaledChart(cv.MetricChart):
    """Constant conformal rescaling g -> c^2 g in the same coordinates."""

    def __init__(self, base: cv.MetricChart, factor: float):
        self.base = base
        self.factor = float(factor)

    def contains(self, x):
        return self.base.contains(x)

    def metric_jet(self, x):
        return tuple(self.factor * d for d in self.base.metric_jet(x))


def cnc_model(w: np.ndarray) -> cv.FieldChart:
    """Conformal normal form chart delta - 1/3 W_kijl x^k x^l."""
    return cv.FieldChart(CurvatureQuadraticField([(-1.0 / 3.0, w, 0.0)]))


def inverted_model(w: np.ndarray, r_min: float = 1e-8) -> cv.FieldChart:
    """Inverted-end chart delta - 1/3 W_kijl x^k x^l / |x|^4."""
    return cv.FieldChart(CurvatureQuadraticField([(-1.0 / 3.0, w, -4.0)]), r_min=r_min)


def linearized_weyl_flat_tt(h, x):
    """Linearized Weyl tensor at the flat metric for a TT perturbation.

    W_dot_aijb = 1/2 (d2_aj h_ib + d2_ib h_aj - d2_ab h_ij - d2_ij h_ab)
               + 1/4 (delta_ab Lap h_ij + delta_ij Lap h_ab
                      - delta_ib Lap h_aj - delta_aj Lap h_ib).
    """
    xb, single = _as_batch(x)
    h0, h1, h2 = h.jet(xb)
    tr = np.abs(np.einsum("nii->n", h0)).max()
    div = np.abs(np.einsum("nkki->ni", h1)).max()
    if max(tr, div) > 1e-10:
        raise ValueError("not transverse-traceless")
    lap = np.einsum("naaij->nij", h2)
    wdot = 0.5 * (np.einsum("najib->naijb", h2) + np.einsum("nibaj->naijb", h2)
                  - np.einsum("nabij->naijb", h2) - np.einsum("nijab->naijb", h2))
    wdot += 0.25 * (np.einsum("ab,nij->naijb", _EYE, lap)
                    + np.einsum("ij,nab->naijb", _EYE, lap)
                    - np.einsum("ib,naj->naijb", _EYE, lap)
                    - np.einsum("aj,nib->naijb", _EYE, lap))
    return wdot[0] if single else wdot


# ---------------------------------------------------------------------------
# finite differences of the metric

def fd_metric_data(chart, x, step: float = 1e-5):
    """Metric derivative arrays (g, dg, d2g) at a single point by central
    differences with one Richardson extrapolation level."""
    x = np.asarray(x, dtype=float)

    def dg_at(hh):
        out = np.zeros((DIM, DIM, DIM))
        for a in range(DIM):
            e = np.zeros(DIM); e[a] = hh
            out[a] = (metric(chart, x + e) - metric(chart, x - e)) / (2 * hh)
        return out

    def d2g_at(hh):
        out = np.zeros((DIM, DIM, DIM, DIM))
        g0 = metric(chart, x)
        for a in range(DIM):
            ea = np.zeros(DIM); ea[a] = hh
            out[a, a] = (metric(chart, x + ea) - 2 * g0 + metric(chart, x - ea)) / hh ** 2
            for b in range(a + 1, DIM):
                eb = np.zeros(DIM); eb[b] = hh
                mixed = (metric(chart, x + ea + eb) - metric(chart, x + ea - eb)
                         - metric(chart, x - ea + eb)
                         + metric(chart, x - ea - eb)) / (4 * hh ** 2)
                out[a, b] = mixed
                out[b, a] = mixed
        return out

    dg = (4 * dg_at(step / 2) - dg_at(step)) / 3.0
    d2g = (4 * d2g_at(step / 2) - d2g_at(step)) / 3.0
    return metric(chart, x), dg, d2g


def fd_curvature(chart, x, step: float = 1e-5) -> dict:
    """Curvature computed from finite-difference metric derivatives."""
    g, dg, d2g = fd_metric_data(chart, x, step)
    g, dg, d2g = g[None], dg[None], d2g[None]
    gamma = cv.christoffel_from_data(g, dg)[0]
    ginv = np.linalg.inv(g)
    riem = cv._expand(cv._riemann_pairs(ginv, dg, d2g))[0]
    ric = np.einsum("kijl,kl->ij", riem, ginv[0])
    scal = float(np.einsum("ij,ij->", ginv[0], ric))
    return {"christoffel": gamma, "riemann": riem, "ricci": ric, "scalar": scal}


# ---------------------------------------------------------------------------
# the radial system

def radial_bilaplacian(c, r: float) -> float:
    """The radial operator T(f) = f'''' + 6 f'''/r - 13 f''/r^2 - 19 f'/r^3 + 64 f/r^4.

    This is Delta^2 acting on f(r) phi(theta) for a second spherical harmonic
    phi (angular eigenvalue -8), with f the radial profile of the
    coefficient 4-vector ``c``.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    f0, f1, f2, f3, f4 = (radial_profile(c, r, d) for d in range(5))
    return float(f4 + 6 * f3 / r - 13 * f2 / r ** 2 - 19 * f1 / r ** 3 + 64 * f0 / r ** 4)


def smallgamma_expansion(v, gamma: float) -> np.ndarray:
    """Truncated small-gamma expansion of the solved coefficients.

    Requires the structural relations v2 = -2 v1 and v4 = 2 v3.  For a
    boundary vector held fixed as gamma varies, the truncation errors of the
    four coefficients are of order gamma^8, gamma^4, gamma^4, gamma^4; with
    the construction's own scaling v1 ~ gamma^2 each order increases by 2.
    """
    v = np.asarray(v, dtype=float)
    v1, v2, v3, v4 = v
    scale = max(np.abs(v).max(), 1.0)
    if abs(v2 + 2.0 * v1) > 1e-12 * scale or abs(v4 - 2.0 * v3) > 1e-12 * scale:
        raise ValueError("expansion requires v2 = -2 v1 and v4 = 2 v3")
    g2 = gamma ** 2
    return np.array([
        -6.0 * v1 * g2 ** 2 + (2.0 * v3 + 6.0 * v1) * g2 ** 3,
        v1 / g2 + 9.0 * v1 * g2 - 3.0 * v3 * g2 ** 2,
        -3.0 * v1 / g2 + v3 - 27.0 * v1 * g2 + 9.0 * v3 * g2 ** 2,
        2.0 * v1 / g2 + 18.0 * v1 * g2 - 6.0 * v3 * g2 ** 2,
    ])


def harmonic_component(wm, wz, gamma: float, lam: float, i: int, j: int):
    """The (i, j) component of the interpolant as a per-harmonic profile sum.

    Each boundary case of the component gets its own radial solve; the
    returned evaluate(x) sums profile(r) * harmonic(theta) at ambient points,
    with the second spherical harmonics phi(k, l) = x^k x^l and
    psi(k, l) = (x^k)^2 - (x^l)^2 divided by |x|^2.  It agrees with
    ``assemble_interpolant``'s (i, j) component pointwise.
    """
    pairs = []
    if i == j:
        s, t, u = [k for k in range(DIM) if k != i]
        for al, be in ((s, t), (s, u), (t, u)):
            v = boundary_vector("diag-phi", (i, al, be), wm, wz, gamma, lam)
            pairs.append((("phi", al, be), solve_profile(gamma, v)))
        for al, be in ((s, u), (t, u)):
            v = boundary_vector("diag-psi", (i, al), wm, wz, gamma, lam)
            pairs.append((("psi", al, be), solve_profile(gamma, v)))
    else:
        s, t = [k for k in range(DIM) if k not in (i, j)]
        for al, be in ((j, i), (j, s), (j, t), (s, i), (t, i)):
            v = boundary_vector("offdiag-phi", (i, j, al, be), wm, wz, gamma, lam)
            pairs.append((("phi", al, be), solve_profile(gamma, v)))
        v = boundary_vector("offdiag-phi-st", (i, j), wm, wz, gamma, lam)
        pairs.append((("phi", s, t), solve_profile(gamma, v)))
        v = boundary_vector("offdiag-psi-st", (i, j), wm, wz, gamma, lam)
        pairs.append((("psi", s, t), solve_profile(gamma, v)))

    def evaluate(x):
        xb, single = _as_batch(x)
        r2 = np.einsum("na,na->n", xb, xb)
        r = np.sqrt(r2)
        out = np.zeros(xb.shape[0])
        for (kind, k, l), chat in pairs:
            poly = xb[:, k] * xb[:, l] if kind == "phi" else xb[:, k] ** 2 - xb[:, l] ** 2
            out = out + radial_profile(chat, r) * (poly / r2)
        return out[0] if single else out

    return evaluate


# ---------------------------------------------------------------------------
# quadratures

def radial_rule(r0: float, r1: float, n: int = 16):
    """Gauss-Legendre nodes and weights on [r0, r1] (unit density)."""
    if not 0.0 <= r0 < r1:
        raise ValueError("need 0 <= r0 < r1")
    x, w = np.polynomial.legendre.leggauss(n)
    r = 0.5 * (r1 - r0) * (x + 1.0) + r0
    return r, 0.5 * (r1 - r0) * w


def weyl_energy_numeric(chart, r0: float, r1: float, level: int = 10,
                        n_radial: int = 16) -> float:
    """int |W|^2_g dV_g over the annulus (or ball when r0 = 0) r0 < |x| < r1."""
    pts, wts = en.sphere_rule(level)
    rs, wr = radial_rule(max(r0, 1e-9 if r0 == 0.0 else r0), r1, n_radial)
    total = 0.0
    for r, w in zip(rs, wr):
        vals = en._pointwise(partial(cv.weyl_density, chart), r * pts)
        total += w * r ** 3 * float(np.sum(wts * vals))
    return total


def rough_energy_bound(chart, r0: float, r1: float, level: int = 8,
                       n_radial: int = 12) -> float:
    """Crude upper bound C(|g|, |g^-1|) int (|dg^-1|^2 |dg|^2 + |dg|^4 + |d2g|^2).

    The constant is generous by design; the bound is a scaling diagnostic
    (it realizes the a^(9/2) gamma^-5 size of the cutoff-region error), not
    a sharp estimate.  Always at least the numeric Weyl energy.
    """
    pts, wts = en.sphere_rule(level)
    rs, wr = radial_rule(r0, r1, n_radial)
    integral = 0.0
    sup_g, sup_ginv = 0.0, 0.0
    for r, w in zip(rs, wr):
        xb = r * pts
        g, dg, d2g = chart.metric_jet(xb)
        ginv = np.linalg.inv(g)
        dginv = -np.einsum("nia,nkab,nbj->nkij", ginv, dg, ginv)
        n_dg2 = np.einsum("nkij,nkij->n", dg, dg)
        n_dginv2 = np.einsum("nkij,nkij->n", dginv, dginv)
        n_d2g2 = np.einsum("nklij,nklij->n", d2g, d2g)
        vals = n_dginv2 * n_dg2 + n_dg2 ** 2 + n_d2g2
        integral += w * r ** 3 * float(np.sum(wts * vals))
        sup_g = max(sup_g, float(np.abs(g).max()))
        sup_ginv = max(sup_ginv, float(np.abs(ginv).max()))
    return 1.0e6 * (1.0 + sup_g) ** 6 * (1.0 + sup_ginv) ** 10 * integral


def bulk_integral(h, r0: float, r1: float, form: str,
                  level: int = 8, n_radial: int = 24) -> float:
    """The bulk term of ``second_variation`` by quadrature: (1/2) int
    (Lap^2 h) h for form "bilap", (1/2) int |Lap h|^2 for "biharm", over
    r0 < |x| < r1.
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
        r_p, w_p = radial_rule(lo, hi, n_radial)
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
