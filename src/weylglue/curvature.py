"""Curvature of metric charts and linearized curvature quantities.

Charts are immutable evaluators: a domain test ``contains`` and the metric
jet ``metric_jet`` = (g, dg, d2g) in closed form, which is all any chart
computes (``metric`` is the jet's first entry).  The curvature pipeline
below never differentiates numerically.  Finite-difference oracles, which
read ``metric`` alone, are provided separately for testing.

Convention: R_ij = R_kijl g^kl, and the coordinate curvature tensor is
    R_ijkl = (d_i Gamma_jk^s - d_j Gamma_ik^s) g_sl
             + (Gamma_jk^s Gamma_is^t - Gamma_ik^s Gamma_js^t) g_tl,
so the chart delta - 1/3 W_kijl x^k x^l has Weyl curvature W at the origin.
It is computed in its second-derivative form
    R_ijkl = 1/2 (d_i d_k g_jl + d_j d_l g_ik - d_i d_l g_jk - d_j d_k g_il)
             + Gamma_{p,jl} Gamma^p_ik - Gamma_{p,jk} Gamma^p_il,
with Gamma_{p,ij} = 1/2 (d_i g_jp + d_j g_ip - d_p g_ij) the Christoffel
symbols of the first kind, so no derivative of Gamma is formed.  By the pair
symmetry of Gamma_{p,jk} Gamma^p_il this is 1/2 (f_ijkl - f_jikl - f_ijlk
+ f_jilk) for f_ijkl = d_i d_k g_jl - Gamma_{p,jk} Gamma^p_il.  The Weyl
part is W = Rm - P (.) g with the Schouten tensor P = Ric/2 - (R/12) g and
the Kulkarni-Nomizu product
    (a (.) b)_ijkl = a_il b_jk + a_jk b_il - a_ik b_jl - a_jl b_ik,
which is twice ``tensor_core.kulkarni_nomizu`` (that one carries a 1/2).

The linearization in a direction h with jet (h, dh, d2h) is the exact
t-derivative of this chain for the metric g + t h by the product rule:
Gamma_{p,ij}' is the first-kind bracket of dh, Gamma^p_ij' = g^pq
(Gamma_{q,ij}' - h_qs Gamma^s_ij), Rm' = 1/2 Alt(f') with f'_ijkl = d_i d_k h_jl
- (Gamma_{p,jk} Gamma^p_il)', and (g^ij)' = -g^ia h_ab g^bj carries Rm' into
Ric', R' and R_ijk^l'.  No covariant derivative of h is formed.
"""

from __future__ import annotations

import numpy as np

from .tensor_core import DIM, weyl_from_riemann
from .fields import CurvatureQuadraticField, PolynomialField, _as_batch

_EYE = np.eye(DIM)


class ChartDomainError(ValueError):
    """Raised when a point lies outside a chart's declared domain."""


class MetricChart:
    """Base chart: flat metric on all of R^4.

    A chart is its domain test ``contains`` and its metric jet
    ``metric_jet``; ``metric`` is the first entry of the jet.
    """

    kind = "flat"

    def contains(self, x) -> np.ndarray:
        xb, _ = _as_batch(x)
        return np.ones(xb.shape[0], dtype=bool)

    def check_domain(self, x) -> None:
        if not self.contains(x).all():
            raise ChartDomainError(f"point outside {self.kind} chart domain")

    def metric_jet(self, x):
        """(g, dg, d2g) at x, of shapes (..., 4, 4), (..., 4, 4, 4) and
        (..., 4, 4, 4, 4) with the derivative axes first."""
        xb, single = _as_batch(x)
        n = xb.shape[0]
        g = np.broadcast_to(_EYE, (n, DIM, DIM)).copy()
        return _unbatch((g, np.zeros((n,) + (DIM,) * 3), np.zeros((n,) + (DIM,) * 4)), single)

    def metric(self, x):
        return self.metric_jet(x)[0]


class FieldChart(MetricChart):
    """Chart g = delta + scale * h for a field with exact derivatives.

    Houses the quadratic curvature models (conformal normal form, its
    inversion, the two scaled ends, the interpolant) as well as arbitrary
    polynomial test metrics.
    """

    def __init__(self, h, scale: float = 1.0, kind: str = "custom",
                 r_min: float = 0.0, r_max: float = np.inf):
        self.h = h
        self.scale = float(scale)
        self.kind = kind
        self.r_min = float(r_min)
        self.r_max = float(r_max)

    def contains(self, x):
        xb, _ = _as_batch(x)
        r = np.sqrt(np.einsum("na,na->n", xb, xb))
        return (r >= self.r_min) & (r <= self.r_max)

    def metric_jet(self, x):
        xb, single = _as_batch(x)
        h0, h1, h2 = self.h.jet(xb)
        return _unbatch((_EYE[None] + self.scale * h0, self.scale * h1, self.scale * h2), single)


class ScaledChart(MetricChart):
    """Constant conformal rescaling g -> c^2 g in the same coordinates."""

    def __init__(self, base: MetricChart, factor: float):
        self.base = base
        self.factor = float(factor)
        self.kind = f"scaled({base.kind})"

    def contains(self, x):
        return self.base.contains(x)

    def metric_jet(self, x):
        return tuple(self.factor * d for d in self.base.metric_jet(x))


def _unbatch(arrays, single):
    return tuple(a[0] for a in arrays) if single else tuple(arrays)


def flat_chart() -> MetricChart:
    return MetricChart()

def cnc_model(w: np.ndarray) -> FieldChart:
    """Conformal normal form chart delta - 1/3 W_kijl x^k x^l."""
    return FieldChart(CurvatureQuadraticField([(-1.0 / 3.0, w, 0.0)]), kind="cnc_model")

def inverted_model(w: np.ndarray, r_min: float = 1e-8) -> FieldChart:
    """Inverted-end chart delta - 1/3 W_kijl x^k x^l / |x|^4."""
    return FieldChart(CurvatureQuadraticField([(-1.0 / 3.0, w, -4.0)]),
                      kind="inverted_model", r_min=r_min)

def polynomial_chart(field: PolynomialField) -> FieldChart:
    return FieldChart(field, kind="polynomial")


# ---------------------------------------------------------------------------
# curvature pipeline (batched)

def _metric_data(chart: MetricChart, x):
    xb, single = _as_batch(x)
    chart.check_domain(xb)
    g, dg, d2g = chart.metric_jet(xb)
    return xb, single, g, dg, d2g


def _christoffel_first_kind(dg):
    """Gamma_{p,ij} = 1/2 (d_i g_jp + d_j g_ip - d_p g_ij), shape (n, p, i, j)."""
    return 0.5 * (dg.transpose(0, 3, 1, 2) + dg.transpose(0, 3, 2, 1) - dg)


def christoffel_from_data(g, dg):
    return np.einsum("nks,nsij->nkij", np.linalg.inv(g), _christoffel_first_kind(dg))


def riemann_from_data(g, dg, d2g):
    """R_ijkl in its second-derivative form (module docstring), shape (n, 4, 4, 4, 4)."""
    n = g.shape[0]
    low = _christoffel_first_kind(dg).reshape(n, DIM, DIM * DIM)
    up = np.linalg.inv(g) @ low
    # m[jk, il] = Gamma_{p,jk} Gamma^p_il, one matrix product over p
    return _half_alternation(d2g, low.transpose(0, 2, 1) @ up)


def _half_alternation(d2g, m):
    """1/2 Alt(f), f_ijkl = d_i d_k g_jl - m[jk, il], written over the pair matrix m."""
    m = m.reshape(d2g.shape)
    f = d2g.transpose(0, 1, 3, 2, 4) - m.transpose(0, 3, 1, 2, 4)
    # m and f are dead once read: reuse them rather than allocate two more
    b = np.subtract(f, f.swapaxes(3, 4), out=m)
    out = np.subtract(b, b.swapaxes(1, 2), out=f)
    out *= 0.5
    return out


def _weyl_part(riem, g, ginv):
    """Weyl part W = Rm - P (.) g of a batch of curvature tensors, written
    over ``riem``; P is the Schouten tensor (module docstring)."""
    ric = np.einsum("nkijl,nkl->nij", riem, ginv)
    scal = np.einsum("nij,nij->n", ginv, ric)
    schouten = 0.5 * ric - (scal / 12.0)[:, None, None] * g
    return _subtract_kulkarni_nomizu(riem, schouten, g)


def _subtract_kulkarni_nomizu(out, a, b):
    """out - a (.) b for batches of symmetric a and b, written over ``out``."""
    # y_ijkl = a_il b_jk, so that a (.) b = y_ijkl + y_jilk - y_ijlk - y_jikl
    y = a[:, :, None, None, :] * b[:, None, :, :, None]
    out -= y
    out -= y.transpose(0, 2, 1, 4, 3)
    out += y.swapaxes(3, 4)
    out += y.swapaxes(1, 2)
    return out


def christoffel(chart: MetricChart, x):
    xb, single, g, dg, _ = _metric_data(chart, x)
    out = christoffel_from_data(g, dg)
    return out[0] if single else out


def riemann(chart: MetricChart, x):
    xb, single, g, dg, d2g = _metric_data(chart, x)
    out = riemann_from_data(g, dg, d2g)
    return out[0] if single else out


def ricci(chart: MetricChart, x):
    xb, single, g, dg, d2g = _metric_data(chart, x)
    riem = riemann_from_data(g, dg, d2g)
    ginv = np.linalg.inv(g)
    out = np.einsum("nkijl,nkl->nij", riem, ginv)
    return out[0] if single else out


def scalar(chart: MetricChart, x):
    xb, single, g, dg, d2g = _metric_data(chart, x)
    riem = riemann_from_data(g, dg, d2g)
    ginv = np.linalg.inv(g)
    ric = np.einsum("nkijl,nkl->nij", riem, ginv)
    out = np.einsum("nij,nij->n", ginv, ric)
    return out[0] if single else out


def weyl(chart: MetricChart, x):
    """Weyl tensor of the chart at x."""
    xb, single, g, dg, d2g = _metric_data(chart, x)
    out = _weyl_part(riemann_from_data(g, dg, d2g), g, np.linalg.inv(g))
    return out[0] if single else out


def weyl_density(chart: MetricChart, x):
    """Pointwise |W|^2_g sqrt(det g), the integrand of the Weyl functional."""
    xb, single, g, dg, d2g = _metric_data(chart, x)
    ginv = np.linalg.inv(g)
    pairs = (xb.shape[0], DIM * DIM, DIM * DIM)
    w = _weyl_part(riemann_from_data(g, dg, d2g), g, ginv).reshape(pairs)
    # |W|^2_g = tr(G W G W) for W as a symmetric matrix on index pairs and
    # G = g^-1 (x) g^-1
    gw = (ginv[:, :, None, :, None] * ginv[:, None, :, None, :]).reshape(pairs) @ w
    dens = np.einsum("nab,nba->n", gw, gw) * np.sqrt(np.linalg.det(g))
    return dens[0] if single else dens


# ---------------------------------------------------------------------------
# linearized quantities

def linearize_curvature(chart: MetricChart, h, x) -> dict:
    """All first-order variations of curvature at x in the direction h.

    ``h`` is a symmetric 2-tensor field whose ``jet`` gives (h, dh, d2h).  Returns
    a dict with keys inv_dot, gamma_dot, riem13_dot, riem04_dot, ric_dot,
    scal_dot, weyl_dot: the t-derivatives at t = 0 of the steps of
    ``riemann_from_data`` and its contractions for the metric g + t h.
    """
    xb, single, g, dg, d2g = _metric_data(chart, x)
    if not single:
        raise ValueError("linearize_curvature expects a single point")
    h0, h1, h2 = h.jet(xb)
    ginv = np.linalg.inv(g)
    inv_dot = -ginv @ h0 @ ginv
    low = _christoffel_first_kind(dg).reshape(1, DIM, DIM * DIM)
    low_dot = _christoffel_first_kind(h1).reshape(1, DIM, DIM * DIM)
    up = ginv @ low
    up_dot = ginv @ (low_dot - h0 @ up)
    riem = _half_alternation(d2g, low.transpose(0, 2, 1) @ up)
    riem_dot = _half_alternation(
        h2, low_dot.transpose(0, 2, 1) @ up + low.transpose(0, 2, 1) @ up_dot)

    ric = np.einsum("nkijl,nkl->nij", riem, ginv)
    ric_dot = (np.einsum("nkijl,nkl->nij", riem_dot, ginv)
               + np.einsum("nkijl,nkl->nij", riem, inv_dot))
    scal = np.einsum("nij,nij->n", ginv, ric)
    scal_dot = np.einsum("nij,nij->n", inv_dot, ric) + np.einsum("nij,nij->n", ginv, ric_dot)
    riem13_dot = riem_dot @ ginv[:, None, None] + riem @ inv_dot[:, None, None]

    # W = Rm - P (.) g, so W_dot = Rm_dot - P_dot (.) g - P (.) h with
    # P_dot = ric_dot/2 - (scal_dot/12) g - (scal/12) h
    schouten = 0.5 * ric - (scal / 12.0)[:, None, None] * g
    schouten_dot = (0.5 * ric_dot - (scal_dot / 12.0)[:, None, None] * g
                    - (scal / 12.0)[:, None, None] * h0)
    weyl_dot = _subtract_kulkarni_nomizu(riem_dot.copy(), schouten_dot, g)
    _subtract_kulkarni_nomizu(weyl_dot, schouten, h0)

    return {"inv_dot": inv_dot[0], "gamma_dot": up_dot[0].reshape((DIM,) * 3),
            "riem13_dot": riem13_dot[0], "riem04_dot": riem_dot[0],
            "ric_dot": ric_dot[0], "scal_dot": float(scal_dot[0]),
            "weyl_dot": weyl_dot[0]}


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
# finite-difference oracles (testing support)

def fd_metric_data(chart: MetricChart, x, step: float = 1e-5):
    """Metric derivative arrays (g, dg, d2g) at a single point by central
    differences with one Richardson extrapolation level."""
    x = np.asarray(x, dtype=float)

    def dg_at(hh):
        out = np.zeros((DIM, DIM, DIM))
        for a in range(DIM):
            e = np.zeros(DIM); e[a] = hh
            out[a] = (chart.metric(x + e) - chart.metric(x - e)) / (2 * hh)
        return out

    def d2g_at(hh):
        out = np.zeros((DIM, DIM, DIM, DIM))
        g0 = chart.metric(x)
        for a in range(DIM):
            ea = np.zeros(DIM); ea[a] = hh
            out[a, a] = (chart.metric(x + ea) - 2 * g0 + chart.metric(x - ea)) / hh ** 2
            for b in range(a + 1, DIM):
                eb = np.zeros(DIM); eb[b] = hh
                mixed = (chart.metric(x + ea + eb) - chart.metric(x + ea - eb)
                         - chart.metric(x - ea + eb) + chart.metric(x - ea - eb)) / (4 * hh ** 2)
                out[a, b] = mixed
                out[b, a] = mixed
        return out

    dg = (4 * dg_at(step / 2) - dg_at(step)) / 3.0
    d2g = (4 * d2g_at(step / 2) - d2g_at(step)) / 3.0
    return chart.metric(x), dg, d2g


def fd_curvature(chart: MetricChart, x, step: float = 1e-5) -> dict:
    """Curvature computed from finite-difference metric derivatives."""
    g, dg, d2g = fd_metric_data(chart, x, step)
    g, dg, d2g = g[None], dg[None], d2g[None]
    gamma = christoffel_from_data(g, dg)[0]
    riem = riemann_from_data(g, dg, d2g)[0]
    ginv = np.linalg.inv(g[0])
    ric = np.einsum("kijl,kl->ij", riem, ginv)
    scal = float(np.einsum("ij,ij->", ginv, ric))
    return {"christoffel": gamma, "riemann": riem, "ricci": ric, "scalar": scal}


def fd_linearize(chart: MetricChart, h, x, quantity: str):
    """d/dt at t=0 of a nonlinear curvature quantity of chart + t*h.

    ``quantity`` is one of inv, gamma, riem13, riem04, ric, scal, weyl.
    Central differences in t at steps 1e-4 and 1e-4 / 2, with one
    Richardson level.
    """
    x = np.asarray(x, dtype=float)[None]
    # the jets do not depend on t: form them once and add t times h's jet
    # to the chart's at each t
    base, jet = chart.metric_jet(x), h.jet(x)

    def value(t):
        g, dg, d2g = (b + t * d for b, d in zip(base, jet))
        ginv = np.linalg.inv(g[0])
        if quantity == "inv":
            return ginv
        gamma = christoffel_from_data(g, dg)[0]
        if quantity == "gamma":
            return gamma
        riem = riemann_from_data(g, dg, d2g)[0]
        if quantity == "riem04":
            return riem
        if quantity == "riem13":
            return np.einsum("ijks,sl->ijkl", riem, ginv)
        ric = np.einsum("kijl,kl->ij", riem, ginv)
        if quantity == "ric":
            return ric
        scal = np.einsum("ij,ij->", ginv, ric)
        if quantity == "scal":
            return scal
        if quantity == "weyl":
            return weyl_from_riemann(riem, g[0], ric, float(scal))
        raise ValueError(f"unknown quantity {quantity!r}")

    def central(tt):
        return (value(tt) - value(-tt)) / (2 * tt)

    return (4 * central(1e-4 / 2) - central(1e-4)) / 3.0
