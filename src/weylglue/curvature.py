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
    (a (.) b)_ijkl = a_il b_jk + a_jk b_il - a_ik b_jl - a_jl b_ik.
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


class SumChart(MetricChart):
    """Chart whose metric is base + t * extra field; used by the t-oracles."""

    def __init__(self, base: MetricChart, h, t: float):
        self.base = base
        self.h = h
        self.t = float(t)
        self.kind = f"{base.kind}+t*h"

    def contains(self, x):
        return self.base.contains(x)

    def metric_jet(self, x):
        xb, single = _as_batch(x)
        return _unbatch(tuple(b + self.t * d for b, d in
                              zip(self.base.metric_jet(xb), self.h.jet(xb))), single)


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

def polynomial_chart(field: PolynomialField, scale: float = 1.0) -> FieldChart:
    return FieldChart(field, scale=scale, kind="polynomial")


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


def dchristoffel_from_data(g, dg, d2g):
    """Coordinate derivative d_l Gamma^k_ij, shape (n, l, k, i, j)."""
    n = g.shape[0]
    ginv = np.linalg.inv(g)[:, None]  # (n, 1, k, s), broadcast over l
    dginv = -(ginv @ dg @ ginv)  # d_l g^ks
    low = _christoffel_first_kind(dg)
    dbracket = (np.einsum("nlijs->nlsij", d2g) + np.einsum("nljis->nlsij", d2g)
                - np.einsum("nlsij->nlsij", d2g))
    # the s-contractions as matrix products over the flattened (i, j) pair
    out = (dginv @ low.reshape(n, 1, DIM, DIM * DIM)
           + 0.5 * (ginv @ dbracket.reshape(n, DIM, DIM, DIM * DIM)))
    return out.reshape(n, DIM, DIM, DIM, DIM)


def riemann_from_data(g, dg, d2g):
    """R_ijkl in its second-derivative form (module docstring), shape (n, 4, 4, 4, 4)."""
    n = g.shape[0]
    low = _christoffel_first_kind(dg).reshape(n, DIM, DIM * DIM)
    up = np.linalg.inv(g) @ low
    # m[j, k, i, l] = Gamma_{p,jk} Gamma^p_il, one matrix product over p
    m = (low.transpose(0, 2, 1) @ up).reshape((n,) + (DIM,) * 4)
    # f_ijkl = d_i d_k g_jl - Gamma_{p,jk} Gamma^p_il, then R = Alt(f) / 2
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
    scal_dot, weyl_dot.  Covariant derivatives of h are expanded into
    partials plus Christoffel corrections of the background chart.
    """
    xb, single, g, dg, d2g = _metric_data(chart, x)
    if not single:
        raise ValueError("linearize_curvature expects a single point")
    ginv = np.linalg.inv(g)
    gamma = christoffel_from_data(g, dg)
    dgamma = dchristoffel_from_data(g, dg, d2g)
    riem = riemann_from_data(g, dg, d2g)
    riem13 = np.einsum("nijks,nsl->nijkl", riem, ginv)  # R_ijk^l
    ric = np.einsum("nkijl,nkl->nij", riem, ginv)
    scal = np.einsum("nij,nij->n", ginv, ric)

    h0, h1, h2 = h.jet(xb)

    # nabla_a h_ij and nabla^2_{ab} h_ij
    nh = (h1 - np.einsum("nsai,nsj->naij", gamma, h0)
          - np.einsum("nsaj,nis->naij", gamma, h0))
    dnh = (h2
           - np.einsum("nbsai,nsj->nbaij", dgamma, h0)
           - np.einsum("nsai,nbsj->nbaij", gamma, h1)
           - np.einsum("nbsaj,nis->nbaij", dgamma, h0)
           - np.einsum("nsaj,nbis->nbaij", gamma, h1))
    n2h = (dnh
           - np.einsum("nsab,nsij->nabij", gamma, nh)
           - np.einsum("nsai,nbsj->nabij", gamma, nh)
           - np.einsum("nsaj,nbis->nabij", gamma, nh))

    inv_dot = -np.einsum("nai,nbj,nab->nij", ginv, ginv, h0)
    gamma_dot = 0.5 * np.einsum(
        "nkl,nlij->nkij", ginv,
        np.einsum("nilj->nlij", nh) + np.einsum("njil->nlij", nh) - np.einsum("nlij->nlij", nh))

    riem13_dot = 0.5 * np.einsum(
        "nsl,nijks->nijkl", ginv,
        np.einsum("nikjs->nijks", n2h) + np.einsum("njsik->nijks", n2h)
        - np.einsum("nisjk->nijks", n2h) - np.einsum("njkis->nijks", n2h)
        - np.einsum("nijsr,nrk->nijks", riem13, h0)
        - np.einsum("nijkr,nsr->nijks", riem13, h0))

    riem04_dot = 0.5 * (
        np.einsum("nikjl->nijkl", n2h) + np.einsum("njlik->nijkl", n2h)
        - np.einsum("niljk->nijkl", n2h) - np.einsum("njkil->nijkl", n2h)
        + np.einsum("nijks,nls->nijkl", riem13, h0)
        - np.einsum("nijls,nsk->nijkl", riem13, h0))

    trh = np.einsum("nij,nij->n", ginv, h0)
    # gradient and hessian of the scalar tr h = g^{ij} h_ij
    dginv = -np.einsum("nia,nkab,nbj->nkij", ginv, dg, ginv)
    dtrh = np.einsum("nkij,nij->nk", dginv, h0) + np.einsum("nij,nkij->nk", ginv, h1)
    d2ginv_part = (-np.einsum("nlia,nkab,nbj->nklij", dginv, dg, ginv)
                   - np.einsum("nia,nlkab,nbj->nklij", ginv, d2g, ginv)
                   - np.einsum("nia,nkab,nlbj->nklij", ginv, dg, dginv))
    d2trh = (np.einsum("nklij,nij->nkl", d2ginv_part, h0)
             + np.einsum("nkij,nlij->nkl", dginv, h1)
             + np.einsum("nlij,nkij->nkl", dginv, h1)
             + np.einsum("nij,nklij->nkl", ginv, h2))
    hess_trh = d2trh - np.einsum("nsab,ns->nab", gamma, dtrh)

    # divergence (delta h)_i = g^{ab} nabla_a h_bi and its covariant derivative
    divh = np.einsum("nab,nabi->ni", ginv, nh)
    ddivh = (np.einsum("nkab,nabi->nki", dginv, nh)
             + np.einsum("nab,nkabi->nki", ginv, dnh))
    ndivh = ddivh - np.einsum("nski,ns->nki", gamma, divh)

    lap_h = np.einsum("nab,nabij->nij", ginv, n2h)
    ric_up = np.einsum("nst,nis->nit", ginv, ric)  # R_i^t
    riem_mixed = np.einsum("nrt,nrijs->ntijs", ginv, riem13)  # R^t_ij^s
    kterm = (np.einsum("nis,nsj->nij", ric_up, h0)
             + np.einsum("njs,nis->nij", ric_up, h0)
             - 2.0 * np.einsum("ntijs,nts->nij", riem_mixed, h0))
    lterm = -lap_h - hess_trh + ndivh + np.einsum("nki->nik", ndivh)
    ric_dot = 0.5 * (lterm + kterm)

    div2h = np.einsum("nia,njb,nabij->n", ginv, ginv, n2h)
    lap_trh = np.einsum("nab,nab->n", ginv, hess_trh)
    hric = np.einsum("nia,njb,nab,nij->n", ginv, ginv, h0, ric)
    scal_dot = -lap_trh + div2h - hric

    # Weyl variation: the derivative of W = Rm - P (.) g is
    #   W_dot = Rm_dot - (P_dot (.) g + P (.) h),
    # with P_dot = ric_dot/2 - (scal_dot/12) g - (scal/12) h.
    schouten = 0.5 * ric - (scal / 12.0)[:, None, None] * g
    schouten_dot = (0.5 * ric_dot - (scal_dot / 12.0)[:, None, None] * g
                    - (scal / 12.0)[:, None, None] * h0)
    weyl_dot = riem04_dot.copy()
    _subtract_kulkarni_nomizu(weyl_dot, schouten_dot, g)
    _subtract_kulkarni_nomizu(weyl_dot, schouten, h0)

    return {"inv_dot": inv_dot[0], "gamma_dot": gamma_dot[0],
            "riem13_dot": riem13_dot[0], "riem04_dot": riem04_dot[0],
            "ric_dot": ric_dot[0], "scal_dot": float(scal_dot[0]),
            "weyl_dot": weyl_dot[0]}


def linearized_weyl_flat_tt(h, x, tol: float = 1e-10):
    """Linearized Weyl tensor at the flat metric for a TT perturbation.

    W_dot_aijb = 1/2 (d2_aj h_ib + d2_ib h_aj - d2_ab h_ij - d2_ij h_ab)
               + 1/4 (delta_ab Lap h_ij + delta_ij Lap h_ab
                      - delta_ib Lap h_aj - delta_aj Lap h_ib).
    """
    xb, single = _as_batch(x)
    h0 = h.derivative(xb, 0)
    h1 = h.derivative(xb, 1)
    tr = np.abs(np.einsum("nii->n", h0)).max()
    div = np.abs(np.einsum("nkki->ni", h1)).max()
    if max(tr, div) > tol:
        raise ValueError("not transverse-traceless")
    h2 = h.derivative(xb, 2)
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


def fd_linearize(chart: MetricChart, h, x, quantity: str, step: float = 1e-4):
    """d/dt at t=0 of a nonlinear curvature quantity of chart + t*h.

    ``quantity`` is one of inv, gamma, riem13, riem04, ric, scal, weyl.
    Central differences in t with one Richardson level.
    """
    x = np.asarray(x, dtype=float)

    def value(t):
        g, dg, d2g = SumChart(chart, h, t).metric_jet(x[None])
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

    return (4 * central(step / 2) - central(step)) / 3.0
