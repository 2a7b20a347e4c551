"""Curvature of metric charts and linearized curvature quantities.

Charts are immutable evaluators: a domain test ``contains`` and the metric
jet ``metric_jet`` = (g, dg, d2g) in closed form, which is all any chart
computes.  The curvature pipeline below never differentiates the metric
numerically; ``fd_linearize``, the reference of ``verify``'s
linearization check, differentiates in the direction parameter t alone.

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
This is the only Weyl decomposition of the package; the dense spelling the
tests hold it against is ``weyl_from_riemann`` in ``tests/oracles.py``.
Rm, W and (.) have the pair symmetries of a curvature tensor, so the
pipeline keeps each as its 6x6 matrix on two-forms, the index pairs i < j,
and |W|^2_g = 4 tr((G W)^2) with G_(ij)(kl) = g^ik g^jl - g^il g^jk, the
metric on two-forms.

The linearization in a direction h with jet (h, dh, d2h) is the exact
t-derivative of this chain for the metric g + t h by the product rule:
Gamma_{p,ij}' is the first-kind bracket of dh, Gamma^p_ij' = g^pq
(Gamma_{q,ij}' - h_qs Gamma^s_ij), Rm' = 1/2 Alt(f') with f'_ijkl = d_i d_k h_jl
- (Gamma_{p,jk} Gamma^p_il)', and (g^ij)' = -g^ia h_ab g^bj carries Rm' into
Ric', R' and R_ijk^l'.  No covariant derivative of h is formed.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .tensor_core import _PAIR_OF, DIM, LEX_PAIRS
from .fields import _as_batch

_EYE = np.eye(DIM)


class ChartDomainError(ValueError):
    """Raised when a point lies outside a chart's declared domain."""


class MetricChart:
    """Base chart: flat metric on all of R^4.

    A chart is its domain test ``contains`` and its metric jet ``metric_jet``.
    """

    def contains(self, x) -> np.ndarray:
        xb, _ = _as_batch(x)
        return np.ones(xb.shape[0], dtype=bool)

    def check_domain(self, x) -> None:
        if not self.contains(x).all():
            raise ChartDomainError(f"point outside {type(self).__name__} domain")

    def metric_jet(self, x):
        """(g, dg, d2g) at x, of shapes (..., 4, 4), (..., 4, 4, 4) and
        (..., 4, 4, 4, 4) with the derivative axes first."""
        xb, single = _as_batch(x)
        n = xb.shape[0]
        g = np.broadcast_to(_EYE, (n, DIM, DIM)).copy()
        return _unbatch((g, np.zeros((n,) + (DIM,) * 3), np.zeros((n,) + (DIM,) * 4)), single)


class FieldChart(MetricChart):
    """Chart g = delta + scale * h for a field with exact derivatives.

    Houses the quadratic curvature models (conformal normal form, its
    inversion, the two scaled ends, the interpolant) as well as arbitrary
    polynomial test metrics.
    """

    def __init__(self, h, scale: float = 1.0, r_min: float = 0.0, r_max: float = np.inf):
        self.h = h
        self.scale = float(scale)
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


def _unbatch(arrays, single):
    return tuple(a[0] for a in arrays) if single else tuple(arrays)


# ---------------------------------------------------------------------------
# curvature pipeline (batched)
#
# Every curvature-type tensor of the pipeline is kept as its matrix T_AB on
# the two-form pairs A = (i, j), B = (k, l) with i < j and k < l, in the order
# of ``tensor_core.LEX_PAIRS``, stored flat as (n, 36) with T_AB at 6 A + B;
# symmetric 2-tensors are flat (n, 16).  Each step reads the entries it needs
# by fixed index maps, gathers at positions computed once below, so no
# strided transpose of a 4^4 array is formed.

def _entry(i, j, k, l):
    """(position, sign) of T_ijkl = sign * T_AB in a flat pair matrix, read
    from ``tensor_core``'s signed pair map; the sign is 0 when i = j or k = l."""
    (a, s), (b, t) = _PAIR_OF.get((i, j), (0, 0.0)), _PAIR_OF.get((k, l), (0, 0.0))
    return 6 * a + b, s * t


def _table(entries):
    at, sign = zip(*entries)
    return np.array(at), np.array(sign)


#: T_ijkl = sign * T_AB at these positions, for (i, j, k, l) in C order
_EXPAND_AT, _EXPAND_SIGN = _table(_entry(*ijkl) for ijkl in product(range(DIM), repeat=4))
#: Ric_ij = sum of sign * R_AB g^kl over the 9 (k, l) with k != i and l != j,
#: for R_kijl = sign * R_AB: term t = 3 t_k + t_l has k the t_k-th index
#: other than i and l the t_l-th other than j.  The tables are (9, 16), term
#: by output (i, j), so the sum runs in one order at every batch size.
_RIC_TERMS = [(i, j, tk + (tk >= i), tl + (tl >= j))
              for tk, tl in product(range(3), repeat=2)
              for i, j in product(range(DIM), repeat=2)]
_RIC_AT, _RIC_SIGN = _table(_entry(k, i, j, l) for i, j, k, l in _RIC_TERMS)
_RIC_SIGN = _RIC_SIGN.reshape(9, DIM * DIM)
_RIC_GINV_AT = np.array([DIM * k + l for i, j, k, l in _RIC_TERMS])


#: the indices i, j, k, l of the 36 pairs (A, B) = ((i, j), (k, l)), in order
_IJKL = [dict(zip("ijkl", a + b)) for a in LEX_PAIRS for b in LEX_PAIRS]


def _at(*slots):
    """For each string of slot letters, e.g. "il", the flat positions of the
    entries it names (a_il) in an array of shape (4,) * len(string), at the
    36 pairs (A, B); joined into one index array."""
    out = []
    for slot in slots:
        for ijkl in _IJKL:
            flat = 0
            for c in slot:
                flat = DIM * flat + ijkl[c]
            out.append(flat)
    return np.array(out)


# f_ijkl, f_ijlk, f_jikl and f_jilk of the alternation, with f_pqrs =
# d_p d_r g_qs - m[qr, ps] read from d2g (a, b, i, j) and m (j, k, i, l)
_F_TERMS = ("ijkl", "ijlk", "jikl", "jilk")
_F_D2G_AT = _at(*(p + r + q + s for p, q, r, s in _F_TERMS))
_F_M_AT = _at(*(q + r + p + s for p, q, r, s in _F_TERMS))
# (a (.) b)_AB = a_il b_jk + a_jk b_il - a_ik b_jl - a_jl b_ik
_KN_A_AT = _at("il", "jk", "ik", "jl")
_KN_B_AT = _at("jk", "il", "jl", "ik")
# G_AB = g^ik g^jl - g^il g^jk
_G_A_AT = _at("ik", "il")
_G_B_AT = _at("jl", "jk")


def _flat(a):
    return a.reshape(a.shape[0], -1)


def _dot(a, b):
    """sum_c a_c b_c over each point's entries; a plain sum, unlike an
    einsum, adds them in one order at every batch size."""
    return (_flat(a) * _flat(b)).sum(axis=1)


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


def _alternation(d2g, m):
    """R_AB = 1/2 Alt(f) on the pairs, f_ijkl = d_i d_k g_jl - m[jk, il], for
    the pair matrix m[jk, il] = Gamma_{p,jk} Gamma^p_il; shape (n, 36)."""
    f = (_flat(d2g)[:, _F_D2G_AT] - _flat(m)[:, _F_M_AT]).reshape(-1, 4, 36)
    out = (f[:, 0] - f[:, 1]) - (f[:, 2] - f[:, 3])
    out *= 0.5
    return out


def _riemann_pairs(ginv, dg, d2g):
    """R_AB in its second-derivative form (module docstring), shape (n, 36)."""
    n = ginv.shape[0]
    low = _christoffel_first_kind(dg).reshape(n, DIM, DIM * DIM)
    # m[jk, il] = Gamma_{p,jk} Gamma^p_il, one matrix product over p
    return _alternation(d2g, low.transpose(0, 2, 1) @ (ginv @ low))


def _expand(t):
    """The (n, 4, 4, 4, 4) tensor of a batch of pair matrices."""
    return (t[:, _EXPAND_AT] * _EXPAND_SIGN).reshape((-1,) + (DIM,) * 4)


def _ricci(riem, ginv):
    """Ric_ij = R_kijl g^kl of pair matrices against a symmetric g^kl, flat (n, 16)."""
    terms = (riem[:, _RIC_AT] * _flat(ginv)[:, _RIC_GINV_AT]).reshape(-1, 9, DIM * DIM)
    terms *= _RIC_SIGN
    return terms.sum(axis=1)


def _schouten(ric, scal, g):
    """P = Ric/2 - (R/12) g, flat (n, 16)."""
    return 0.5 * ric - (scal / 12.0)[:, None] * _flat(g)


def _subtract_kulkarni_nomizu(out, a, b):
    """out - a (.) b on the pairs, for batches of symmetric a and b, written
    over ``out``."""
    y = (_flat(a)[:, _KN_A_AT] * _flat(b)[:, _KN_B_AT]).reshape(-1, 4, 36)
    out -= y[:, 0]
    out -= y[:, 1]
    out += y[:, 2]
    out += y[:, 3]
    return out


def _weyl_part(riem, g, ginv):
    """Weyl part W = Rm - P (.) g of a batch of pair matrices, written over
    ``riem``; P is the Schouten tensor (module docstring)."""
    ric = _ricci(riem, ginv)
    return _subtract_kulkarni_nomizu(riem, _schouten(ric, _dot(ginv, ric), g), g)


def christoffel(chart: MetricChart, x):
    xb, single, g, dg, _ = _metric_data(chart, x)
    out = christoffel_from_data(g, dg)
    return out[0] if single else out


def _curvature_data(chart: MetricChart, x):
    """(single, g, g^-1, R_AB) of the chart at x."""
    xb, single, g, dg, d2g = _metric_data(chart, x)
    ginv = np.linalg.inv(g)
    return single, g, ginv, _riemann_pairs(ginv, dg, d2g)


def riemann(chart: MetricChart, x):
    single, g, ginv, riem = _curvature_data(chart, x)
    out = _expand(riem)
    return out[0] if single else out


def ricci(chart: MetricChart, x):
    single, g, ginv, riem = _curvature_data(chart, x)
    out = _ricci(riem, ginv).reshape(-1, DIM, DIM)
    return out[0] if single else out


def scalar(chart: MetricChart, x):
    single, g, ginv, riem = _curvature_data(chart, x)
    out = _dot(ginv, _ricci(riem, ginv))
    return out[0] if single else out


def weyl(chart: MetricChart, x):
    """Weyl tensor of the chart at x."""
    single, g, ginv, riem = _curvature_data(chart, x)
    out = _expand(_weyl_part(riem, g, ginv))
    return out[0] if single else out


def weyl_density(chart: MetricChart, x):
    """Pointwise |W|^2_g sqrt(det g), the integrand of the Weyl functional."""
    xb, single, g, dg, d2g = _metric_data(chart, x)
    dens = _weyl_density(g, dg, d2g)
    return dens[0] if single else dens


def _weyl_density(g, dg, d2g):
    """|W|^2_g sqrt(det g) of a batch of metric jets, shape (n,)."""
    ginv = np.linalg.inv(g)
    w = _weyl_part(_riemann_pairs(ginv, dg, d2g), g, ginv).reshape(-1, 6, 6)
    # |W|^2_g = 4 tr(G W G W) over the pairs i < j, with G the metric
    # G_(ij)(kl) = g^ik g^jl - g^il g^jk on two-forms
    gg = (_flat(ginv)[:, _G_A_AT] * _flat(ginv)[:, _G_B_AT]).reshape(-1, 2, 36)
    gw = (gg[:, 0] - gg[:, 1]).reshape(-1, 6, 6) @ w
    return 4.0 * _dot(gw, gw.transpose(0, 2, 1)) * np.sqrt(np.linalg.det(g))


# ---------------------------------------------------------------------------
# linearized quantities

def linearize_curvature(chart: MetricChart, h, x) -> dict:
    """All first-order variations of curvature at x in the direction h.

    ``h`` is a symmetric 2-tensor field whose ``jet`` gives (h, dh, d2h).  Returns
    a dict with keys inv_dot, gamma_dot, riem13_dot, riem04_dot, ric_dot,
    scal_dot, weyl_dot: the t-derivatives at t = 0 of the steps of the
    pair pipeline and its contractions for the metric g + t h.
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
    riem = _alternation(d2g, low.transpose(0, 2, 1) @ up)
    riem_dot = _alternation(
        h2, low_dot.transpose(0, 2, 1) @ up + low.transpose(0, 2, 1) @ up_dot)

    ric = _ricci(riem, ginv)
    ric_dot = _ricci(riem_dot, ginv) + _ricci(riem, inv_dot)
    scal = _dot(ginv, ric)
    scal_dot = _dot(inv_dot, ric) + _dot(ginv, ric_dot)
    riem04_dot = _expand(riem_dot)
    riem13_dot = riem04_dot @ ginv[:, None, None] + _expand(riem) @ inv_dot[:, None, None]

    # W = Rm - P (.) g, so W_dot = Rm_dot - P_dot (.) g - P (.) h with
    # P_dot = ric_dot/2 - (scal_dot/12) g - (scal/12) h
    schouten_dot = _schouten(ric_dot, scal_dot, g) - (scal / 12.0)[:, None] * _flat(h0)
    weyl_dot = _subtract_kulkarni_nomizu(riem_dot.copy(), schouten_dot, g)
    _subtract_kulkarni_nomizu(weyl_dot, _schouten(ric, scal, g), h0)

    return {"inv_dot": inv_dot[0], "gamma_dot": up_dot[0].reshape((DIM,) * 3),
            "riem13_dot": riem13_dot[0], "riem04_dot": riem04_dot[0],
            "ric_dot": ric_dot[0].reshape(DIM, DIM), "scal_dot": float(scal_dot[0]),
            "weyl_dot": _expand(weyl_dot)[0]}


# ---------------------------------------------------------------------------
# finite-difference linearization (the reference of ``verify``)

def fd_linearize(chart: MetricChart, h, x) -> dict:
    """d/dt at t=0 of every nonlinear curvature quantity of chart + t*h.

    Keyed like ``linearize_curvature``: inv_dot, gamma_dot, riem13_dot,
    riem04_dot, ric_dot, scal_dot, weyl_dot.  Central differences in t at
    steps 1e-4 and 1e-4 / 2, with one Richardson level; the four
    evaluations of chart + t*h serve every quantity, each through the pair
    pipeline that ``riemann``, ``ricci``, ``scalar`` and ``weyl`` report.
    """
    x = np.asarray(x, dtype=float)[None]
    # the jets do not depend on t: form them once and add t times h's jet
    # to the chart's at each t
    base, jet = chart.metric_jet(x), h.jet(x)

    def value(t):
        g, dg, d2g = (b + t * d for b, d in zip(base, jet))
        ginv = np.linalg.inv(g)
        riem = _riemann_pairs(ginv, dg, d2g)
        ric = _ricci(riem, ginv)
        riem04 = _expand(riem)
        return {"inv_dot": ginv[0], "gamma_dot": christoffel_from_data(g, dg)[0],
                "riem13_dot": (riem04 @ ginv[:, None, None])[0], "riem04_dot": riem04[0],
                "ric_dot": ric[0].reshape(DIM, DIM), "scal_dot": _dot(ginv, ric)[0],
                "weyl_dot": _expand(_weyl_part(riem, g, ginv))[0]}

    def central(tt):
        plus, minus = value(tt), value(-tt)
        return {key: (plus[key] - minus[key]) / (2 * tt) for key in plus}

    fine, coarse = central(1e-4 / 2), central(1e-4)
    return {key: (4 * fine[key] - coarse[key]) / 3.0 for key in fine}
