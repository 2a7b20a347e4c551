"""Weyl-energy evaluation, boundary functionals, and the energy balance.

Everything here reduces to integrals over spheres and radial intervals,
evaluated with tensor-product Gauss-Legendre rules in hyperspherical angles.
For a field h homogeneous of degree 2 the radial integral of the Weyl
energy becomes one in the dilation parameter: delta + t h at radius r is a
dilation of delta + t r^2 h at radius 1, and |W|^2 dV is conformally
invariant in dimension 4, so

    int_{|x|<1} |W|^2 dV = (1/2) int_0^t F(s) ds / s,

with F(s) the integral of |W|^2 dV of delta + s h over the unit sphere.
The quadratic Weyl-energy expansion at the flat metric for a TT field h is

    W(delta + t h) = t^2 Phi(h, Omega) + O(t^3),

where Phi is available in two algebraically equal forms: the "biharm" form
with bulk (1/2) int (Lap h)^2, and the "bilap" form with bulk
(1/2) int (Lap^2 h) h, which is boundary-only for biharmonic fields.  All
boundary functionals are written with the normal +x/|x| and a sign factor
supplied by the caller (+1 when that is the outward normal of the domain,
-1 when the domain lies outside the sphere).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache, partial
from types import MappingProxyType

import numpy as np

from .tensor_core import DIM
from .fields import CurvatureQuadraticField
from . import curvature as _curv
from .biharmonic import assemble_interpolant
from .duality import interaction_star, positivity_bound
from .gluing import GluingParams, model_F, model_H

VOL_S3 = 2.0 * np.pi ** 2

#: Default lambda grid for interaction-coefficient fits.
LAMBDA_GRID = (2.0, 4.0, 6.0, 8.0, 10.0)
#: Default gamma grid for remainder studies and parameter selection.
GAMMA_GRID = (0.08, 0.04, 0.02)
#: Coefficient of lam^2 (W * W) in the leading bracket; Phi_gamma and Phi_1
#: each carry half of it.
INTERACTION_COEFFICIENT = -(4.0 / 9.0) * np.pi ** 2


# ---------------------------------------------------------------------------
# quadrature

def sphere_rule(level: int = 12):
    """Product quadrature rule on the unit 3-sphere.

    Hyperspherical angles (psi, theta, phi) with node counts
    (level, level, 2 level) and the density sin^2(psi) sin(theta) folded
    into the weights.  Weights sum to Vol(S^3) = 2 pi^2 and the rule is
    exact for polynomials in the ambient coordinates of degree < 2 level.
    Each level's rule is built once and returned as read-only arrays.
    """
    if level < 2:
        raise ValueError("quadrature level must be at least 2")
    return _sphere_rule(level)


@cache
def _sphere_rule(level: int):
    # cos(psi) nodes: Gauss-Chebyshev of the second kind carries the
    # sqrt(1 - u^2) = sin^2(psi) / sin(psi) density exactly, so together
    # with Gauss-Legendre in cos(theta) and the trapezoid rule in phi the
    # product rule integrates every polynomial in z of degree < 2 level
    # exactly (odd monomials vanish identically under each factor rule).
    k = np.arange(1, level + 1)
    psi = k * np.pi / (level + 1)
    wpsi = (np.pi / (level + 1)) * np.sin(psi) ** 2
    xt, wt = np.polynomial.legendre.leggauss(level)
    theta = np.arccos(xt)
    wtheta = wt
    phi = 2.0 * np.pi * np.arange(2 * level) / (2 * level)
    wphi = np.full(2 * level, np.pi / level)

    ps, th, ph = np.meshgrid(psi, theta, phi, indexing="ij")
    pts = np.stack([np.cos(ps),
                    np.sin(ps) * np.cos(th),
                    np.sin(ps) * np.sin(th) * np.cos(ph),
                    np.sin(ps) * np.sin(th) * np.sin(ph)], axis=-1).reshape(-1, DIM)
    wts = (wpsi[:, None, None] * wtheta[None, :, None] * wphi[None, None, :]).ravel()
    pts.flags.writeable = False
    wts.flags.writeable = False
    return pts, wts


def radial_rule(r0: float, r1: float, n: int = 16):
    """Gauss-Legendre nodes and weights on [r0, r1] (unit density)."""
    if not 0.0 <= r0 < r1:
        raise ValueError("need 0 <= r0 < r1")
    x, w = np.polynomial.legendre.leggauss(n)
    r = 0.5 * (r1 - r0) * (x + 1.0) + r0
    return r, 0.5 * (r1 - r0) * w


def sphere_moment(mu: int, nu: int, k: int, l: int) -> float:
    """Closed form of int_{S^3} z^mu z^nu z^k z^l dsigma."""
    for idx in (mu, nu, k, l):
        if not 0 <= idx < DIM:
            raise ValueError("indices must lie in 0..3")
    d = lambda a, b: 1.0 if a == b else 0.0
    return (np.pi ** 2 / 12.0) * (d(mu, nu) * d(k, l) + d(mu, k) * d(nu, l)
                                  + d(mu, l) * d(nu, k))


def _half_sphere_rule(level: int):
    """``sphere_rule`` for integrands with f(-x) = f(x): the nodes with phi
    index below ``level``, at twice their weight.

    Node (k, j, m) of ``sphere_rule`` has its antipode at
    (level-1-k, level-1-j, m+level mod 2 level), with the same weight, so
    the two halves contribute equally to the sum of an even integrand.
    """
    pts, wts = sphere_rule(level)
    keep = (np.arange(wts.size) % (2 * level)) < level
    return pts[keep], 2.0 * wts[keep]


def sphere_moment_quadrature(mu: int, nu: int, k: int, l: int, level: int = 12) -> float:
    pts, wts = sphere_rule(level)
    return float(np.sum(wts * pts[:, mu] * pts[:, nu] * pts[:, k] * pts[:, l]))


#: Points per batch of every sphere loop.  A chunk's largest arrays, 4^4
#: numbers per point (786 KB), then stay in cache; 384 divides the 3456
#: points of the level-12 rule.
SPHERE_CHUNK = 384


def _pointwise(f, xb):
    """f over the points xb, ``SPHERE_CHUNK`` at a time, joined along the
    last axis.

    Every f used here computes each point's values from that point alone,
    in an order that does not depend on the batch, so the result is bit for
    bit that of one call on all of xb.
    """
    return np.concatenate([f(xb[start:start + SPHERE_CHUNK])
                           for start in range(0, xb.shape[0], SPHERE_CHUNK)], axis=-1)


# ---------------------------------------------------------------------------
# direct Weyl energy

def weyl_energy_numeric(chart, r0: float, r1: float, level: int = 10,
                        n_radial: int = 16) -> float:
    """int |W|^2_g dV_g over the annulus (or ball when r0 = 0) r0 < |x| < r1."""
    pts, wts = sphere_rule(level)
    rs, wr = radial_rule(max(r0, 1e-9 if r0 == 0.0 else r0), r1, n_radial)
    total = 0.0
    for r, w in zip(rs, wr):
        vals = _pointwise(partial(_curv.weyl_density, chart), r * pts)
        total += w * r ** 3 * float(np.sum(wts * vals))
    return total


#: Gauss-Legendre nodes in the dilation parameter s used by ``dilation_energy``.
DILATION_NODES = 8


def dilation_energy(h, ts, level: int = 10) -> np.ndarray:
    """int_{|x|<1} |W|^2 dV of delta + t h for each t in ``ts``, by dilation.

    For h homogeneous of degree 2 the chart delta + t h at radius r is the
    dilation of delta + t r^2 h at radius 1, so conformal invariance gives
    E(t) = (1/2) int_0^t G(s) ds with G(s) = F(s) / s and
    F(s) = int_{S^3} |W|^2 dV of delta + s h.  G is analytic and O(s); it is
    sampled at ``DILATION_NODES`` Gauss-Legendre nodes on [0, max(ts)],
    interpolated by a polynomial and integrated exactly, so every t shares
    the same sphere passes.
    """
    terms = getattr(h, "terms", None)
    if terms is None or any(p != 0.0 for _, _, p in terms):
        raise ValueError("dilation_energy needs a field homogeneous of degree 2 "
                         "(curvature-quadratic terms of power 0)")
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1 or ts.size == 0 or not np.all(np.isfinite(ts)) or np.any(ts <= 0.0):
        raise ValueError("ts must be a nonempty list of finite positive numbers")
    # g = delta + s h is even in x, so is |W|^2_g sqrt(det g)
    pts, wts = _half_sphere_rule(level)
    x, w = np.polynomial.legendre.leggauss(DILATION_NODES)
    s_max = float(ts.max())
    g = np.array([np.sum(wts * _pointwise(partial(_curv.weyl_density,
                                                   _curv.FieldChart(h, scale=s)), pts)) / s
                  for s in 0.5 * s_max * (x + 1.0)])
    # interpolant in Legendre form: at Gauss nodes the discrete projection is exact
    vander = np.polynomial.legendre.legvander(x, DILATION_NODES - 1)
    coef = (np.arange(DILATION_NODES) + 0.5) * (vander.T @ (w * g))
    interp = np.polynomial.Legendre(coef, domain=[0.0, s_max])
    return 0.5 * interp.integ(lbnd=0.0)(ts)


# ---------------------------------------------------------------------------
# the quadratic boundary functional

@dataclass(frozen=True)
class BoundaryFunctional:
    """Value and read-only per-term breakdown of the quadratic boundary expression."""

    value: float
    form: str
    radius: float
    sign: float
    breakdown: MappingProxyType


@lru_cache(maxsize=128)
def _boundary_terms(h, r: float, level: int) -> MappingProxyType:
    """``_boundary_quadrature`` memoised on (h, r, level), read-only.

    Fields compare by their terms, so equal fields built separately (the
    inner model shared by C and the bracket, say) are integrated once.
    Threads that miss on one key at once each integrate it, to the same bits.
    """
    return MappingProxyType(_boundary_quadrature(h, r, level))


_BOUNDARY_KEYS = ("h_d3", "hess_ij", "cross", "hess_ab", "lap_rad")


def _boundary_quadrature(h, r: float, level: int = 12) -> dict:
    """The five boundary integral families on the sphere of radius r.

    All integrals use the normal nu = +x/|x|.  Keys:
      h_d3   : int h_ij d3_{a b b} h_ij nu^a
      hess_ij: int (d2_{ij} h_{a b}) (d_b h_ij) nu^a
      cross  : int (d2_{b j} h_{i a}) (d_b h_ij) nu^a
      hess_ab: int (d2_{a b} h_ij) (d_b h_ij) nu^a
      lap_rad: int (Lap h_ij) (d_a h_ij) nu^a
    """
    pts, wts = sphere_rule(level)

    def integrands(nu):
        h0, h1, h2, d3_slab = h.jet(r * nu, slab=True)
        return np.array([np.einsum("nij,nabij,na->n", h0, d3_slab, nu),
                         np.einsum("nijab,nbij,na->n", h2, h1, nu),
                         np.einsum("nbjia,nbij,na->n", h2, h1, nu),
                         np.einsum("nabij,nbij,na->n", h2, h1, nu),
                         np.einsum("nbbij,naij,na->n", h2, h1, nu)])

    area = r ** 3
    return {key: area * float(np.sum(wts * val))
            for key, val in zip(_BOUNDARY_KEYS, _pointwise(integrands, pts))}


def boundary_functional(h, r: float, sign: float = 1.0, form: str = "bilap",
                        level: int = 12) -> BoundaryFunctional:
    """The boundary part of the quadratic Weyl expansion at radius r.

    ``sign`` is +1 when the outward normal of the underlying domain is
    +x/|x| on this sphere and -1 when it is -x/|x|.  Form "bilap" carries
    the -(1/2) h d3h term and the half-weighted Laplacian term; form
    "biharm" omits h d3h and weights the Laplacian term fully.
    """
    t = _boundary_terms(h, r, level)
    bracket = t["hess_ij"] - 2.0 * t["cross"] + t["hess_ab"]
    if form == "bilap":
        value = sign * (-0.5 * t["h_d3"] + bracket - 0.5 * t["lap_rad"])
    elif form == "biharm":
        value = sign * (bracket - t["lap_rad"])
    else:
        raise ValueError(f"unknown form {form!r}")
    return BoundaryFunctional(value=float(value), form=form, radius=r,
                              sign=float(sign), breakdown=t)


def _bulk_integral(h, r0: float, r1: float, form: str,
                   level: int = 8, n_radial: int = 24) -> float:
    # panelize wide radial ranges dyadically: a single Gauss rule loses
    # accuracy badly on steep r^-k integrands spanning many octaves; a range
    # starting at (numerically) zero is smooth there and needs no panels.
    # h is a CurvatureQuadraticField, a sum of Q_S(x) f(|x|): even in x, so
    # are its Laplacians and both integrands
    pts, wts = _half_sphere_rule(level)
    if r0 > 1e-6 * r1:
        edges = [r0]
        while edges[-1] * 2.0 < r1:
            edges.append(edges[-1] * 2.0)
        edges.append(r1)
    else:
        edges = [r0, r1]
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
        total += w * r ** 3 * float(np.sum(wts * _pointwise(integrand, r * pts)))
    return 0.5 * total


def second_variation(h, domain, form: str = "bilap") -> BoundaryFunctional:
    """Quadratic Weyl-energy coefficient Phi(h, Omega) for a TT field h.

    ``domain`` is ("ball", r) or ("annulus", r0, r1).  Phi sums, in this
    order, the bulk integral and ``boundary_functional`` on the inner (sign
    -1) and outer (sign +1) sphere; the breakdown prefixes each sphere's
    terms "inner_" or "outer_".  For a field with Lap^2 h = 0 the bilap
    form is purely a boundary expression.
    """
    if domain[0] == "ball":
        bulk_range, spheres = (1e-8 * domain[1], domain[1]), [("outer", domain[1], 1.0)]
    elif domain[0] == "annulus":
        bulk_range = (domain[1], domain[2])
        spheres = [("inner", domain[1], -1.0), ("outer", domain[2], 1.0)]
    else:
        raise ValueError(f"unknown domain {domain[0]!r}")
    probe = np.array([[0.3, -0.2, 0.4, 0.1]]) * domain[1]
    tr = np.abs(h.trace(probe)).max()
    dv = np.abs(h.divergence(probe)).max()
    scale = max(np.abs(h.derivative(probe, 0)).max(), 1.0)
    if max(tr, dv) > 1e-9 * scale:
        raise ValueError("second variation requires a transverse-traceless field")

    value = bulk = _bulk_integral(h, *bulk_range, form)
    breakdown = {"bulk": bulk}
    for label, r, sign in spheres:
        bnd = boundary_functional(h, r, sign, form)
        value += bnd.value
        breakdown.update({f"{label}_{k}": v for k, v in bnd.breakdown.items()})
    return BoundaryFunctional(value=float(value), form=form,
                              radius=float(domain[1]), sign=1.0,
                              breakdown=MappingProxyType(breakdown))


# ---------------------------------------------------------------------------
# the inner and outer expansions

def phi_inner(wdot: CurvatureQuadraticField, gamma: float) -> BoundaryFunctional:
    """Boundary functional of the interpolant wdot at |x| = gamma, annulus side."""
    return boundary_functional(wdot, float(gamma), -1.0, "bilap")


def phi_outer(wdot: CurvatureQuadraticField) -> BoundaryFunctional:
    """Boundary functional of the interpolant wdot at |x| = 1, annulus side."""
    return boundary_functional(wdot, 1.0, 1.0, "bilap")


def inner_model_energy(wm, gamma: float) -> float:
    """a^-4-normalized Weyl energy of the decaying model on |x| > gamma."""
    return boundary_functional(model_F(wm), gamma, -1.0, "bilap").value


def outer_model_energy(wz) -> float:
    """b^-4-normalized Weyl energy of the growing model on the unit ball."""
    return boundary_functional(model_H(wz), 1.0, 1.0, "bilap").value


def extract_interaction_coefficient(wm, wz, gamma: float, lam_grid=LAMBDA_GRID) -> dict:
    """Least-squares fit of Phi_gamma and Phi_1 against the basis {1, lam^2, lam^4}.

    Both functionals are exactly quadratic in lam^2, so the fit recovers the
    lam^2 coefficients to roundoff; each should equal -(2/9) pi^2 (W * W)
    up to the O(lam^2 gamma^2) remainder.
    """
    lam_grid = np.asarray(lam_grid, dtype=float)
    rows, inner_vals, outer_vals = [], [], []
    for lam in lam_grid:
        wdot = assemble_interpolant(wm, wz, gamma, lam)
        inner_vals.append(phi_inner(wdot, gamma).value)
        outer_vals.append(phi_outer(wdot).value)
        rows.append([1.0, lam ** 2, lam ** 4])
    basis = np.asarray(rows)
    cond = np.linalg.cond(basis)
    if cond > 1e12:
        raise ValueError(f"ill-conditioned interaction fit (cond = {cond:.2e})")
    fit_in, res_in, _, _ = np.linalg.lstsq(basis, np.asarray(inner_vals), rcond=None)
    fit_out, res_out, _, _ = np.linalg.lstsq(basis, np.asarray(outer_vals), rcond=None)
    return {
        "coeff_inner": float(fit_in[1]),
        "coeff_outer": float(fit_out[1]),
        "fit_inner": fit_in,
        "fit_outer": fit_out,
        "lam_grid": lam_grid,
        "fit_residual": float((np.sum(res_in) + np.sum(res_out)) ** 0.5
                              if res_in.size and res_out.size else 0.0),
        "predicted": 0.5 * INTERACTION_COEFFICIENT * interaction_star(wm, wz),
    }


# ---------------------------------------------------------------------------
# the energy balance

@dataclass(frozen=True)
class EnergyBalance:
    """Decomposition of the a^4-order energy bracket E_{lam, gamma}: the
    bracket is C + INTERACTION_COEFFICIENT lam^2 (W * W) + remainder, and
    ``to_json`` reports the middle term as ``interaction_term``."""

    leading_bracket: float
    constant_C: float
    interaction: float
    lam: float
    gamma: float
    a: float
    remainder: float

    def to_json(self) -> dict:
        return {
            "leading_bracket": self.leading_bracket,
            "constant_C": self.constant_C,
            "interaction": self.interaction,
            "interaction_term": INTERACTION_COEFFICIENT * self.lam ** 2 * self.interaction,
            "remainder": self.remainder,
            "lam": self.lam,
            "gamma": self.gamma,
            "a": self.a,
        }


def leading_bracket(wm, wz, gamma: float, lam: float) -> float:
    """Phi_gamma + Phi_1 minus the two model energies at the same scales."""
    wdot = assemble_interpolant(wm, wz, gamma, lam)
    return (phi_inner(wdot, gamma).value + phi_outer(wdot).value
            - inner_model_energy(wm, gamma)
            - lam ** 4 * outer_model_energy(wz))


def constant_C(wm, gamma: float) -> float:
    """The constant C of the bracket at gamma: ``leading_bracket`` of the
    pair (wm, 0), which does not depend on lam.

    The interpolant of that pair has zero Dirichlet and Neumann data on
    |x| = 1, so its ``phi_outer`` is 0 up to roundoff (about 1e-14, below
    half an ulp of ``phi_inner``), and the outer model of W^Z = 0 is 0; C
    is ``phi_inner`` minus the inner model energy, bit for bit the bracket.
    """
    wdot = assemble_interpolant(wm, np.zeros((DIM,) * 4), gamma, 1.0)
    return phi_inner(wdot, gamma).value - inner_model_energy(wm, gamma)


def energy_balance(wm, wz, params: GluingParams) -> EnergyBalance:
    """The a^4-order Weyl-energy balance of the glued metric.

    leading_bracket = C - (4/9) pi^2 lam^2 (W * W) + remainder, where C is
    ``constant_C`` at the same gamma and the remainder collects the
    O(lam^2 gamma^2) terms.  With the truncated error model the
    cutoff-region contribution is exactly zero.
    """
    bracket = leading_bracket(wm, wz, params.gamma, params.lam)
    c_const = constant_C(wm, params.gamma)
    inter = interaction_star(wm, wz)
    predicted = c_const + INTERACTION_COEFFICIENT * params.lam ** 2 * inter
    return EnergyBalance(leading_bracket=float(bracket), constant_C=float(c_const),
                         interaction=float(inter), lam=params.lam, gamma=params.gamma,
                         a=params.a, remainder=float(bracket - predicted))


class MarginNotReached(ValueError):
    """No gamma of the grid brings the leading bracket below -margin."""


def choose_parameters(wm, wz, margin: float = 1.0) -> GluingParams:
    """Pick (lam, gamma, a) making the leading bracket < -margin.

    Follows the existence proof's order: lam first from the fitted constant
    and interaction, then gamma from the descending grid with the bracket
    measured directly, then a safely inside the regime.
    """
    if not 0.0 <= margin < np.inf:
        raise ValueError(f"margin must be finite and at least 0, got {margin}")
    flags = positivity_bound(wm, wz)
    if flags["conformally_flat_factor"] or flags["excluded_case"] or not flags["positive"]:
        raise ValueError("hypotheses violated: interaction term is not positive "
                         f"(flags: {flags})")
    inter = interaction_star(wm, wz)
    gamma0 = GAMMA_GRID[-1]
    c_const = constant_C(wm, gamma0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lam2 = np.float64(c_const + 2.0 * margin) / (-INTERACTION_COEFFICIENT * inter)
    lam = float(np.sqrt(max(lam2, 0.0)) * 1.1 + 1.0)
    if not np.isfinite(lam):
        raise ValueError(f"floating-point overflow: lam = {lam} from C = {c_const} "
                         f"and W * W = {inter}")
    chosen = None
    compatible = [g for g in GAMMA_GRID if g <= 1.0 / (10.0 * lam)]
    fallback = [g for g in GAMMA_GRID if g not in compatible]
    for gamma in compatible + fallback:
        bracket = leading_bracket(wm, wz, gamma, lam)
        if bracket < -margin:
            chosen = gamma
            break
    if chosen is None:
        raise MarginNotReached("no gamma in the grid achieves the requested margin")
    a = chosen ** 2 / 20.0
    return GluingParams(a=a, lam=lam, gamma=chosen)


# ---------------------------------------------------------------------------
# rough bound for the cutoff region

def rough_energy_bound(chart, r0: float, r1: float, level: int = 8,
                       n_radial: int = 12) -> dict:
    """Crude upper bound C(|g|, |g^-1|) int (|dg^-1|^2 |dg|^2 + |dg|^4 + |d2g|^2).

    The constant is generous by design; the bound is a scaling diagnostic
    (it realizes the a^(9/2) gamma^-5 size of the cutoff-region error), not
    a sharp estimate.  Always at least the numeric Weyl energy.
    """
    pts, wts = sphere_rule(level)
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
    const = 1.0e6 * (1.0 + sup_g) ** 6 * (1.0 + sup_ginv) ** 10
    return {"value": const * integral, "integral": integral, "constant": const,
            "sup_g": sup_g, "sup_ginv": sup_ginv}
