"""Weyl-energy evaluation, boundary functionals, and the energy balance.

Everything here reduces to integrals over spheres and radial intervals,
evaluated with tensor-product Gauss-Legendre rules in hyperspherical angles.
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

import threading
from collections import OrderedDict
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .tensor_core import DIM
from .fields import CurvatureQuadraticField, _as_batch
from . import curvature as _curv
from .biharmonic import InterpSolution, assemble_interpolant
from .duality import interaction_star, positivity_bound
from .gluing import GluingParams, model_F, model_H

VOL_S3 = 2.0 * np.pi ** 2

#: Default lambda grid for interaction-coefficient fits.
LAMBDA_GRID = (2.0, 4.0, 6.0, 8.0, 10.0)
#: Default gamma grid for remainder studies and parameter selection.
GAMMA_GRID = (0.08, 0.04, 0.02)


# ---------------------------------------------------------------------------
# quadrature

def sphere_rule(level: int = 12):
    """Product quadrature rule on the unit 3-sphere.

    Hyperspherical angles (psi, theta, phi) with node counts
    (level, level, 2 level) and the density sin^2(psi) sin(theta) folded
    into the weights.  Weights sum to Vol(S^3) = 2 pi^2 and the rule is
    exact for polynomials in the ambient coordinates of degree < 2 level.
    """
    if level < 2:
        raise ValueError("quadrature level must be at least 2")
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


def sphere_moment_quadrature(mu: int, nu: int, k: int, l: int, level: int = 12) -> float:
    pts, wts = sphere_rule(level)
    return float(np.sum(wts * pts[:, mu] * pts[:, nu] * pts[:, k] * pts[:, l]))


# ---------------------------------------------------------------------------
# direct Weyl energy

def weyl_energy_numeric(chart, r0: float, r1: float, level: int = 10,
                        n_radial: int = 16, chunk: int = 4096) -> float:
    """int |W|^2_g dV_g over the annulus (or ball when r0 = 0) r0 < |x| < r1."""
    pts, wts = sphere_rule(level)
    rs, wr = radial_rule(max(r0, 1e-9 if r0 == 0.0 else r0), r1, n_radial)
    total = 0.0
    for r, w in zip(rs, wr):
        xb = r * pts
        vals = np.empty(xb.shape[0])
        for start in range(0, xb.shape[0], chunk):
            vals[start:start + chunk] = _curv.weyl_density(chart, xb[start:start + chunk])
        total += w * r ** 3 * float(np.sum(wts * vals))
    return total


# ---------------------------------------------------------------------------
# the quadratic boundary functional

@dataclass(frozen=True)
class BoundaryFunctional:
    """Value and per-term breakdown of the quadratic boundary expression."""

    value: float
    form: str
    radius: float
    sign: float
    breakdown: dict


#: Most boundary-term sets kept by ``_boundary_terms``; a default sweep
#: needs about 40.
_BOUNDARY_CACHE_SIZE = 128
_boundary_cache: OrderedDict = OrderedDict()
_boundary_lock = threading.Lock()


def _boundary_terms(h, r: float, level: int = 12) -> dict:
    """``_boundary_quadrature`` memoised on the content of the field.

    The key is the ordered (coeff, S, power) of each term of a
    ``CurvatureQuadraticField`` plus r and level, so equal fields built
    separately (the inner model shared by C and the bracket, C at two
    values of lam, the bilap and biharm forms of one field) are integrated
    once.  Each call returns a fresh dict.  Fields without ``terms`` are not
    cached.
    """
    terms = getattr(h, "terms", None)
    if terms is None:
        return _boundary_quadrature(h, r, level)
    key = (tuple((c, s.tobytes(), p) for c, s, p in terms), float(r), int(level))
    with _boundary_lock:
        hit = _boundary_cache.get(key)
        if hit is not None:
            _boundary_cache.move_to_end(key)
            return dict(hit)
    out = _boundary_quadrature(h, r, level)
    with _boundary_lock:
        _boundary_cache[key] = out
        while len(_boundary_cache) > _BOUNDARY_CACHE_SIZE:
            _boundary_cache.popitem(last=False)
    return dict(out)


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
    h0, h1, h2, d3_slab = h.jet(r * pts, slab=True)
    nu = pts
    area = r ** 3
    terms = {
        "h_d3": np.einsum("nij,nabij,na->n", h0, d3_slab, nu),
        "hess_ij": np.einsum("nijab,nbij,na->n", h2, h1, nu),
        "cross": np.einsum("nbjia,nbij,na->n", h2, h1, nu),
        "hess_ab": np.einsum("nabij,nbij,na->n", h2, h1, nu),
        "lap_rad": np.einsum("nbbij,naij,na->n", h2, h1, nu),
    }
    return {key: area * float(np.sum(wts * val)) for key, val in terms.items()}


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
                   level: int = 8, n_radial: int = 24, chunk: int = 1024) -> float:
    # panelize wide radial ranges dyadically: a single Gauss rule loses
    # accuracy badly on steep r^-k integrands spanning many octaves; a range
    # starting at (numerically) zero is smooth there and needs no panels
    pts, wts = sphere_rule(level)
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
    total = 0.0
    for r, w in zip(rs, wr):
        xb = r * pts
        vals = np.empty(xb.shape[0])
        for start in range(0, xb.shape[0], chunk):
            xc = xb[start:start + chunk]
            if form == "bilap":
                vals[start:start + chunk] = np.einsum(
                    "nij,nij->n", h.bilaplacian(xc), h.derivative(xc, 0))
            else:
                lap = h.laplacian(xc)
                vals[start:start + chunk] = np.einsum("nij,nij->n", lap, lap)
        total += w * r ** 3 * float(np.sum(wts * vals))
    return 0.5 * total


def second_variation(h, domain, form: str = "bilap", level: int = 12,
                     tt_tol: float = 1e-9, r_far: float = 64.0) -> BoundaryFunctional:
    """Quadratic Weyl-energy coefficient Phi(h, Omega) for a TT field h.

    ``domain`` is ("ball", r), ("annulus", r0, r1) or ("exterior", r0); the
    exterior bulk (biharm form only) is truncated at ``r_far`` with the
    truncation reported in the breakdown.  For a field with Lap^2 h = 0 the
    bilap form is purely a boundary expression.
    """
    probe = np.array([[0.3, -0.2, 0.4, 0.1]]) * (1.0 if domain[0] == "ball" else domain[1])
    tr = np.abs(h.trace(probe)).max()
    dv = np.abs(h.divergence(probe)).max()
    scale = max(np.abs(h.derivative(probe, 0)).max(), 1.0)
    if max(tr, dv) > tt_tol * scale:
        raise ValueError("second variation requires a transverse-traceless field")

    breakdown = {}
    if domain[0] == "ball":
        r = domain[1]
        bnd = boundary_functional(h, r, 1.0, form, level)
        bulk = _bulk_integral(h, 1e-8 * r, r, form)
        value = bulk + bnd.value
        breakdown = {"bulk": bulk, **{f"outer_{k}": v for k, v in bnd.breakdown.items()}}
    elif domain[0] == "annulus":
        r0, r1 = domain[1], domain[2]
        inner = boundary_functional(h, r0, -1.0, form, level)
        outer = boundary_functional(h, r1, 1.0, form, level)
        bulk = _bulk_integral(h, r0, r1, form)
        value = bulk + inner.value + outer.value
        breakdown = {"bulk": bulk,
                     **{f"inner_{k}": v for k, v in inner.breakdown.items()},
                     **{f"outer_{k}": v for k, v in outer.breakdown.items()}}
    elif domain[0] == "exterior":
        r0 = domain[1]
        inner = boundary_functional(h, r0, -1.0, form, level)
        if form == "biharm":
            bulk = _bulk_integral(h, r0, r_far, form)
            far = boundary_functional(h, r_far, 1.0, form, level)
            value = bulk + inner.value + far.value
            breakdown = {"bulk": bulk, "far_boundary": far.value,
                         "truncation_radius": r_far,
                         **{f"inner_{k}": v for k, v in inner.breakdown.items()}}
        else:
            bulk = 0.0
            value = inner.value
            breakdown = {"bulk": 0.0,
                         **{f"inner_{k}": v for k, v in inner.breakdown.items()}}
    else:
        raise ValueError(f"unknown domain {domain[0]!r}")
    return BoundaryFunctional(value=float(value), form=form,
                              radius=float(domain[1]), sign=1.0,
                              breakdown=breakdown)


# ---------------------------------------------------------------------------
# the inner and outer expansions

def phi_inner(interp: InterpSolution, level: int = 12) -> BoundaryFunctional:
    """Boundary functional of the interpolant at |x| = gamma, annulus side."""
    return boundary_functional(interp.wdot, interp.gamma, -1.0, "bilap", level)


def phi_outer(interp: InterpSolution, level: int = 12) -> BoundaryFunctional:
    """Boundary functional of the interpolant at |x| = 1, annulus side."""
    return boundary_functional(interp.wdot, 1.0, 1.0, "bilap", level)


def inner_model_energy(wm, gamma: float, level: int = 12) -> float:
    """a^-4-normalized Weyl energy of the decaying model on |x| > gamma."""
    return boundary_functional(model_F(wm), gamma, -1.0, "bilap", level).value


def outer_model_energy(wz, level: int = 12) -> float:
    """b^-4-normalized Weyl energy of the growing model on the unit ball."""
    return boundary_functional(model_H(wz), 1.0, 1.0, "bilap", level).value


def extract_interaction_coefficient(wm, wz, gamma: float,
                                    lam_grid=LAMBDA_GRID, level: int = 12) -> dict:
    """Least-squares fit of Phi_gamma and Phi_1 against the basis {1, lam^2, lam^4}.

    Both functionals are exactly quadratic in lam^2, so the fit recovers the
    lam^2 coefficients to roundoff; each should equal -(2/9) pi^2 (W * W)
    up to the O(lam^2 gamma^2) remainder.
    """
    lam_grid = np.asarray(lam_grid, dtype=float)
    rows, inner_vals, outer_vals = [], [], []
    for lam in lam_grid:
        interp = assemble_interpolant(wm, wz, SimpleNamespace(gamma=gamma, lam=lam))
        inner_vals.append(phi_inner(interp, level).value)
        outer_vals.append(phi_outer(interp, level).value)
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
        "predicted": -(2.0 / 9.0) * np.pi ** 2 * interaction_star(wm, wz),
    }


# ---------------------------------------------------------------------------
# the energy balance

@dataclass(frozen=True)
class EnergyBalance:
    """Decomposition of the a^4-order energy bracket E_{lam, gamma}."""

    leading_bracket: float
    constant_C: float
    interaction: float
    lam: float
    gamma: float
    a: float
    remainder: float
    cutoff_region_term: float
    interaction_coefficient: float = -(4.0 / 9.0) * np.pi ** 2

    def to_json(self) -> dict:
        return {
            "leading_bracket": self.leading_bracket,
            "constant_C": self.constant_C,
            "interaction": self.interaction,
            "interaction_term": self.interaction_coefficient * self.lam ** 2 * self.interaction,
            "remainder": self.remainder,
            "cutoff_region_term": self.cutoff_region_term,
            "lam": self.lam,
            "gamma": self.gamma,
            "a": self.a,
        }


def leading_bracket(wm, wz, gamma: float, lam: float, level: int = 12) -> float:
    """Phi_gamma + Phi_1 minus the two model energies at the same scales."""
    interp = assemble_interpolant(wm, wz, SimpleNamespace(gamma=gamma, lam=lam))
    return (phi_inner(interp, level).value + phi_outer(interp, level).value
            - inner_model_energy(wm, gamma, level)
            - lam ** 4 * outer_model_energy(wz, level))


def energy_balance(wm, wz, params: GluingParams, level: int = 12) -> EnergyBalance:
    """The a^4-order Weyl-energy balance of the glued metric.

    leading_bracket = C - (4/9) pi^2 lam^2 (W * W) + remainder, where C is
    extracted from the interaction-free run (wz = 0) at the same gamma and
    the remainder collects the O(lam^2 gamma^2) terms.  With the truncated
    error model the cutoff-region contribution is exactly zero.
    """
    bracket = leading_bracket(wm, wz, params.gamma, params.lam, level)
    c_const = leading_bracket(wm, np.zeros((DIM,) * 4), params.gamma, params.lam, level)
    inter = interaction_star(wm, wz)
    predicted = c_const - (4.0 / 9.0) * np.pi ** 2 * params.lam ** 2 * inter
    return EnergyBalance(leading_bracket=float(bracket), constant_C=float(c_const),
                         interaction=float(inter), lam=params.lam, gamma=params.gamma,
                         a=params.a, remainder=float(bracket - predicted),
                         cutoff_region_term=0.0)


class MarginNotReached(ValueError):
    """No gamma of the grid brings the leading bracket below -margin."""


def choose_parameters(wm, wz, margin: float = 1.0, level: int = 12) -> GluingParams:
    """Pick (lam, gamma, a) making the leading bracket < -margin.

    Follows the existence proof's order: lam first from the fitted constant
    and interaction, then gamma from the descending grid with the bracket
    measured directly, then a safely inside the regime.
    """
    if not np.isfinite(margin):
        raise ValueError(f"margin must be finite, got {margin}")
    flags = positivity_bound(wm, wz)
    if flags["conformally_flat_factor"] or flags["excluded_case"] or not flags["positive"]:
        raise ValueError("hypotheses violated: interaction term is not positive "
                         f"(flags: {flags})")
    inter = interaction_star(wm, wz)
    gamma0 = GAMMA_GRID[-1]
    c_const = leading_bracket(wm, np.zeros((DIM,) * 4), gamma0, 1.0, level)
    lam2 = max((c_const + 2.0 * margin) / ((4.0 / 9.0) * np.pi ** 2 * inter), 0.0)
    lam = float(np.sqrt(lam2) * 1.1 + 1.0)
    chosen = None
    compatible = [g for g in GAMMA_GRID if g <= 1.0 / (10.0 * lam)]
    fallback = [g for g in GAMMA_GRID if g not in compatible]
    for gamma in compatible + fallback:
        bracket = leading_bracket(wm, wz, gamma, lam, level)
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
