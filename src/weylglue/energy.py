"""Weyl-energy evaluation, boundary functionals, and the energy balance.

Sphere integrals are evaluated with tensor-product Gauss-Legendre rules in
hyperspherical angles.  For a field h homogeneous of degree 2 the radial
integral of the Weyl energy becomes one in the dilation parameter:
delta + t h at radius r is a dilation of delta + t r^2 h at radius 1, and
|W|^2 dV is conformally invariant in dimension 4, so

    int_{|x|<1} |W|^2 dV = (1/2) int_0^t F(s) ds / s,

with F(s) the integral of |W|^2 dV of delta + s h over the unit sphere.
The quadratic Weyl-energy expansion at the flat metric for a TT field h is

    W(delta + t h) = t^2 Phi(h, Omega) + O(t^3),

where Phi is available in two algebraically equal forms: the "biharm" form
with bulk (1/2) int (Lap h)^2, and the "bilap" form with bulk
(1/2) int (Lap^2 h) h, which is boundary-only for biharmonic fields.
``second_variation`` computes Phi in closed form: each term of a field is
an eigenfunction of the Laplacian and every integrand of a pair of terms is
homogeneous, so the bulk term and each sphere term are sums over pairs of
terms of one S^3 moment times a polynomial kernel in the two powers and a
power of the radius.  The level-12 boundary quadrature,
``boundary_functional``, serves the energy bracket and is the sphere
terms' oracle in the tests.  All boundary functionals are written with the
normal +x/|x| and a sign factor supplied by the caller (+1 when that is
the outward normal of the domain, -1 when the domain lies outside the
sphere).  Nothing here integrates along a radius: the direct Weyl-energy
quadrature over a ball or an annulus, its radial rule, the cutoff-region
bound and the bulk quadrature are test oracles, in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .tensor_core import DIM
from .fields import CurvatureQuadraticField
from .curvature import _weyl_density
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


#: Points per batch of every sphere loop; 384 divides the 3456 points of the
#: level-12 rule.  The field kernel's products and the boundary integrands'
#: einsums run over a chunk's points as their inner loop, so shorter chunks
#: pay more per-loop overhead, and longer ones outgrow the cache (a chunk's
#: jet block is 3.4 MB at 384).  In interleaved CPU-time runs of the five
#: level-12 boundary quadratures of a balance, chunks of 432 points took 3%
#: longer than 384, 192 and 576 took 11-15% longer, 128 24% and 864 40%
#: (medians of three runs of 15, 2-vCPU Xeon VM).
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
# the Weyl energy by dilation

#: Gauss-Legendre nodes in the dilation parameter s used by ``dilation_energy``.
DILATION_NODES = 8
#: Points per batch of ``dilation_energy``.  A chunk's jet is held through
#: all ``DILATION_NODES`` density passes; at 64 points it and a pass's
#: temporaries stay small enough that the C allocator keeps them between
#: passes instead of handing them back and faulting them in again (at
#: ``SPHERE_CHUNK`` points that made the loop about 1.7 times slower), and
#: they add little to a process's peak memory.  The result is bit for bit
#: the same at chunks 1, 7, 64, 128 and 1000 (model_H, four tensors).  At 64
#: each density pass has half the temporaries of 128, for about 13%
#: more CPU: ``verify variation``'s call took a median 33.7 ms against
#: 29.8 ms (21 interleaved in-process runs, 2-vCPU Xeon VM).
DILATION_CHUNK = 64


def dilation_energy(h, ts, level: int = 10) -> np.ndarray:
    """int_{|x|<1} |W|^2 dV of delta + t h for each t in ``ts``, by dilation.

    For h homogeneous of degree 2 the chart delta + t h at radius r is the
    dilation of delta + t r^2 h at radius 1, so conformal invariance gives
    E(t) = (1/2) int_0^t G(s) ds with G(s) = F(s) / s and
    F(s) = int_{S^3} |W|^2 dV of delta + s h.  G is analytic and O(s); it is
    sampled at ``DILATION_NODES`` Gauss-Legendre nodes on [0, max(ts)],
    interpolated by a polynomial and integrated exactly, so every t shares
    the same sphere passes.  The jet of h does not depend on s: each chunk
    of sphere points forms it once, and each node's metric jet
    (delta + s h, s dh, s d2h) is formed from it as ``FieldChart`` forms it.
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
    scales = 0.5 * s_max * (x + 1.0)
    dens = np.empty((DILATION_NODES, wts.size))
    eye = np.eye(DIM)
    for start in range(0, wts.size, DILATION_CHUNK):
        h0, h1, h2 = h.jet(pts[start:start + DILATION_CHUNK])
        for row, s in zip(dens, scales):
            row[start:start + DILATION_CHUNK] = _weyl_density(eye + s * h0, s * h1, s * h2)
    g = np.array([np.sum(wts * row) for row in dens]) / scales
    # interpolant in Legendre form: at Gauss nodes the discrete projection is exact
    vander = np.polynomial.legendre.legvander(x, DILATION_NODES - 1)
    coef = (np.arange(DILATION_NODES) + 0.5) * (vander.T @ (w * g))
    interp = np.polynomial.Legendre(coef, domain=[0.0, s_max])
    return 0.5 * interp.integ(lbnd=0.0)(ts)


# ---------------------------------------------------------------------------
# the quadratic boundary functional

def _boundary_quadrature(h, r: float, level: int = 12) -> tuple:
    """The five boundary integral families on the sphere of radius r.

    All integrals use the normal nu = +x/|x|.  In order:
      h_d3   : int h_ij d3_{a b b} h_ij nu^a
      hess_ij: int (d2_{ij} h_{a b}) (d_b h_ij) nu^a
      cross  : int (d2_{b j} h_{i a}) (d_b h_ij) nu^a
      hess_ab: int (d2_{a b} h_ij) (d_b h_ij) nu^a
      lap_rad: int (Lap h_ij) (d_a h_ij) nu^a
    """
    pts, wts = sphere_rule(level)
    area = r ** 3
    return tuple(area * float(np.sum(wts * val))
                 for val in _pointwise(partial(_boundary_integrands, h, r), pts))


def _boundary_integrands(h, r: float, nu):
    """The five integrands of ``_boundary_quadrature`` at the points r nu,
    shape (5, N).

    Each is one np.einsum of its two jet factors and nu over the jet with
    the point axis last, written into its row.  Every point's value is the
    sum of its 256 products, added in (a, b, i, j) order, (b, i, j, a) for
    ``cross``, whatever the number of points, so it does not depend on the
    points that come along.
    """
    h0, h1, h2, d3 = h._jet_points_last(r * nu)
    nu_t = np.ascontiguousarray(nu.T)
    integrands = (("ijn,abijn,an->n", h0, d3),   # h_d3
                  ("ijabn,bijn,an->n", h2, h1),  # hess_ij
                  ("bjian,bijn,an->n", h2, h1),  # cross
                  ("abijn,bijn,an->n", h2, h1),  # hess_ab
                  ("bbijn,aijn,an->n", h2, h1))  # lap_rad
    vals = np.empty((len(integrands), nu.shape[0]))
    for val, (subscripts, first, second) in zip(vals, integrands):
        np.einsum(subscripts, first, second, nu_t, out=val)
    return vals


def boundary_functional(h, r: float, sign: float = 1.0, form: str = "bilap",
                        level: int = 12) -> float:
    """The boundary part of the quadratic Weyl expansion at radius r.

    ``sign`` is +1 when the outward normal of the underlying domain is
    +x/|x| on this sphere and -1 when it is -x/|x|.  Form "bilap" carries
    the -(1/2) h d3h term and the half-weighted Laplacian term; form
    "biharm" omits h d3h and weights the Laplacian term fully.  An unknown
    form, or an r that is not finite and positive, is refused before any
    quadrature.
    """
    if form not in ("bilap", "biharm"):
        raise ValueError(f"unknown form {form!r}")
    if not 0.0 < r < np.inf:
        raise ValueError(f"the radius must be finite and positive, got {r}")
    h_d3, hess_ij, cross, hess_ab, lap_rad = _boundary_quadrature(h, r, level)
    bracket = hess_ij - 2.0 * cross + hess_ab
    if form == "bilap":
        value = sign * (-0.5 * h_d3 + bracket - 0.5 * lap_rad)
    else:
        value = sign * (bracket - lap_rad)
    return float(value)


def _bulk_kernel(form: str, p: float, q: float) -> float:
    """K of the bulk term for the ordered pair of powers (p, q).

    Each term c Q_S(x) |x|^p of h is an eigenfunction of the Laplacian:
    Lap (Q_S r^p) = p (p + 6) Q_S r^(p-2) and
    Lap^2 (Q_S r^p) = mu(p) Q_S r^(p-4) with mu(p) = p (p + 6) (p - 2) (p + 4),
    so (1/2) int (Lap^2 h) h ("bilap") takes K = mu(p) and
    (1/2) int |Lap h|^2 ("biharm") K = p (p + 6) q (q + 6).
    """
    if form == "bilap":
        return p * (p + 6.0) * (p - 2.0) * (p + 4.0)
    return p * (p + 6.0) * q * (q + 6.0)


def _sphere_kernel(form: str, p: float, q: float) -> float:
    """K of ``boundary_functional`` for the pair of powers (p, q): two terms
    c_t W_t x x |x|^(p_t) and c_u W_u x x |x|^(p_u) add
    sign pi^2 c_t c_u <W_t, W_u> K(p_t, p_u) r^(p_t + p_u + 4) on the sphere
    of radius r.

    A polynomial of degree 3 ("bilap") or 2 ("biharm"), with rational
    coefficients fitted to the level-12 quadrature over 45 (p, q) pairs;
    the tests check it against that quadrature.
    """
    if form == "bilap":
        return (9.0 / 2.0 + (9.0 / 8.0) * (p + q) - (p * p + q * q) / 8.0
                - (p ** 3 + q ** 3) / 32.0 + p * q / 4.0 + p * q * (p + q) / 32.0)
    return 9.0 / 2.0 + (3.0 / 4.0) * (p + q) - p * q / 8.0


def _closed_form_phi(h, form: str, r0: float, r1: float, spheres) -> float:
    """Phi of h in closed form: the bulk term on r0 < |x| < r1 plus, for
    each (r, sign) of ``spheres``, ``boundary_functional(h, r, sign, form)``.

    For trace-free S the degree-4 moments of ``sphere_moment`` give
    int_{S^3} <Q_S, Q_T> = (pi^2 / 6) <S, T>, and every integrand of a pair
    of terms c_t Q_(S_t) r^(p_t), c_u Q_(S_u) r^(p_u) is homogeneous of
    degree e - 4 with e = p_t + p_u + 4, so Phi is

        pi^2 sum_(t,u) c_t c_u <S_t, S_u> [K_bulk(p_t, p_u) R(e) / 12
                                           + (4/3) sum_spheres sign K_sphere(p_t, p_u) r^e]

    with R(e) = int_r0^r1 r^(e-1) dr, a logarithm at e = 0; the 4/3 turns
    the sphere kernel's <W_t, W_u> into <S_t, S_u> = (3/4) <W_t, W_u> of the
    stored symmetrized tensors.  A pair with K_bulk = 0 adds an exact 0 to
    the bulk, so the bilap bulk of a biharmonic field is exactly 0.  The
    Gram <S_t, S_u> is formed once per pair of blocks.
    """
    total = 0.0
    for s, profile in h.blocks:
        for t, other in h.blocks:
            gram = float(np.sum(s * t))
            for c, p in profile:
                for d, q in other:
                    e = p + q + 4.0
                    radial = np.log(r1 / r0) if e == 0.0 else (r1 ** e - r0 ** e) / e
                    pair = _bulk_kernel(form, p, q) * radial / 12.0
                    for r, sign in spheres:
                        pair += (4.0 / 3.0) * sign * _sphere_kernel(form, p, q) * r ** e
                    total += c * d * gram * pair
    return float(np.pi ** 2 * total)


def second_variation(h, domain, form: str = "bilap") -> float:
    """Quadratic Weyl-energy coefficient Phi(h, Omega) for a TT field h.

    ``domain`` is ("ball", r) or ("annulus", r0, r1).  Phi is the bulk term
    plus ``boundary_functional`` on the inner (sign -1) and outer (sign +1)
    sphere, summed in closed form over pairs of terms
    (``_closed_form_phi``): no sphere is integrated.  For a field with
    Lap^2 h = 0 the bilap form is purely a boundary expression.  An unknown
    form or domain is refused before any evaluation, and so are radii that
    are not finite with 0 < r and 0 < r0 < r1, and a ball for a field with
    a power p <= -2: such a term is not in H^2 near 0, and its Phi diverges.
    """
    if form not in ("bilap", "biharm"):
        raise ValueError(f"unknown form {form!r}")
    if len(domain) == 2 and domain[0] == "ball":
        bulk_range, spheres = (0.0, domain[1]), [(domain[1], 1.0)]
    elif len(domain) == 3 and domain[0] == "annulus":
        bulk_range = (domain[1], domain[2])
        spheres = [(domain[1], -1.0), (domain[2], 1.0)]
    else:
        raise ValueError(f"unknown domain {tuple(domain)!r}; the domains are "
                         "('ball', r) and ('annulus', r0, r1)")
    radii = domain[1:]
    if (not all(0.0 < r < np.inf for r in radii)
            or any(lo >= hi for lo, hi in zip(radii, radii[1:]))):
        raise ValueError(f"bad radii in {tuple(domain)!r}: they must be finite, "
                         "with 0 < r and 0 < r0 < r1")
    if domain[0] == "ball" and any(p <= -2.0 for _, _, p in h.terms):
        raise ValueError("a field with a power p <= -2 is not in H^2 near 0, "
                         "so its second variation on a ball diverges")
    probe = np.array([[0.3, -0.2, 0.4, 0.1]]) * domain[1]
    tr = np.abs(h.trace(probe)).max()
    dv = np.abs(h.divergence(probe)).max()
    scale = max(np.abs(h.derivative(probe, 0)).max(), 1.0)
    if max(tr, dv) > 1e-9 * scale:
        raise ValueError("second variation requires a transverse-traceless field")
    return _closed_form_phi(h, form, *bulk_range, spheres)


# ---------------------------------------------------------------------------
# the inner and outer expansions

def phi_inner(wdot: CurvatureQuadraticField, gamma: float) -> float:
    """Boundary functional of the interpolant wdot at |x| = gamma, annulus side."""
    return boundary_functional(wdot, float(gamma), -1.0, "bilap")


def phi_outer(wdot: CurvatureQuadraticField) -> float:
    """Boundary functional of the interpolant wdot at |x| = 1, annulus side."""
    return boundary_functional(wdot, 1.0, 1.0, "bilap")


def inner_model_energy(wm, gamma: float) -> float:
    """a^-4-normalized Weyl energy of the decaying model on |x| > gamma."""
    return boundary_functional(model_F(wm), gamma, -1.0, "bilap")


def outer_model_energy(wz) -> float:
    """b^-4-normalized Weyl energy of the growing model on the unit ball."""
    return boundary_functional(model_H(wz), 1.0, 1.0, "bilap")


def extract_interaction_coefficient(wm, wz, gamma: float, lam_grid=LAMBDA_GRID) -> dict:
    """Least-squares fit of Phi_gamma and Phi_1 against the basis {1, lam^2, lam^4}.

    Both functionals are exactly quadratic in lam^2, so the fit recovers the
    lam^2 coefficients to roundoff; each should equal -(2/9) pi^2 (W * W)
    up to the O(lam^2 gamma^2) remainder.
    """
    rows, inner_vals, outer_vals = [], [], []
    for lam in np.asarray(lam_grid, dtype=float):
        wdot = assemble_interpolant(wm, wz, gamma, lam)
        inner_vals.append(phi_inner(wdot, gamma))
        outer_vals.append(phi_outer(wdot))
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
        "fit_residual": float((np.sum(res_in) + np.sum(res_out)) ** 0.5
                              if res_in.size and res_out.size else 0.0),
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


def _bracket(wm, wz, gamma: float, lam: float, e_f: float, e_h: float) -> float:
    """``leading_bracket`` given the model energies e_f at gamma and e_h."""
    wdot = assemble_interpolant(wm, wz, gamma, lam)
    return phi_inner(wdot, gamma) + phi_outer(wdot) - e_f - lam ** 4 * e_h


def _constant_C(wm, gamma: float, e_f: float) -> float:
    """``constant_C`` from the inner model energy e_f at gamma."""
    wdot = assemble_interpolant(wm, np.zeros((DIM,) * 4), gamma, 1.0)
    return phi_inner(wdot, gamma) - e_f


def _balance(params, bracket: float, c_const: float, inter: float) -> EnergyBalance:
    predicted = c_const + INTERACTION_COEFFICIENT * params.lam ** 2 * inter
    return EnergyBalance(leading_bracket=float(bracket), constant_C=float(c_const),
                         interaction=float(inter), lam=params.lam, gamma=params.gamma,
                         a=params.a, remainder=float(bracket - predicted))


def leading_bracket(wm, wz, gamma: float, lam: float) -> float:
    """Phi_gamma + Phi_1 minus the two model energies at the same scales."""
    return _bracket(wm, wz, gamma, lam, inner_model_energy(wm, gamma),
                    outer_model_energy(wz))


def constant_C(wm, gamma: float) -> float:
    """The constant C of the bracket at gamma: ``leading_bracket`` of the
    pair (wm, 0), which does not depend on lam.

    The interpolant of that pair has zero Dirichlet and Neumann data on
    |x| = 1, so its ``phi_outer`` is 0 up to roundoff (about 1e-14, below
    half an ulp of ``phi_inner``), and the outer model of W^Z = 0 is 0; C
    is ``phi_inner`` minus the inner model energy, bit for bit the bracket.
    """
    return _constant_C(wm, gamma, inner_model_energy(wm, gamma))


def energy_balance(wm, wz, params: GluingParams) -> EnergyBalance:
    """The a^4-order Weyl-energy balance of the glued metric.

    leading_bracket = C - (4/9) pi^2 lam^2 (W * W) + remainder, where C is
    ``constant_C`` at the same gamma and the remainder collects the
    O(lam^2 gamma^2) terms.  With the truncated error model the
    cutoff-region contribution is exactly zero.
    """
    return balance_grid(wm, wz, [params])[0]


def balance_grid(wm, wz, grid, mapper=map) -> list:
    """``energy_balance`` at each GluingParams of ``grid``: E_H integrated
    once, E_F and C once per gamma and the interpolant's two spheres once per
    point, the last three run by ``mapper`` (``map``, or a thread pool's)."""
    gammas = list(dict.fromkeys(p.gamma for p in grid))
    e_f = dict(zip(gammas, mapper(partial(inner_model_energy, wm), gammas)))
    c_const = dict(zip(gammas, mapper(partial(_constant_C, wm), gammas, e_f.values())))
    e_h = outer_model_energy(wz)
    brackets = mapper(lambda p: _bracket(wm, wz, p.gamma, p.lam, e_f[p.gamma], e_h), grid)
    inter = interaction_star(wm, wz)
    return [_balance(p, b, c_const[p.gamma], inter) for p, b in zip(grid, brackets)]


class MarginNotReached(ValueError):
    """No gamma of the grid brings the leading bracket below -margin."""


def choose_parameters(wm, wz, margin: float = 1.0) -> EnergyBalance:
    """The balance at (lam, gamma, a) picked to make the leading bracket < -margin.

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
    if np.abs(wm).max() * np.abs(wz).max() < np.finfo(float).tiny:
        raise ValueError(f"floating-point underflow: W * W = {inter} for tensors this small")
    gamma0 = GAMMA_GRID[-1]
    e_f0 = inner_model_energy(wm, gamma0)
    c_const = _constant_C(wm, gamma0, e_f0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lam2 = np.float64(c_const + 2.0 * margin) / (-INTERACTION_COEFFICIENT * inter)
    lam = float(np.sqrt(max(lam2, 0.0)) * 1.1 + 1.0)
    if not np.isfinite(lam):
        raise ValueError(f"floating-point overflow: lam = {lam} from C = {c_const} "
                         f"and W * W = {inter}")
    if lam > np.finfo(float).max ** 0.25:
        raise ValueError(f"tensors too small for the margin: margin {margin} with "
                         f"W * W = {inter} needs lam = {lam}, whose fourth power "
                         "overflows")
    e_h = outer_model_energy(wz)
    compatible = [g for g in GAMMA_GRID if g <= 1.0 / (10.0 * lam)]
    fallback = [g for g in GAMMA_GRID if g not in compatible]
    for gamma in compatible + fallback:
        e_f = e_f0 if gamma == gamma0 else inner_model_energy(wm, gamma)
        bracket = _bracket(wm, wz, gamma, lam, e_f, e_h)
        if bracket < -margin:
            params = GluingParams(a=gamma ** 2 / 20.0, lam=lam, gamma=gamma)
            c_pick = c_const if gamma == gamma0 else _constant_C(wm, gamma, e_f)
            return _balance(params, bracket, c_pick, inter)
    raise MarginNotReached("no gamma in the grid achieves the requested margin")
