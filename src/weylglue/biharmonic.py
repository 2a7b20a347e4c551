"""Biharmonic interpolation on the annulus gamma < |x| < 1.

The interpolating metric w = delta + a^2 wdot matches the inner quadratic
model delta - 1/3 a^2 W^M x x / |x|^4 and the outer model
delta - 1/3 b^2 W^Z x x at the two boundary spheres to first order, with
Delta^2 w_ij = 0 componentwise in between.  The boundary data are spanned by
second spherical harmonics, so each component reduces to the radial ODE
T(f) = 0 whose solutions are r^-4, r^-2, r^2, r^4.

The interpolant is one field, the CurvatureQuadraticField that
``assemble_interpolant`` returns, with one radial solve per source tensor:

    wdot_ij(x) = sum_m Chat_m^M W^M_kijl x^k x^l |x|^(m-2)
               + sum_m Chat_m^Z W^Z_kijl x^k x^l |x|^(m-2)

with m running over the profile powers (-4, -2, 2, 4) and the overall a^2
factored out.  ``harmonic_component`` is the per-harmonic reference the
tests compare it against: one component of wdot as a sum of profiles times
second spherical harmonics, one linear solve per boundary case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_core import DIM
from .fields import CurvatureQuadraticField, _as_batch

#: Powers of the radial profile basis r^p.
PROFILE_POWERS = np.array([-4.0, -2.0, 2.0, 4.0])


class AnnulusDomainError(ValueError):
    """Raised for gamma or evaluation points outside the valid annulus setup."""


# ---------------------------------------------------------------------------
# second spherical harmonics

@dataclass(frozen=True)
class SphHarm2:
    """A second spherical harmonic: phi(k,l) = x^k x^l or psi(k,l) = (x^k)^2 - (x^l)^2.

    Evaluation takes ambient points and restricts the harmonic polynomial to
    the unit sphere, i.e. divides by |x|^2.
    """

    kind: str  # "phi" or "psi"
    k: int
    l: int

    def __post_init__(self):
        if self.kind not in ("phi", "psi"):
            raise ValueError(f"unknown harmonic kind {self.kind!r}")
        if self.k == self.l or not (0 <= self.k < DIM and 0 <= self.l < DIM):
            raise ValueError("harmonic indices must be distinct and in range")

    def polynomial(self, x):
        """The degree-2 harmonic polynomial extension, before restriction."""
        xb, single = _as_batch(x)
        if self.kind == "phi":
            out = xb[:, self.k] * xb[:, self.l]
        else:
            out = xb[:, self.k] ** 2 - xb[:, self.l] ** 2
        return out[0] if single else out

    def __call__(self, x):
        xb, single = _as_batch(x)
        r2 = np.einsum("na,na->n", xb, xb)
        out = self.polynomial(xb) / r2
        return out[0] if single else out


# ---------------------------------------------------------------------------
# radial machinery

def radial_profile(c, r, deriv: int = 0):
    """Value (or r-derivative) of f(r) = c1 r^-4 + c2 r^-2 + c3 r^2 + c4 r^4."""
    c = np.asarray(c, dtype=float)
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r, dtype=float)
    for ck, p in zip(c, PROFILE_POWERS):
        fac = 1.0
        for d in range(deriv):
            fac *= (p - d)
        out = out + ck * fac * r ** (p - deriv)
    return out


def radial_bilaplacian(c, r: float) -> float:
    """The radial operator T(f) = f'''' + 6 f'''/r - 13 f''/r^2 - 19 f'/r^3 + 64 f/r^4.

    This is Delta^2 acting on f(r) phi(theta) for a second spherical harmonic
    phi (angular eigenvalue -8), with f the radial profile of the
    coefficient 4-vector ``c``.
    """
    if r <= 0:
        raise AnnulusDomainError("radius must be positive")
    f0, f1, f2, f3, f4 = (radial_profile(c, r, d) for d in range(5))
    return float(f4 + 6 * f3 / r - 13 * f2 / r ** 2 - 19 * f1 / r ** 3 + 64 * f0 / r ** 4)


def a_gamma(gamma: float) -> np.ndarray:
    """Boundary-condition matrix of the radial system.

    Rows impose gamma^4 f(gamma), gamma^5 f'(gamma), f(1), f'(1) on the
    profile coefficients.  Singular exactly at the degenerate limits
    gamma = 0 and gamma = 1, which are rejected.  ``solve_profile`` inverts
    it in closed form; ``np.linalg.solve(a_gamma(gamma), v)`` is the direct
    reference.
    """
    if not 0.0 < gamma < 1.0:
        raise AnnulusDomainError(f"gamma must lie in (0, 1), got {gamma}")
    g2 = gamma ** 2
    mat = np.array([
        [1.0, g2, g2 ** 3, g2 ** 4],
        [-4.0, -2.0 * g2, 2.0 * g2 ** 3, 4.0 * g2 ** 4],
        [1.0, 1.0, 1.0, 1.0],
        [-4.0, -2.0, 2.0, 4.0],
    ])
    return mat


# ---------------------------------------------------------------------------
# boundary data tables

_BV_CASES = ("diag-phi", "diag-psi", "offdiag-phi", "offdiag-phi-st", "offdiag-psi-st")


def boundary_vector(case: str, indices, wm, wz, gamma: float, lam: float) -> np.ndarray:
    """Right-hand side 4-vector of the radial system for one boundary case.

    The five cases and their index tuples:
      diag-phi        (i, alpha, beta)   weight  2 W_{alpha i i beta}
      diag-psi        (i, alpha)         weight    W_{alpha i i alpha}
      offdiag-phi     (i, j, alpha, beta) weight   W_{alpha i j beta}
      offdiag-phi-st  (i, j)             weight    W_{s i j t} + W_{t i j s}
      offdiag-psi-st  (i, j)             weight    W_{s i j s}
    where (s, t) are the two indices complementary to (i, j).  Always
    v = (-w_M gamma^2 / 3, 2 w_M gamma^2 / 3, -w_Z lam^2 / 3, -2 w_Z lam^2 / 3)
    in the case weight w, so v2 = -2 v1 and v4 = 2 v3 exactly.
    """
    tm, tz = np.asarray(wm, dtype=float), np.asarray(wz, dtype=float)
    idx = tuple(int(k) for k in indices)

    def weight(t):
        if case == "diag-phi":
            i, al, be = idx
            if len({i, al, be}) != 3:
                raise ValueError("diag-phi needs three distinct indices (i, alpha, beta)")
            return 2.0 * t[al, i, i, be]
        if case == "diag-psi":
            i, al = idx
            if i == al:
                raise ValueError("diag-psi needs distinct (i, alpha)")
            return t[al, i, i, al]
        if case == "offdiag-phi":
            i, j, al, be = idx
            if i == j or al == be:
                raise ValueError("offdiag-phi needs i != j and alpha != beta")
            return t[al, i, j, be]
        if case in ("offdiag-phi-st", "offdiag-psi-st"):
            i, j = idx
            if i == j:
                raise ValueError("off-diagonal case needs i != j")
            s, t_ = [k for k in range(DIM) if k not in (i, j)]
            if case == "offdiag-phi-st":
                return t[s, i, j, t_] + t[t_, i, j, s]
            return t[s, i, j, s]
        raise ValueError(f"unknown boundary case {case!r}; expected one of {_BV_CASES}")

    wm_c, wz_c = weight(tm), weight(tz)
    g2, l2 = gamma ** 2, lam ** 2
    return np.array([-wm_c * g2 / 3.0, 2.0 * wm_c * g2 / 3.0,
                     -wz_c * l2 / 3.0, -2.0 * wz_c * l2 / 3.0])


# ---------------------------------------------------------------------------
# solving the radial system

def solve_profile(gamma: float, v) -> np.ndarray:
    """Profile coefficients chat solving A_gamma chat = v, by the explicit
    rational formulas; they agree with a direct solve of ``a_gamma`` to
    roundoff.  The coefficients are in the a^2-factored normalization
    (chat = c / a^2).
    """
    if not 0.0 < gamma < 1.0:
        raise AnnulusDomainError(f"gamma must lie in (0, 1), got {gamma}")
    v1, v2, v3, v4 = np.asarray(v, dtype=float)
    g2 = gamma ** 2
    den = 2.0 * (g2 - 1.0) ** 3 * (1.0 + 4.0 * g2 + g2 ** 2)
    c1 = (2 * v1 * (1 + g2 + 4 * g2 ** 2) + v2 * (1 + g2 - 2 * g2 ** 2)
          - g2 ** 3 * (2 * v3 * (4 + g2 + g2 ** 2) + v4 * (-2 + g2 + g2 ** 2))) / den
    c2 = (-4 * v1 * (1 + g2 + g2 ** 2 + 3 * g2 ** 3)
          + v2 * (g2 - 1) * (1 + 2 * g2 + 3 * g2 ** 2)
          + g2 ** 3 * (3 * (4 * v3 - v4) + (4 * v3 + v4) * (g2 + g2 ** 2 + g2 ** 3))) / (g2 * den)
    c3 = (4 * v1 * (3 + g2 + g2 ** 2 + g2 ** 3) - v2 * (-3 + g2 + g2 ** 2 + g2 ** 3)
          + g2 * ((-4 * v3 + v4) * (1 + g2 + g2 ** 2)
                  - 3 * g2 ** 3 * (4 * v3 + v4))) / (g2 * den)
    c4 = (-2 * v1 * (4 + g2 + g2 ** 2) + v2 * (-2 + g2 + g2 ** 2)
          + g2 * (2 * v3 * (1 + g2 + 4 * g2 ** 2) + v4 * (-1 - g2 + 2 * g2 ** 2))) / (g2 * den)
    return np.array([c1, c2, c3, c4])


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


# ---------------------------------------------------------------------------
# interpolant assembly

def unit_sources(gamma: float, lam: float):
    """Right-hand sides for the collapsed solve, one per source tensor.

    The inner-model source carries the boundary weight of
    -1/3 W^M x x / |x|^4 at r = gamma (and zero outer data); the outer-model
    source carries -1/3 lam^2 W^Z x x at r = 1 (and zero inner data).
    """
    g2, l2 = gamma ** 2, lam ** 2
    u_m = np.array([-g2 / 3.0, 2.0 * g2 / 3.0, 0.0, 0.0])
    u_z = np.array([0.0, 0.0, -l2 / 3.0, -2.0 * l2 / 3.0])
    return u_m, u_z


def assemble_interpolant(wm, wz, gamma: float, lam: float) -> CurvatureQuadraticField:
    """The interpolant wdot of the pair of boundary Weyl tensors.

    Both tensors are assumed already expressed in the shared aligned frame.
    One radial solve per source tensor gives the profile coefficients (powers
    -4, -2, 2, 4) of the W^M and W^Z parts; the metric is delta + a^2 wdot.
    """
    gamma, lam = float(gamma), float(lam)
    if not 0.0 < gamma < 1.0:
        raise AnnulusDomainError(f"gamma must lie in (0, 1), got {gamma}")
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    terms = []
    for w, u in zip((wm, wz), unit_sources(gamma, lam)):
        t = np.asarray(w, dtype=float)
        terms += [(float(c), t, float(p - 2.0))
                  for c, p in zip(solve_profile(gamma, u), PROFILE_POWERS)]
    return CurvatureQuadraticField(terms)


def harmonic_component(wm, wz, gamma: float, lam: float, i: int, j: int):
    """The (i, j) component of the interpolant as a per-harmonic profile sum.

    Each boundary case of the component gets its own radial solve; the
    returned evaluate(x) sums profile(r) * harmonic(theta) at ambient points.
    It agrees with ``assemble_interpolant``'s (i, j) component pointwise.
    """
    pairs = []
    if i == j:
        s, t, u = [k for k in range(DIM) if k != i]
        for al, be in ((s, t), (s, u), (t, u)):
            v = boundary_vector("diag-phi", (i, al, be), wm, wz, gamma, lam)
            pairs.append((SphHarm2("phi", al, be), solve_profile(gamma, v)))
        for al, be in ((s, u), (t, u)):
            v = boundary_vector("diag-psi", (i, al), wm, wz, gamma, lam)
            pairs.append((SphHarm2("psi", al, be), solve_profile(gamma, v)))
    else:
        s, t = [k for k in range(DIM) if k not in (i, j)]
        for al, be in ((j, i), (j, s), (j, t), (s, i), (t, i)):
            v = boundary_vector("offdiag-phi", (i, j, al, be), wm, wz, gamma, lam)
            pairs.append((SphHarm2("phi", al, be), solve_profile(gamma, v)))
        v = boundary_vector("offdiag-phi-st", (i, j), wm, wz, gamma, lam)
        pairs.append((SphHarm2("phi", s, t), solve_profile(gamma, v)))
        v = boundary_vector("offdiag-psi-st", (i, j), wm, wz, gamma, lam)
        pairs.append((SphHarm2("psi", s, t), solve_profile(gamma, v)))

    def evaluate(x):
        xb, single = _as_batch(x)
        r = np.sqrt(np.einsum("na,na->n", xb, xb))
        out = np.zeros(xb.shape[0])
        for harm, chat in pairs:
            out = out + radial_profile(chat, r) * harm(xb)
        return out[0] if single else out

    return evaluate
