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
factored out.  ``boundary_vector`` gives the data of each boundary case of
one component, the per-harmonic form of the same system, which
``verify biharmonic`` solves directly; the tests rebuild components of
wdot from those solves.
"""

from __future__ import annotations

import numpy as np

from .tensor_core import DIM
from .fields import CurvatureQuadraticField

#: Powers of the radial profile basis r^p.
PROFILE_POWERS = np.array([-4.0, -2.0, 2.0, 4.0])


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


def a_gamma(gamma: float) -> np.ndarray:
    """Boundary-condition matrix of the radial system.

    Rows impose gamma^4 f(gamma), gamma^5 f'(gamma), f(1), f'(1) on the
    profile coefficients.  Singular exactly at the degenerate limits
    gamma = 0 and gamma = 1, which are rejected.  ``solve_profile`` inverts
    it in closed form; ``np.linalg.solve(a_gamma(gamma), v)`` is the direct
    reference.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
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
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
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
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    if not 0.0 < lam < np.inf:
        raise ValueError(f"lam must be positive and finite, got {lam}")
    terms = []
    for w, u in zip((wm, wz), unit_sources(gamma, lam)):
        t = np.asarray(w, dtype=float)
        terms += [(float(c), t, float(p - 2.0))
                  for c, p in zip(solve_profile(gamma, u), PROFILE_POWERS)]
    return CurvatureQuadraticField(terms)


