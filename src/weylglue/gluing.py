"""Geometric setup of the connected sum in one shared chart.

The two manifolds are represented by their quadratic curvature models around
the gluing points: the inner end delta + a^2 F (F decaying like |x|^-2, the
image of the conformal normal form under inversion) and the outer end
delta + b^2 H (H growing like |x|^2), with b = lam * a.  The glued metric
g_X lives on the annulus a <= |x| <= 2 and consists of the two models, the
biharmonic interpolant in between, and optional cutoff-damped error tensors
standing in for the higher-order terms of the real metrics.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .tensor_core import DIM, AlgWeyl, check_class
from .fields import CurvatureQuadraticField, _as_batch, model_field
from .curvature import MetricChart, _unbatch
from .biharmonic import InterpSolution

_EYE = np.eye(DIM)


class RegimeWarning(UserWarning):
    """Emitted when the gluing parameters leave the asymptotic regime."""


@dataclass(frozen=True)
class GluingParams:
    """The three free parameters of the construction: a, lam, gamma (b = lam a).

    The asymptotic regime is 0 < a << gamma << 1/lam < 1; concrete warning
    thresholds are a > gamma^2 / 10 and gamma > 1 / (10 lam).
    """

    a: float
    lam: float
    gamma: float

    def __post_init__(self):
        if not 0 < self.lam < np.inf:
            raise ValueError("lam must be positive and finite")
        if not 0 < self.a < self.gamma < 1:
            raise ValueError("need 0 < a < gamma < 1")
        if self.a > self.gamma ** 2 / 10.0:
            warnings.warn(f"regime violated: a = {self.a} > gamma^2/10 = "
                          f"{self.gamma ** 2 / 10:.3g}", RegimeWarning, stacklevel=2)
        if self.gamma > 1.0 / (10.0 * self.lam):
            warnings.warn(f"regime violated: gamma = {self.gamma} > 1/(10 lam) = "
                          f"{1 / (10 * self.lam):.3g}", RegimeWarning, stacklevel=2)

    @property
    def b(self) -> float:
        return self.lam * self.a


def _weyl_tensor(w) -> np.ndarray:
    t = w.tensor if isinstance(w, AlgWeyl) else np.asarray(w, dtype=float)
    check_class(t, "weyl", 1e-9)
    return t


def model_H(wz) -> CurvatureQuadraticField:
    """Growing end model H_ij = -1/3 W^Z_kijl x^k x^l; TT with Delta H = 0."""
    return model_field(_weyl_tensor(wz), -1.0 / 3.0, 0.0)


def model_F(wm) -> CurvatureQuadraticField:
    """Decaying end model F_ij = -1/3 W^M_kijl x^k x^l / |x|^4; TT with Delta^2 F = 0."""
    return model_field(_weyl_tensor(wm), -1.0 / 3.0, -4.0)


def invert_pullback(wm, y, cubic_scale: float = 0.0,
                    rng: np.random.Generator | None = None) -> dict:
    """Pull the quadratic normal-form model back through the inversion.

    Computes (|z|^-2)^2 I* g_model at y for I(z) = z/|z|^2 with
    g_model = delta - 1/3 W_kabl z^k z^l (plus an optional synthetic cubic
    term c_kmabl z^k z^m z^l of magnitude ``cubic_scale``), then compares
    against the decaying model delta + F(y).  The quadratic model pulls back
    to the decaying model exactly; the cubic term contributes O(|y|^-3).
    """
    w = _weyl_tensor(wm)
    yb, single = _as_batch(y)
    r2 = np.einsum("na,na->n", yb, yb)
    if np.any(r2 < 1.0 - 1e-12):
        raise ValueError("inversion comparison requires |y| >= 1")
    z = yb / r2[:, None]
    # Jacobian of I: J_ab = (delta_ab - 2 zhat zhat) / |y|^2 evaluated in y
    yhat = yb / np.sqrt(r2)[:, None]
    jac = (_EYE[None] - 2.0 * np.einsum("na,nb->nab", yhat, yhat)) / r2[:, None, None]
    gz = _EYE[None] - np.einsum("kabl,nk,nl->nab", w, z, z) / 3.0
    if cubic_scale != 0.0:
        if rng is None:
            rng = np.random.default_rng(0)
        cub = rng.standard_normal((DIM,) * 3 + (DIM, DIM))
        cub = 0.5 * (cub + np.swapaxes(cub, -1, -2))
        gz = gz + cubic_scale * np.einsum("kmlab,nk,nm,nl->nab", cub, z, z, z)
    conf = r2 ** 2  # (F o I)^2 = |z|^-4 = |y|^4
    pulled = conf[:, None, None] * np.einsum("nai,nab,nbj->nij", jac, gz, jac)
    model = _EYE[None] - np.einsum("kijl,nk,nl->nij", w, yb, yb) / (3.0 * r2[:, None, None] ** 2)
    resid = pulled - model
    out = {
        "pullback": pulled[0] if single else pulled,
        "model": model[0] if single else model,
        "residual": float(np.abs(resid).max()),
    }
    return out


@dataclass(frozen=True)
class CutoffSpec:
    """Quintic smoothstep rising from 0 to 1 on the band [sqrt(a)/4, 3 sqrt(a)/4]."""

    a: float

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError("a must be positive")

    @property
    def band(self):
        s = np.sqrt(self.a)
        return s / 4.0, 3.0 * s / 4.0


def cutoff(spec: CutoffSpec, t, order: int = 0):
    """The cutoff chi_a(t) or its derivative of the given order (0, 1 or 2).

    chi_a is 0 below the band, 1 above it, and the quintic smoothstep
    6u^5 - 15u^4 + 10u^3 inside, which makes it C^2 everywhere.  The
    combination |chi| + sqrt(a)|chi'| + a|chi''| is bounded by a constant
    independent of a.
    """
    lo, hi = spec.band
    width = hi - lo
    t = np.asarray(t, dtype=float)
    u = np.clip((t - lo) / width, 0.0, 1.0)
    if order == 0:
        out = u ** 3 * (6.0 * u ** 2 - 15.0 * u + 10.0)
    elif order == 1:
        out = 30.0 * u ** 2 * (u - 1.0) ** 2 / width
    elif order == 2:
        out = 60.0 * u * (u - 1.0) * (2.0 * u - 1.0) / width ** 2
    else:
        raise ValueError("cutoff derivatives available to order 2")
    return float(out) if out.ndim == 0 else out


def cutoff_constant(spec: CutoffSpec, samples: int = 2001) -> float:
    """Realized constant sup_t (|chi| + sqrt(a)|chi'| + a|chi''|) on a dense grid."""
    lo, hi = spec.band
    ts = np.linspace(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo), samples)
    total = (np.abs(cutoff(spec, ts))
             + np.sqrt(spec.a) * np.abs(cutoff(spec, ts, 1))
             + spec.a * np.abs(cutoff(spec, ts, 2)))
    return float(total.max())


class GluedChart(MetricChart):
    """The glued metric g_X on the annulus a <= |x| <= 2.

    Zones: delta + a^2 F (plus optional damped error zeta) for |x| < gamma,
    the biharmonic interpolant for gamma < |x| < 1, and delta + b^2 H (plus
    optional damped error eta) for |x| >= 1.  The metric is C^1 across both
    interfaces by the interpolation boundary conditions.
    """

    kind = "glued"

    def __init__(self, interp: InterpSolution, params: GluingParams,
                 error_model: str = "truncated",
                 zeta_scale: float = 0.0, eta_scale: float = 0.0, seed: int = 0):
        if abs(interp.gamma - params.gamma) > 1e-14 or abs(interp.lam - params.lam) > 1e-14:
            raise ValueError("interpolant was built with different parameters")
        if error_model not in ("truncated", "synthetic"):
            raise ValueError(f"unknown error model {error_model!r}")
        self.params = params
        self.interp = interp
        self.error_model = error_model
        self.seed = seed
        a = params.a
        self.inner = model_F(interp.wm).scaled(a * a)
        self.outer = model_H(interp.wz).scaled(params.b ** 2)
        self.mid = interp.wdot.scaled(a * a)
        self.cut = CutoffSpec(a)
        if error_model == "synthetic":
            rng = np.random.default_rng(seed)
            s_in = rng.standard_normal((DIM, DIM))
            s_out = rng.standard_normal((DIM, DIM))
            self._zeta = zeta_scale * 0.5 * (s_in + s_in.T)
            self._eta = eta_scale * 0.5 * (s_out + s_out.T)
        else:
            self._zeta = np.zeros((DIM, DIM))
            self._eta = np.zeros((DIM, DIM))

    def contains(self, x):
        xb, _ = _as_batch(x)
        r = np.sqrt(np.einsum("na,na->n", xb, xb))
        return (r >= self.params.a * (1 - 1e-12)) & (r <= 2.0 * (1 + 1e-12))

    def zone(self, x):
        """Zone labels: 0 inner model, 1 interpolant, 2 outer model."""
        xb, single = _as_batch(x)
        r = np.sqrt(np.einsum("na,na->n", xb, xb))
        out = np.where(r < self.params.gamma, 0, np.where(r < 1.0, 1, 2))
        return int(out[0]) if single else out

    def _add_error_terms(self, xb, jet):
        """Add the damped error tensors zeta |x|^-3 chi_a(gamma - |x|) inside
        and eta |x|^3 chi_a(|x| - 1) outside, with their first two
        derivatives, to the jet (g, dg, d2g)."""
        if self.error_model != "synthetic":
            return
        r = np.sqrt(np.einsum("na,na->n", xb, xb))
        xhat = xb / r[:, None]
        for const, power, tfun, tsign, mask in (
                (self._zeta, -3.0, lambda rr: self.params.gamma - rr, -1.0,
                 r < self.params.gamma),
                (self._eta, 3.0, lambda rr: rr - 1.0, 1.0, r >= 1.0)):
            if not mask.any():
                continue
            rr = r[mask]
            chi = np.array([cutoff(self.cut, tfun(rr), k) for k in range(3)])
            chi[1] *= tsign
            rad = np.stack([rr ** power,
                            power * rr ** (power - 1.0),
                            power * (power - 1.0) * rr ** (power - 2.0)])
            # radial profile rho(r) = r^power * chi(t(r)) and its r-derivatives
            rho0 = rad[0] * chi[0]
            rho1 = rad[1] * chi[0] + rad[0] * chi[1]
            rho2 = rad[2] * chi[0] + 2.0 * rad[1] * chi[1] + rad[0] * chi[2]
            xh = xhat[mask]
            proj = (_EYE[None] - np.einsum("na,nb->nab", xh, xh)) / rr[:, None, None]
            ang = np.einsum("n,nab,ij->nabij", rho1, proj, const)
            jet[0][mask] += rho0[:, None, None] * const[None]
            jet[1][mask] += np.einsum("n,na,ij->naij", rho1, xh, const)
            jet[2][mask] += ang + np.einsum("n,na,nb,ij->nabij", rho2, xh, xh, const)

    def metric_jet(self, x):
        xb, single = _as_batch(x)
        zone = np.asarray(self.zone(xb))
        n = xb.shape[0]
        jet = [np.zeros((n,) + (DIM,) * k + (DIM, DIM)) for k in range(3)]
        for zid, fld in ((0, self.inner), (1, self.mid), (2, self.outer)):
            mask = zone == zid
            if mask.any():
                for out, part in zip(jet, fld.jet(xb[mask])):
                    out[mask] = part
        self._add_error_terms(xb, jet)
        jet[0] += _EYE[None]
        return _unbatch(jet, single)

    def to_json(self) -> dict:
        return {
            "zones": {"inner": [self.params.a, self.params.gamma],
                      "interpolant": [self.params.gamma, 1.0],
                      "outer": [1.0, 2.0]},
            "params": {"a": self.params.a, "lam": self.params.lam,
                       "gamma": self.params.gamma, "b": self.params.b},
            "error_model": self.error_model,
            "seed": self.seed,
        }


def glued_chart(wm, wz, params: GluingParams, interp: InterpSolution,
                error_model: str = "truncated", **kw) -> GluedChart:
    """Build the glued metric chart; see GluedChart for the zone layout."""
    if np.abs(interp.wm - _weyl_tensor(wm)).max() > 1e-12 or \
       np.abs(interp.wz - _weyl_tensor(wz)).max() > 1e-12:
        raise ValueError("interpolant was built from different Weyl tensors")
    return GluedChart(interp, params, error_model=error_model, **kw)
