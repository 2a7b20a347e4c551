"""Geometric setup of the connected sum in one shared chart.

The two manifolds are represented by their quadratic curvature models around
the gluing points: the inner end delta + a^2 F (F decaying like |x|^-2, the
image of the conformal normal form under inversion) and the outer end
delta + b^2 H (H growing like |x|^2), with b = lam * a.  The glued metric
g_X lives on the annulus a <= |x| <= 2 and consists of the two models and
the biharmonic interpolant between them.  It is the truncated metric: it has
no optional error tensors standing in for the higher-order terms of the real
metrics.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .tensor_core import DIM, check_class
from .fields import CurvatureQuadraticField, _as_batch
from .curvature import MetricChart, _unbatch
from .biharmonic import assemble_interpolant

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
    t = np.asarray(w, dtype=float)
    check_class(t, "weyl", 1e-9)
    return t


def model_H(wz) -> CurvatureQuadraticField:
    """Growing end model H_ij = -1/3 W^Z_kijl x^k x^l; TT with Delta H = 0."""
    return CurvatureQuadraticField([(-1.0 / 3.0, _weyl_tensor(wz), 0.0)])


def model_F(wm) -> CurvatureQuadraticField:
    """Decaying end model F_ij = -1/3 W^M_kijl x^k x^l / |x|^4; TT with Delta^2 F = 0."""
    return CurvatureQuadraticField([(-1.0 / 3.0, _weyl_tensor(wm), -4.0)])


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


class GluedChart(MetricChart):
    """The truncated glued metric g_X on the annulus a <= |x| <= 2.

    Zones: delta + a^2 F for |x| < gamma, the biharmonic interpolant for
    gamma < |x| < 1, and delta + b^2 H for |x| >= 1, with no optional error
    tensors.  The metric is C^1 across both interfaces by the interpolation
    boundary conditions.
    """

    def __init__(self, wm, wz, params: GluingParams):
        self.params = params
        wm, wz = _weyl_tensor(wm), _weyl_tensor(wz)
        a = params.a
        self.inner = model_F(wm).scaled(a * a)
        self.outer = model_H(wz).scaled(params.b ** 2)
        self.mid = assemble_interpolant(wm, wz, params.gamma, params.lam).scaled(a * a)

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
        jet[0] += _EYE[None]
        return _unbatch(jet, single)
