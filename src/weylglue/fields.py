"""Symmetric 2-tensor fields with exact derivatives.

Two families cover everything the construction needs:

* ``CurvatureQuadraticField`` - sums of terms c * W_kijl x^k x^l |x|^p for
  curvature-type tensors W and real powers p.  The quadratic models of both
  gluing ends (p = 0 and p = -4), the biharmonic interpolant (p in
  {-6, -4, 0, 2}) and every boundary integrand are of this shape.  The
  field is evaluated as one block per distinct tensor: Q_S(x) f(r), with
  the quadratic form Q_S(x)_ij = S_klij x^k x^l and the radial profile
  f(r) = sum_k c_k r^(p_k), so the interpolant is two blocks, not eight
  terms.  Exact derivatives up to fourth order come from one Leibniz
  expansion per block against the summed radial derivatives of f.
  ``jet`` evaluates h, dh, d2h and the slab d_a d_b d_b h of the third
  derivative in one pass over the blocks; the sphere integrals need nothing
  more, and the slab is a quarter of the full order-3 array.  Without the
  slab the same pass is the metric jet the curvature pipeline reads.

* ``PolynomialField`` - dense polynomial perturbations used as generic test
  inputs for the linearization machinery.

All evaluators are vectorized: points may be passed as shape (4,) or (N, 4).
"""

from __future__ import annotations

import numpy as np

from .tensor_core import DIM

_EYE = np.eye(DIM)


def _as_batch(x):
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[-1] != DIM:
        raise ValueError("points must have 4 components")
    return x, single


def _radial_derivs(x: np.ndarray, p: float, order: int):
    """Derivatives of |x|^p up to ``order`` at a batch of points.

    Returns a list [rho, d rho, d2 rho, ...] with index axes leading and the
    batch axis last, e.g. d2 rho has shape (4, 4, N).
    """
    n = x.shape[0]
    r2 = np.einsum("na,na->n", x, x)
    xt = x.T  # (4, N)
    if p == 0.0:
        out = [np.ones(n)]
        for k in range(1, order + 1):
            out.append(np.zeros((DIM,) * k + (n,)))
        return out
    out = [r2 ** (p / 2.0)]
    if order >= 1:
        out.append(p * xt * r2 ** (p / 2.0 - 1.0))
    if order >= 2:
        d2 = p * _EYE[:, :, None] * r2 ** (p / 2.0 - 1.0)
        d2 = d2 + p * (p - 2.0) * np.einsum("an,bn->abn", xt, xt) * r2 ** (p / 2.0 - 2.0)
        out.append(d2)
    if order >= 3:
        sym3 = (np.einsum("ab,cn->abcn", _EYE, xt)
                + np.einsum("ac,bn->abcn", _EYE, xt)
                + np.einsum("bc,an->abcn", _EYE, xt))
        d3 = p * (p - 2.0) * sym3 * r2 ** (p / 2.0 - 2.0)
        d3 = d3 + (p * (p - 2.0) * (p - 4.0)
                   * np.einsum("an,bn,cn->abcn", xt, xt, xt) * r2 ** (p / 2.0 - 3.0))
        out.append(d3)
    if order >= 4:
        eye_pairs = (np.einsum("ab,cd->abcd", _EYE, _EYE)
                     + np.einsum("ac,bd->abcd", _EYE, _EYE)
                     + np.einsum("ad,bc->abcd", _EYE, _EYE))
        sym_mix = (np.einsum("ab,cn,dn->abcdn", _EYE, xt, xt)
                   + np.einsum("ac,bn,dn->abcdn", _EYE, xt, xt)
                   + np.einsum("ad,bn,cn->abcdn", _EYE, xt, xt)
                   + np.einsum("bc,an,dn->abcdn", _EYE, xt, xt)
                   + np.einsum("bd,an,cn->abcdn", _EYE, xt, xt)
                   + np.einsum("cd,an,bn->abcdn", _EYE, xt, xt))
        d4 = p * (p - 2.0) * eye_pairs[:, :, :, :, None] * r2 ** (p / 2.0 - 2.0)
        d4 = d4 + p * (p - 2.0) * (p - 4.0) * sym_mix * r2 ** (p / 2.0 - 3.0)
        d4 = d4 + (p * (p - 2.0) * (p - 4.0) * (p - 6.0)
                   * np.einsum("an,bn,cn,dn->abcdn", xt, xt, xt, xt) * r2 ** (p / 2.0 - 4.0))
        out.append(d4)
    return out


def _angular(s: np.ndarray, xb: np.ndarray):
    """Q_ij = S_klij x^k x^l of one block and its first two derivatives.

    Shapes (N, 4, 4), (N, 4, 4, 4) and (4, 4, 4, 4) for points xb of
    shape (N, 4); the second derivative 2 S is constant.  Both products are
    single matrix products over flattened index pairs.
    """
    # S is symmetric in its first two slots, so dQ_aij = 2 S_alij x^l
    q1 = 2.0 * (xb @ s.reshape(DIM, DIM ** 3)).reshape(-1, DIM, DIM, DIM)
    return _quadratic_form(s, xb), q1, 2.0 * s


def _quadratic_form(s: np.ndarray, xb: np.ndarray):
    """Q_ij = S_klij x^k x^l as one product over the flattened (k, l) pair."""
    xx = (xb[:, :, None] * xb[:, None, :]).reshape(-1, DIM * DIM)
    return (xx @ s.reshape(DIM * DIM, DIM * DIM)).reshape(-1, DIM, DIM)


def _profile_derivs(xb: np.ndarray, profile, order: int):
    """Derivatives of f = sum_k c_k |x|^p_k up to ``order``, laid out as in
    ``_radial_derivs`` and accumulated in the order of the terms."""
    rho = None
    for c, p in profile:
        parts = _radial_derivs(xb, p, order)
        if rho is None:
            rho = [c * part for part in parts]
        else:
            for total, part in zip(rho, parts):
                total += c * part
    return rho


def _leibniz(q, rho, order: int):
    """d^order (Q_ij f) from the angular factors q = (Q, dQ, d2Q) and the
    radial derivatives rho of f (Q is quadratic, so d3Q = 0)."""
    q0, q1, q2 = q
    if order == 0:
        return q0 * rho[0][:, None, None]
    if order == 1:
        term = q1 * rho[0][:, None, None, None]
        term += np.einsum("nij,an->naij", q0, rho[1])
    elif order == 2:
        term = np.einsum("abij,n->nabij", q2, rho[0])
        term += np.einsum("naij,bn->nabij", q1, rho[1])
        term += np.einsum("nbij,an->nabij", q1, rho[1])
        term += np.einsum("nij,abn->nabij", q0, rho[2])
    elif order == 3:
        term = np.einsum("abij,cn->nabcij", q2, rho[1])
        term += np.einsum("acij,bn->nabcij", q2, rho[1])
        term += np.einsum("bcij,an->nabcij", q2, rho[1])
        term += np.einsum("naij,bcn->nabcij", q1, rho[2])
        term += np.einsum("nbij,acn->nabcij", q1, rho[2])
        term += np.einsum("ncij,abn->nabcij", q1, rho[2])
        term += np.einsum("nij,abcn->nabcij", q0, rho[3])
    else:
        term = np.einsum("abij,cdn->nabcdij", q2, rho[2])
        term += np.einsum("acij,bdn->nabcdij", q2, rho[2])
        term += np.einsum("adij,bcn->nabcdij", q2, rho[2])
        term += np.einsum("bcij,adn->nabcdij", q2, rho[2])
        term += np.einsum("bdij,acn->nabcdij", q2, rho[2])
        term += np.einsum("cdij,abn->nabcdij", q2, rho[2])
        term += np.einsum("naij,bcdn->nabcdij", q1, rho[3])
        term += np.einsum("nbij,acdn->nabcdij", q1, rho[3])
        term += np.einsum("ncij,abdn->nabcdij", q1, rho[3])
        term += np.einsum("ndij,abcn->nabcdij", q1, rho[3])
        term += np.einsum("nij,abcdn->nabcdij", q0, rho[4])
    return term


def _d3_slab(q, rho):
    """d_a d_b d_b (Q_ij f): the order-3 sum of ``_leibniz`` at c = b,
    with its two repeated products formed once and added twice."""
    q0, q1, q2 = q
    q2_rho1 = np.einsum("abij,bn->nabij", q2, rho[1])
    q1_rho2 = np.einsum("nbij,abn->nabij", q1, rho[2])
    term = q2_rho1 + q2_rho1
    term += np.einsum("bbij,an->nabij", q2, rho[1])
    term += np.einsum("naij,bbn->nabij", q1, rho[2])
    term += q1_rho2
    term += q1_rho2
    term += np.einsum("nij,abbn->nabij", q0, rho[3])
    return term


def _constant(profile):
    """The value of a profile whose powers are all 0, else None."""
    if all(p == 0.0 for _, p in profile):
        return sum(c for c, _ in profile)
    return None


class CurvatureQuadraticField:
    """Sum of terms c * W_kijl x^k x^l |x|^p with exact derivatives to order 4.

    Each term stores the symmetrized coefficient array S[k, l, i, j] so the
    angular factor is the quadratic form Q_ij(x) = S_klij x^k x^l.  The
    trace-free curvature symmetries of W make every such term transverse and
    traceless, which downstream code relies on.  Terms whose symmetrized
    array is all zeros are dropped: away from the origin they only add
    exact zeros, and dropping them makes e.g. the interpolant of a pair with
    W^Z = 0 independent of the W^Z-side coefficients.

    ``terms`` is the public record, (c, S, p) in the order given.  Every
    evaluator reads ``blocks`` instead, derived from it: one (S, profile)
    per distinct S in order of first appearance, with the profile the
    (c, p) pairs of that S in term order.  Sums and rescalings of fields
    merge equal tensors through the same grouping.
    """

    def __init__(self, terms):
        kept = []
        for coeff, w, power in terms:
            w = np.asarray(w, dtype=float)
            s = 0.5 * (np.einsum("kijl->klij", w) + np.einsum("lijk->klij", w))
            if s.any():
                kept.append((float(coeff), s, float(power)))
        self._set_terms(kept)

    def _set_terms(self, terms):
        self.terms = terms
        groups = {}
        for c, s, p in terms:
            groups.setdefault(s.tobytes(), (s, []))[1].append((c, p))
        self.blocks = [(s, tuple(profile)) for s, profile in groups.values()]

    def _with_terms(self, terms) -> "CurvatureQuadraticField":
        out = CurvatureQuadraticField([])
        out._set_terms(terms)
        return out

    def __add__(self, other: "CurvatureQuadraticField") -> "CurvatureQuadraticField":
        return self._with_terms(list(self.terms) + list(other.terms))

    def scaled(self, factor: float) -> "CurvatureQuadraticField":
        return self._with_terms([(factor * c, s, p) for (c, s, p) in self.terms])

    def derivative(self, x, order: int):
        """Partial derivatives of the field at x.

        Returns an array of shape (..., 4^order, 4, 4): derivative axes first
        (after the batch axis), then the two tensor component axes, e.g.
        order 2 gives D[n, a, b, i, j] = d_a d_b h_ij(x_n).
        """
        if not 0 <= order <= 4:
            raise ValueError("derivative order must be 0..4")
        xb, single = _as_batch(x)
        total = np.zeros((xb.shape[0],) + (DIM,) * order + (DIM, DIM))
        for s, profile in self.blocks:
            coeff = _constant(profile)
            if coeff is not None:
                if order <= 2:
                    total += coeff * _angular(s, xb)[order]
                continue
            total += _leibniz(_angular(s, xb), _profile_derivs(xb, profile, order), order)
        return total[0] if single else total

    def jet(self, x, slab: bool = True):
        """h, dh, d2h and the slab T[..., a, b, i, j] = d_a d_b d_b h_ij.

        One pass over the blocks computes each block's angular factors and
        summed radial derivatives once; a block whose powers are all 0, so
        that its profile is a constant c, adds only c Q, c dQ and c d2Q (and
        nothing to T).  The first three arrays equal ``derivative(x, k)``
        for k = 0, 1, 2 and T equals the b = c slab of ``derivative(x, 3)``
        bit for bit: the same products are added in the same order.  T is
        all the sphere integrands need of the third derivative, at a quarter
        of its size; ``slab=False`` leaves it out and returns the metric jet
        (h, dh, d2h) alone.
        """
        xb, single = _as_batch(x)
        n = xb.shape[0]
        orders = (0, 1, 2, 2) if slab else (0, 1, 2)
        out = [np.zeros((n,) + (DIM,) * k + (DIM, DIM)) for k in orders]
        for s, profile in self.blocks:
            q = _angular(s, xb)
            coeff = _constant(profile)
            if coeff is not None:
                for total, qk in zip(out, q):
                    total += coeff * qk
                continue
            rho = _profile_derivs(xb, profile, 3 if slab else 2)
            for k in range(3):
                out[k] += _leibniz(q, rho, k)
            if slab:
                out[3] += _d3_slab(q, rho)
        return tuple(o[0] for o in out) if single else tuple(out)

    def eval(self, x):
        return self.derivative(x, 0)

    def _radial_factor(self, x, double: bool):
        # For a term c Q_ij r^p the angular part is harmonic (Delta Q = 0
        # by the vanishing Weyl traces) and x . grad Q = 2 Q, so
        # Delta (Q r^p) = p (p + 6) r^(p-2) Q and iterating once more gives
        # Delta^2 (Q r^p) = p (p + 6) (p - 2) (p + 4) r^(p-4) Q.
        xb, single = _as_batch(x)
        total = np.zeros((xb.shape[0], DIM, DIM))
        r2 = np.einsum("na,na->n", xb, xb)
        for s, profile in self.blocks:
            f = np.zeros(xb.shape[0])
            for c, p in profile:
                fac = p * (p + 6.0)
                shift = -2.0
                if double:
                    fac *= (p - 2.0) * (p + 4.0)
                    shift = -4.0
                if fac != 0.0:
                    f += (c * fac) * r2 ** (0.5 * (p + shift))
            if f.any():
                total += _quadratic_form(s, xb) * f[:, None, None]
        return total[0] if single else total

    def laplacian(self, x):
        return self._radial_factor(x, double=False)

    def bilaplacian(self, x):
        return self._radial_factor(x, double=True)

    def trace(self, x):
        return np.einsum("...ii->...", self.eval(x))

    def divergence(self, x):
        """Euclidean divergence sum_k d_k h_ki, shape (..., 4)."""
        d1 = self.derivative(x, 1)
        return np.einsum("...kki->...i", d1)


class PolynomialField:
    """Dense symmetric polynomial field of degree <= 3 with exact derivatives.

    h_ij(x) = C0_ij + C1_aij x^a + C2_abij x^a x^b + C3_abcij x^a x^b x^c
    with the coefficient arrays symmetric in the derivative slots and in ij.
    """

    def __init__(self, c0=None, c1=None, c2=None, c3=None):
        def prep(c, nsym):
            if c is None:
                return np.zeros((DIM,) * nsym + (DIM, DIM))
            c = np.asarray(c, dtype=float)
            c = 0.5 * (c + np.swapaxes(c, -1, -2))
            if nsym == 2:
                c = 0.5 * (c + c.transpose(1, 0, 2, 3))
            if nsym == 3:
                acc = np.zeros_like(c)
                for perm in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
                    acc += c.transpose(perm + (3, 4))
                c = acc / 6.0
            return c

        self.c0 = prep(c0, 0)
        self.c1 = prep(c1, 1)
        self.c2 = prep(c2, 2)
        self.c3 = prep(c3, 3)

    @classmethod
    def random(cls, rng: np.random.Generator, scale: float = 0.05) -> "PolynomialField":
        return cls(c0=scale * rng.standard_normal((DIM, DIM)),
                   c1=scale * rng.standard_normal((DIM, DIM, DIM)),
                   c2=scale * rng.standard_normal((DIM, DIM, DIM, DIM)),
                   c3=scale * rng.standard_normal((DIM,) * 3 + (DIM, DIM)))

    def derivative(self, x, order: int):
        xb, single = _as_batch(x)
        xt = xb.T
        if order == 0:
            out = (self.c0[None] + np.einsum("aij,an->nij", self.c1, xt)
                   + np.einsum("abij,an,bn->nij", self.c2, xt, xt)
                   + np.einsum("abcij,an,bn,cn->nij", self.c3, xt, xt, xt))
        elif order == 1:
            out = (np.broadcast_to(self.c1[None], (xb.shape[0],) + self.c1.shape).copy()
                   + 2.0 * np.einsum("abij,bn->naij", self.c2, xt)
                   + 3.0 * np.einsum("abcij,bn,cn->naij", self.c3, xt, xt))
        elif order == 2:
            out = (2.0 * np.broadcast_to(self.c2[None], (xb.shape[0],) + self.c2.shape).copy()
                   + 6.0 * np.einsum("abcij,cn->nabij", self.c3, xt))
        elif order == 3:
            out = np.broadcast_to(6.0 * self.c3[None], (xb.shape[0],) + self.c3.shape).copy()
        elif order == 4:
            out = np.zeros((xb.shape[0],) + (DIM,) * 4 + (DIM, DIM))
        else:
            raise ValueError("derivative order must be 0..4")
        return out[0] if single else out

    def eval(self, x):
        return self.derivative(x, 0)


def model_field(w: np.ndarray, coeff: float, power: float) -> CurvatureQuadraticField:
    """Single-term field coeff * W_kijl x^k x^l |x|^power."""
    return CurvatureQuadraticField([(coeff, w, power)])
