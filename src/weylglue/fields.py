"""Symmetric 2-tensor fields with exact derivatives.

Two families cover everything the construction needs:

* ``CurvatureQuadraticField`` - sums of terms c * W_kijl x^k x^l |x|^p for
  curvature-type tensors W and real powers p.  The quadratic models of both
  gluing ends (p = 0 and p = -4), the biharmonic interpolant (p in
  {-6, -4, 0, 2}) and every boundary integrand are of this shape.  The
  field is evaluated as one block per distinct tensor: Q_S(x) f(r), with
  the quadratic form Q_S(x)_ij = S_klij x^k x^l and the radial profile
  f(r) = sum_k c_k r^(p_k), so the interpolant is two blocks, not eight
  terms.  Exact derivatives come from one Leibniz expansion per block
  against the summed radial derivatives of f.  ``derivative`` (orders 0-2)
  and ``jet`` share one pass over the blocks, which forms the angular and
  radial factors only up to the highest order it returns (an order-0 call
  forms Q alone).  ``jet`` evaluates h, dh, d2h; the sphere integrals read
  the same jet with the slab d_a d_b d_b h of the third derivative beside
  it, point axis last, and need nothing more; the slab, like the order-3
  radial factors it is formed from, is a quarter of the full order-3 array.
  ``bilaplacian_terms`` is the order-4 slab d_a d_a d_b d_b h, whose double
  trace is the bilaplacian, at a sixteenth of the full order-4 array.  The
  full third and fourth derivatives are never formed.  The kernel keeps the
  point axis last: the radial factors are formed so, each block's angular
  factors are moved there once, and every output is (derivative axes, i,
  j, point), so each Leibniz product and sum runs over the points,
  contiguous, as its inner loop.  All of it is elementwise, so the layout
  moves no bit.  The public evaluators return the point axis first,
  transposed once into buffers the evaluation has finished with; the
  boundary integrals in ``energy`` read the point-last arrays as they are.

* ``PolynomialField`` - dense polynomial perturbations of degree 3 used as
  generic test inputs for the linearization machinery, with derivatives to
  order 2.

Both families share ``jet(x)`` = (h, dh, d2h), the one entry point through
which metric charts and the linearized curvature read a field.

All evaluators are vectorized: points may be passed as shape (4,) or (N, 4).
"""

from __future__ import annotations

from itertools import accumulate, combinations, groupby
from math import prod
from typing import Protocol

import numpy as np

from .tensor_core import DIM

_EYE = np.eye(DIM)
#: the (a, a, b, b) slab of delta_ab delta_cd + delta_ac delta_bd + delta_ad delta_bc
_EYE_PAIRS_SLAB = 1.0 + 2.0 * _EYE


def _as_batch(x):
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[-1] != DIM:
        raise ValueError("points must have 4 components")
    return x, single


def _radial_basis(xb: np.ndarray, order: int):
    """The factors of the radial derivatives that depend on x alone.

    Returns (r2, tensors): r2 = |x|^2 and, for each derivative order k up
    to ``order``, the pairs (j, B) of
    d^k |x|^p = sum_j [p (p - 2) ... (p - 2j + 2)] B r^(p - 2j).
    Each B has the point axis last, of length 1 for the constant ones:
    x_a, then delta_ab and x_a x_b.  Every power of every block shares them.
    The factors of the highest order are formed only on the slab that the
    slab derivatives read of them: at order 3 the (a, b, b) slab of the
    symmetrized delta_ab x_c and of x_a x_b x_c, that is 2 delta_ab x_b + x_a
    and (x_a x_b) x_b.  At order 4 the slab d_a d_a d_b d_b reads the full
    order-3 factors, both at (a, a, b) and at (a, b, b), and the (a, a, b, b)
    slab of the symmetrized delta_ab delta_cd, delta_ab x_c x_d and
    x_a x_b x_c x_d: 1 + 2 delta_ab, x_b x_b + 4 delta_ab x_a x_b + x_a x_a
    (its six terms added one by one) and ((x_a x_a) x_b) x_b.  Each product
    associates left to right, (x_a x_b) x_c, and delta_ab (x_c x_d) equals
    (delta_ab x_c) x_d exactly, as delta is 0 or 1; the sums run in the order
    of the symmetrized sums, and on the order-3 slab the first two terms are
    equal, so their sum is the exact double of one.
    """
    r2 = np.einsum("na,na->n", xb, xb)
    x = _points_last(xb)
    tensors = {1: [(1, x)]}
    if order >= 2:
        xx = x[:, None] * x[None]
        tensors[2] = [(1, _EYE[..., None]), (2, xx)]
    if order == 3:
        sym3 = 2.0 * (_EYE[..., None] * x[None]) + x[:, None]
        tensors[3] = [(2, sym3), (3, xx * x[None])]
    elif order == 4:
        sym3 = (_EYE[:, :, None, None] * x[None, None]
                + _EYE[:, None, :, None] * x[None, :, None]
                + _EYE[None, :, :, None] * x[:, None, None])
        tensors[3] = [(2, sym3), (3, xx[:, :, None] * x[None, None])]
        x2 = x * x
        mix = _EYE[..., None] * xx
        sym_mix = x2[None] + mix + mix + mix + mix + x2[:, None]
        xxxx = (x2[:, None] * x[None]) * x[None]
        tensors[4] = [(2, _EYE_PAIRS_SLAB[..., None]), (3, sym_mix), (4, xxxx)]
    return r2, tensors


def _radial_derivs(basis, p: float, order: int):
    """Derivatives of |x|^p up to ``order`` from a ``_radial_basis``.

    Returns a list [rho, d rho, d2 rho, ...] with the axes of the basis and
    the point axis last, e.g. d2 rho has shape (4, 4, N), and so has the
    slab that stands for the highest order.
    """
    r2, tensors = basis
    if p == 0.0:
        # the last factor of each order has the full point axis
        return [np.ones(r2.shape)] + [np.zeros(tensors[k][-1][1].shape)
                                      for k in range(1, order + 1)]
    out = [r2 ** (p / 2.0)]
    falling = [1.0]  # falling[j] = p (p - 2) ... (p - 2j + 2)
    for j in range(order):
        falling.append(falling[-1] * (p - 2.0 * j))
    powers = {j: r2 ** (p / 2.0 - j) for j in range(1, order + 1)}
    for k in range(1, order + 1):
        total = None
        for j, b in tensors[k]:
            part = falling[j] * b * powers[j]
            total = part if total is None else total + part
        out.append(total)
    return out


def _angular(s: np.ndarray, xb: np.ndarray, order: int = 2):
    """Q_ij = S_klij x^k x^l of one block and its derivatives up to
    min(``order``, 2), the highest that is not 0.

    Shapes (N, 4, 4), (N, 4, 4, 4) and (4, 4, 4, 4) for points xb of
    shape (N, 4); the second derivative 2 S is constant.  Both products are
    single matrix products over flattened index pairs.
    """
    q = [_quadratic_form(s, xb)]
    if order >= 1:
        # S is symmetric in its first two slots, so dQ_aij = 2 S_alij x^l
        q.append(2.0 * _rows_times(xb, s.reshape(DIM, DIM ** 3)).reshape(-1, DIM, DIM, DIM))
    if order >= 2:
        q.append(2.0 * s)
    return q


def _quadratic_form(s: np.ndarray, xb: np.ndarray):
    """Q_ij = S_klij x^k x^l as one product over the flattened (k, l) pair."""
    xx = (xb[:, :, None] * xb[:, None, :]).reshape(-1, DIM * DIM)
    return _rows_times(xx, s.reshape(DIM * DIM, DIM * DIM)).reshape(-1, DIM, DIM)


def _rows_times(a: np.ndarray, b: np.ndarray):
    """a @ b, with each row's result independent of how many rows come along.

    NumPy hands a single row to BLAS gemv, whose sums can differ in the
    last bit from the gemm used for two rows or more, so a lone row is
    multiplied as a pair.
    """
    if a.shape[0] == 1:
        return (np.concatenate([a, a]) @ b)[:1]
    return a @ b


def _points_last(arr: np.ndarray):
    """A contiguous copy of ``arr`` with its leading point axis moved last."""
    return np.ascontiguousarray(np.moveaxis(arr, 0, -1))


def _one_block(shapes):
    """Uninitialized arrays of the given shapes, carved out of one allocation.

    A call's large arrays then make one block, which the C allocator keeps
    for the next call of the same size; as separate arrays they are handed
    back to the kernel when freed and faulted in again, page by page.
    """
    sizes = [prod(shape) for shape in shapes]
    block = np.empty(sum(sizes))
    return [block[end - size:end].reshape(shape)
            for size, end, shape in zip(sizes, accumulate(sizes), shapes)]


def _profile_derivs(basis, profiles, order: int):
    """Derivatives of each profile's f = sum_k c_k |x|^p_k up to ``order``, as
    ``_radial_derivs`` lays them out, accumulated in term order.  The k-th
    terms of all profiles are added in one pass, forming each power once."""
    rhos = []
    for k in range(max(map(len, profiles))):
        radial = {}
        for i, profile in enumerate(profiles):
            if k < len(profile):
                c, p = profile[k]
                if p not in radial:
                    radial[p] = _radial_derivs(basis, p, order)
                if k == 0:
                    rhos.append([c * part for part in radial[p]])
                else:
                    for total, part in zip(rhos[i], radial[p]):
                        total += c * part
    return rhos


def _products(axes: str):
    """The products q_m rho_(k-m) of ``_leibniz`` for the derivative axes
    labelled by ``axes``, in the order they are added: m = 2, 1, 0 and, for
    each m, the m-subsets of the axes in ``combinations`` order.

    Each is (m, views, count): a product equal to the one before it is
    listed once, with the number of times it is added.  ``views`` is the
    pair (q view, rho view); a view is (diagonal subscripts or None, index)
    and turns the factor into a view broadcasting onto the output axes
    axes + "ij" + "n", a repeated label taking the diagonal.  The point
    axis n is last in every factor, so each product's inner loop runs over
    the points, contiguous in the output and in Q, dQ and the radial
    factor; 2 S has a length-1 point axis.  The radial factor of order k
    itself is formed on the output's axes only (for "abb", the slab of
    d3 rho).  ``views`` is None for a product that is the one before it
    with the axes a and b swapped, as q1_b rho1_a is q1_a rho1_b for "ab":
    the same products of the same numbers, so it is read off the one
    before, transposed.
    """
    k = len(axes)
    out = "".join(dict.fromkeys(axes)) + "ijn"
    swap = str.maketrans("ab", "ba")

    def view(sub):
        labels = "".join(dict.fromkeys(sub))
        diagonal = f"{sub}->{labels}" if labels != sub else None
        return diagonal, tuple(slice(None) if c in labels else None for c in out)

    plan = []
    for m in (2, 1, 0):
        for pos in combinations(range(k), m):
            ang = "".join(axes[i] for i in pos)
            rad = "".join(axes[i] for i in range(k) if i not in pos) if m else out[:-3]
            plan.append((m, ang, rad))
    products, before = [], None
    for (m, ang, rad), run in groupby(plan):
        swapped = before == (m, ang.translate(swap), rad.translate(swap))
        views = None if swapped else (view(ang + "ijn"), view(rad + "n"))
        products.append((m, views, len(list(run))))
        before = (m, ang, rad)
    return tuple(products)


#: ``_products`` of the derivative orders 0-2 and of the slabs d_a d_b d_b
#: and d_a d_a d_b d_b
_PRODUCTS = {axes: _products(axes) for axes in ("", "a", "ab", "abb", "aabb")}


def _view(arr: np.ndarray, view):
    diagonal, index = view
    return (arr if diagonal is None else np.einsum(diagonal, arr))[index]


def _leibniz(q, rho, axes: str, term: np.ndarray, buf: np.ndarray):
    """d_axes (Q_ij f) into ``term``, from the angular factors q = (Q, dQ,
    d2Q) and the radial derivatives rho of f (Q is quadratic, so d3Q = 0),
    all with the point axis last.

    ``axes`` labels the derivative axes: "", "a" and "ab" for orders 0-2,
    or "abb" and "aabb" for the slabs d_a d_b d_b and d_a d_a d_b d_b.  The
    products (``_products``) are added left to right, each distinct one
    formed once: a lone first product in ``term``, every other in ``buf``
    and then added as often as it occurs, and a transposed one added as
    ``buf`` with its first two axes swapped.  Both arrays have the output's
    shape, axes + "ij" + "n", and are overwritten; ``term`` may be the
    output itself.  Every product and sum is elementwise, so each entry has
    the same bits in any layout.
    """
    k = len(axes)
    first = True
    for m, views, count in _PRODUCTS[axes]:
        if views is None:
            product = buf.swapaxes(0, 1)
        else:
            factors = (_view(q[m], views[0]), _view(rho[k - m], views[1]))
            if first and count == 1:
                np.multiply(*factors, out=term)
                first = False
                continue
            product = np.multiply(*factors, out=buf)
        if first:
            np.add(product, product, out=term)
            count -= 2
        for _ in range(count):
            term += product
        first = False
    return term


def _constant(profile):
    """The value of a profile whose powers are all 0, else None."""
    if all(p == 0.0 for _, p in profile):
        return sum(c for c, _ in profile)
    return None


class CurvatureQuadraticField:
    """Sum of terms c * W_kijl x^k x^l |x|^p with exact derivatives.

    ``derivative`` gives orders 0-2, ``jet`` the jet, ``_jet_points_last``
    the jet and the third-order slab d_a d_b d_b h, and
    ``bilaplacian_terms`` the fourth-order slab d_a d_a d_b d_b h; nothing
    reads more of the third and fourth orders.

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
    (c, p) pairs of that S in term order.  Rescaled fields merge equal
    tensors through the same grouping.
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

    def scaled(self, factor: float) -> "CurvatureQuadraticField":
        out = CurvatureQuadraticField([])
        out._set_terms([(factor * c, s, p) for (c, s, p) in self.terms])
        return out

    def _evaluate(self, xb, axes):
        """d_a h for each ``_leibniz`` axis label a in ``axes`` at the points
        xb, of shape (N, 4), with the point axis last, in one pass over the
        blocks: each block's angular factors are formed once, to the highest
        order asked for, and moved to point-last, the radial ones of all
        blocks in one pass; a constant profile c adds only c Q, c dQ, c d2Q.

        The first block that writes an output writes it in place, its
        Leibniz sum formed in the output or c Q multiplied into it; later
        blocks form theirs in a buffer and add it.  An output no block
        writes, the slab of a field of constant blocks or any output of the
        empty field, is filled with zeros.

        Returns the outputs and a spare flat array, twice the largest
        output's size: the two product buffers, free again on return.  The
        outputs and the spare array share one allocation."""
        n = xb.shape[0]
        shapes = [(DIM,) * len(set(a)) + (DIM, DIM, n) for a in axes]
        size = max(prod(shape) for shape in shapes)
        *out, spare = _one_block(shapes + [(2 * size,)])
        term, buf = spare[:size], spare[size:]
        unwritten = set(range(len(out)))
        order = max(len(a) for a in axes)
        varying = [profile for _, profile in self.blocks if _constant(profile) is None]
        rhos = _profile_derivs(_radial_basis(xb, order), varying, order) if varying else []
        for s, profile in self.blocks:
            q = _angular(s, xb, order)
            q = [_points_last(f) for f in q[:2]] + [f[..., None] for f in q[2:]]
            coeff = _constant(profile)
            if coeff is None:
                rho = rhos.pop(0)
            for index, (total, a) in enumerate(zip(out, axes)):
                if coeff is not None and len(a) > 2:
                    continue  # a constant block's third and fourth derivatives are 0
                work = buf[:total.size].reshape(total.shape)
                if index in unwritten:
                    unwritten.discard(index)
                    if coeff is None:
                        _leibniz(q, rho, a, total, work)
                    else:
                        np.multiply(coeff, q[len(a)], out=total)
                elif coeff is None:
                    total += _leibniz(q, rho, a, term[:total.size].reshape(total.shape), work)
                else:
                    total += coeff * q[len(a)]
            # freed before the next block's: holding both lifts a small call past
            # the allocator's trim threshold, so each call faults its pages anew
            del q
        for index in unwritten:
            out[index].fill(0.0)
        return out, spare

    def _points_first(self, x, axes):
        """``_evaluate`` with the point axis first, as the public evaluators
        return it.  Each output is transposed into the spare array, which the
        outputs of every public call fit: the largest output is at least half
        of their total.  So the transposes take no memory beyond the
        evaluation's own."""
        xb, single = _as_batch(x)
        out, spare = self._evaluate(xb, axes)
        result = []
        for total in out:
            first = spare[:total.size].reshape(total.shape[-1:] + total.shape[:-1])
            spare = spare[total.size:]
            np.copyto(first, np.moveaxis(total, -1, 0))
            result.append(first[0] if single else first)
        return tuple(result)

    def _jet_points_last(self, xb):
        """The jet (h, dh, d2h) and the slab T[a, b, i, j] = d_a d_b d_b h_ij
        at the points xb, of shape (N, 4), with the point axis last, e.g.
        d2h[a, b, i, j, n]: all the sphere integrands read.

        The jet equals ``jet(xb)`` with its point axis moved last, and T
        equals the b = c slab of the third derivative's Leibniz sum bit for
        bit: the same products are added in the same order."""
        return self._evaluate(xb, ("", "a", "ab", "abb"))[0]

    def derivative(self, x, order: int):
        """Partial derivatives of the field at x.

        Returns an array of shape (..., 4^order, 4, 4): derivative axes first
        (after the batch axis), then the two tensor component axes, e.g.
        order 2 gives D[n, a, b, i, j] = d_a d_b h_ij(x_n).  Higher orders
        are read only through their slabs, ``_jet_points_last`` and
        ``bilaplacian_terms``.
        """
        if not 0 <= order <= 2:
            raise ValueError("derivative order must be 0..2; the third and fourth are "
                             "read through their slabs, in the sphere integrands' jet "
                             "and bilaplacian_terms")
        return self._points_first(x, ("ab"[:order],))[0]

    def jet(self, x):
        """The jet (h, dh, d2h), equal to ``derivative(x, k)`` for k = 0, 1, 2
        bit for bit, in one pass over the blocks."""
        return self._points_first(x, ("", "a", "ab"))

    def bilaplacian_terms(self, x):
        """T[..., a, b, i, j] = d_a d_a d_b d_b h_ij, whose double trace over
        a and b is the bilaplacian.

        T equals the (a, a, b, b) slab of the fourth derivative's Leibniz
        sum bit for bit, at a sixteenth of its size: the same products are
        added in the same order.
        """
        return self._points_first(x, ("aabb",))[0]

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
        return np.einsum("...ii->...", self.derivative(x, 0))

    def divergence(self, x):
        """Euclidean divergence sum_k d_k h_ki, shape (..., 4)."""
        d1 = self.derivative(x, 1)
        return np.einsum("...kki->...i", d1)


class _Normals(Protocol):
    """What ``PolynomialField.random`` reads of its source of draws."""

    def standard_normal(self, size) -> np.ndarray: ...


class PolynomialField:
    """Dense symmetric polynomial of degree <= 3 with exact derivatives to order 2.

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
    def random(cls, rng: _Normals, scale: float = 0.05) -> "PolynomialField":
        """Coefficients of scale times standard normal draws, read from
        ``rng.standard_normal(shape)`` alone: a numpy Generator serves, and
        so does any source of that one method."""
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
        else:
            raise ValueError("derivative order must be 0..2")
        return out[0] if single else out

    def jet(self, x):
        """(h, dh, d2h), equal to ``derivative(x, k)`` for k = 0, 1, 2."""
        return tuple(self.derivative(x, k) for k in range(3))
