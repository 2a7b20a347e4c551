import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylglue import curvature as cv
from weylglue import fields
from weylglue import gluing as gl
from weylglue.biharmonic import assemble_interpolant
from weylglue.fields import CurvatureQuadraticField, PolynomialField

from oracles import ScaledChart, fd_metric_data, metric
from random_tensors import random_weyl, slab_jet


def jet_field(rng):
    # every power of the interpolant, and a zero tensor the field drops
    terms = [(float(rng.uniform(-2.0, 2.0)), random_weyl(rng), p)
             for p in (-6.0, -4.0, 0.0, 2.0)]
    terms.insert(2, (1.7, np.zeros((4,) * 4), -4.0))
    return CurvatureQuadraticField(terms)


def test_fields_compare_and_hash_by_content():
    rng = np.random.default_rng(71)
    wm, wz, w3 = random_weyl(rng), random_weyl(rng), random_weyl(rng)
    terms = [(0.5, wm, -4.0), (-1.25, wz, 2.0)]
    h = CurvatureQuadraticField(terms)
    same = [CurvatureQuadraticField([(c, w.copy(), p) for c, w, p in terms]),
            CurvatureQuadraticField(terms[:1] + [(1.7, np.zeros((4,) * 4), 0.0)] + terms[1:]),
            h.scaled(1.0)]
    for other in same:
        assert other == h and hash(other) == hash(h)
    assert len({h, *same}) == 1
    different = [[(0.75, wm, -4.0), terms[1]], [(0.5, wm, -6.0), terms[1]],
                 [(0.5, w3, -4.0), terms[1]], terms[::-1], terms[:1]]
    for other in different:
        assert CurvatureQuadraticField(other) != h
    assert h != terms


def test_points_need_four_components():
    h = CurvatureQuadraticField([(1.0, random_weyl(np.random.default_rng(75)), -4.0)])
    for x in (np.ones(3), np.ones((5, 3)), np.ones((2, 5))):
        with pytest.raises(ValueError, match="4 components"):
            h.jet(x)


@pytest.mark.parametrize("order", [-1, 3, 4])
def test_derivative_refuses_orders_read_through_slabs(order):
    # the third and fourth orders exist only as the slabs the integrals read
    h = CurvatureQuadraticField([(1.0, random_weyl(np.random.default_rng(76)), -4.0)])
    with pytest.raises(ValueError) as info:
        h.derivative(np.ones(4), order)
    assert "slabs" in str(info.value)
    assert "bilaplacian_terms" in str(info.value)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       coeffs=st.lists(st.floats(-3.0, 3.0), min_size=10, max_size=10))
def test_blocks_equal_sum_of_single_terms(seed, coeffs):
    # the interpolant's shape (two tensors x powers {-6, -4, 0, 2}), a block
    # whose powers are all 0 and a zero tensor, in shuffled term order
    rng = np.random.default_rng(seed)
    wm, wz, w0 = random_weyl(rng), random_weyl(rng), random_weyl(rng)
    powers = (-6.0, -4.0, 0.0, 2.0)
    terms = ([(c, wm, p) for c, p in zip(coeffs[:4], powers)]
             + [(c, wz, p) for c, p in zip(coeffs[4:8], powers)]
             + [(coeffs[8], w0, 0.0), (coeffs[9], w0, 0.0), (1.7, np.zeros((4,) * 4), -4.0)])
    terms = [terms[i] for i in rng.permutation(len(terms))]
    h = CurvatureQuadraticField(terms)
    singles = [CurvatureQuadraticField([t]) for t in terms]
    assert len(h.terms) == 10 and len(h.blocks) == 3
    x = rng.uniform(0.05, 1.5, (6, 1)) * rng.standard_normal((6, 4))

    def close(got, parts):
        # to 1e-12 of the largest entry of any single term
        scale = max(np.abs(part).max() for part in parts)
        assert np.abs(got - sum(parts)).max() <= 1e-12 * scale

    for order in range(3):
        close(h.derivative(x, order), [f.derivative(x, order) for f in singles])
    close(h.bilaplacian_terms(x), [f.bilaplacian_terms(x) for f in singles])
    for jet in (slab_jet, CurvatureQuadraticField.jet):
        single_jets = [jet(f, x) for f in singles]
        for k, got in enumerate(jet(h, x)):
            close(got, [jet[k] for jet in single_jets])
    close(h.laplacian(x), [f.laplacian(x) for f in singles])
    close(h.bilaplacian(x), [f.bilaplacian(x) for f in singles])


@pytest.mark.parametrize("seed", [61, 62, 63])
def test_jet_equals_derivatives_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    h = jet_field(rng)
    batch = rng.uniform(0.02, 1.5, (9, 1)) * rng.standard_normal((9, 4))
    for x in (batch, batch[4]):
        h0, h1, h2, slab = slab_jet(h, x)
        for k, got in enumerate((h0, h1, h2)):
            assert np.array_equal(got, h.derivative(x, k))
        d3 = _oracle_derivative(h, x, 3)
        assert slab.shape == d3.shape[:-5] + (4, 4, 4, 4)
        assert np.array_equal(slab, np.einsum("...abbij->...abij", d3))


# The Leibniz kernel spelled with one einsum per product and the batch axis
# last in the radial derivatives: the oracle for the buffered kernel in
# ``weylglue.fields``, which must add the same products in the same order.

DIM = 4
_EYE = np.eye(DIM)


def _oracle_radial_derivs(x: np.ndarray, p: float, order: int):
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


def _oracle_profile_derivs(xb: np.ndarray, profile, order: int):
    """Derivatives of f = sum_k c_k |x|^p_k up to ``order``, laid out as in
    ``_oracle_radial_derivs`` and accumulated in the order of the terms."""
    rho = None
    for c, p in profile:
        parts = _oracle_radial_derivs(xb, p, order)
        if rho is None:
            rho = [c * part for part in parts]
        else:
            for total, part in zip(rho, parts):
                total += c * part
    return rho


def _oracle_leibniz(q, rho, order: int):
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


def _oracle_d3_slab(q, rho):
    """d_a d_b d_b (Q_ij f): the order-3 sum of ``_oracle_leibniz`` at c = b,
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


def _oracle_derivative(h, x, order):
    xb, single = fields._as_batch(x)
    total = np.zeros((xb.shape[0],) + (DIM,) * order + (DIM, DIM))
    for s, profile in h.blocks:
        coeff = fields._constant(profile)
        if coeff is not None:
            if order <= 2:
                total += coeff * fields._angular(s, xb)[order]
            continue
        rho = _oracle_profile_derivs(xb, profile, order)
        total += _oracle_leibniz(fields._angular(s, xb), rho, order)
    return total[0] if single else total


def _oracle_slab(h, x):
    xb, single = fields._as_batch(x)
    total = np.zeros((xb.shape[0],) + (DIM,) * 4)
    for s, profile in h.blocks:
        if fields._constant(profile) is None:
            total += _oracle_d3_slab(fields._angular(s, xb),
                                     _oracle_profile_derivs(xb, profile, 3))
    return total[0] if single else total


@pytest.mark.parametrize("seed", [66, 67])
def test_kernel_equals_einsum_oracle_bit_for_bit(seed):
    # a block of every interpolant power with a p = 0 term, a block whose
    # powers are all 0, and a block of powers 2 and -4 in that order
    rng = np.random.default_rng(seed)
    w1, w2, w3 = random_weyl(rng), random_weyl(rng), random_weyl(rng)
    c = rng.uniform(-2.0, 2.0, 8)
    h = CurvatureQuadraticField([(c[0], w1, -6.0), (c[1], w1, -4.0), (c[2], w1, 0.0),
                                 (c[3], w1, 2.0), (c[4], w2, 0.0), (c[5], w2, 0.0),
                                 (c[6], w3, 2.0), (c[7], w3, -4.0)])
    assert len(h.blocks) == 3
    batch = rng.uniform(0.02, 1.5, (11, 1)) * rng.standard_normal((11, 4))
    for x in (batch, batch[5]):
        for order in range(3):
            assert np.array_equal(h.derivative(x, order), _oracle_derivative(h, x, order))
        *jet, slab = slab_jet(h, x)
        for k, got in enumerate(jet):
            assert np.array_equal(got, _oracle_derivative(h, x, k))
        assert np.array_equal(slab, _oracle_slab(h, x))
        assert np.array_equal(h.bilaplacian_terms(x),
                              np.einsum("...aabbij->...abij", _oracle_derivative(h, x, 4)))


def _evaluations(h, x):
    """Every output of the field kernel at x: the slab jet, the orders 0-2
    and the order-4 slab."""
    return (*slab_jet(h, x), *(h.derivative(x, k) for k in range(3)),
            h.bilaplacian_terms(x))


def test_first_block_is_written_in_place():
    # each output equals 0.0 plus the blocks' own evaluations in block order,
    # bit for bit; a constant block contributes exact zeros to both slabs,
    # which a field of constant blocks alone must read as zeros, not as the
    # memory its outputs were carved from
    rng = np.random.default_rng(77)
    w1, w2 = random_weyl(rng), random_weyl(rng)
    fields_ = (assemble_interpolant(w1, w2, 0.05, 2.0),
               CurvatureQuadraticField([(0.8, w1, 0.0), (-1.3, w2, -4.0), (0.6, w2, 2.0)]),
               CurvatureQuadraticField([(0.8, w1, 0.0), (0.4, w1, 0.0)]),
               CurvatureQuadraticField([]))
    # the output axes after the point axis; the slabs are the fourth and last
    shapes = ((4, 4), (4,) * 3, (4,) * 4, (4,) * 4, (4, 4), (4,) * 3, (4,) * 4, (4,) * 4)
    slabs = (3, 7)
    batch = rng.uniform(0.05, 1.5, (9, 1)) * rng.standard_normal((9, 4))
    for h in fields_:
        singles = []
        for s, profile in h.blocks:
            single = CurvatureQuadraticField([])
            single._set_terms([(c, s, p) for c, p in profile])
            singles.append((single, fields._constant(profile) is not None))
        for x in (batch, batch[4]):
            want = [0.0] * len(shapes)
            for single, constant in singles:
                for k, part in enumerate(_evaluations(single, x)):
                    want[k] = want[k] + (np.zeros_like(part) if constant and k in slabs else part)
            for value, expected, shape in zip(_evaluations(h, x), want, shapes):
                assert value.shape == x.shape[:-1] + shape
                assert np.array_equal(value, np.broadcast_to(expected, value.shape))


@pytest.mark.parametrize("batch", [1, 4, 384])
def test_slab_equals_third_derivative_slab(batch):
    # batch 4 equals DIM, where a batch axis told from a tensor axis by its
    # length would be taken for the wrong one
    rng = np.random.default_rng(73)
    wm, wz = random_weyl(rng), random_weyl(rng)
    constant = CurvatureQuadraticField([(0.8, wm, 0.0)])
    interp = assemble_interpolant(wm, wz, 0.05, 2.0)
    x = rng.uniform(0.05, 1.0, (batch, 1)) * rng.standard_normal((batch, 4))
    for h in (constant, interp):
        slab = slab_jet(h, x)[3]
        want = np.einsum("nabbij->nabij", _oracle_derivative(h, x, 3))
        assert slab.shape == want.shape == (batch, 4, 4, 4, 4)
        assert np.array_equal(slab, want)


@pytest.mark.parametrize("batch", [1, 4, 20])
def test_bilaplacian_terms_equal_fourth_derivative_slab(batch):
    # the 2-block interpolant and the one-term model_F (power -4); the double
    # trace is the bilaplacian, within roundoff of the slab's largest entry
    rng = np.random.default_rng(74)
    wm, wz = random_weyl(rng), random_weyl(rng)
    x = rng.uniform(0.1, 1.0, (batch, 1)) * rng.standard_normal((batch, 4))
    interp = assemble_interpolant(wm, wz, 0.05, 2.0)
    assert len(interp.blocks) == 2
    for h in (interp, gl.model_F(wm)):
        terms = h.bilaplacian_terms(x)
        want = np.einsum("naabbij->nabij", _oracle_derivative(h, x, 4))
        assert terms.shape == want.shape == (batch, 4, 4, 4, 4)
        assert np.array_equal(terms, want)
        assert (np.abs(np.einsum("nabij->nij", terms) - h.bilaplacian(x)).max()
                <= 1e-12 * np.abs(terms).max())


def _charts(rng):
    quad = cv.FieldChart(jet_field(rng), scale=0.3)
    poly = cv.FieldChart(PolynomialField.random(rng, scale=0.05))
    wm, wz = random_weyl(rng), random_weyl(rng)
    glued = gl.GluedChart(wm, wz, gl.GluingParams(a=1e-5, lam=1.5, gamma=0.05))
    return [quad, poly, ScaledChart(quad, 1.7), ScaledChart(poly, 0.4), glued]


def _jet_from_derivatives(chart, x):
    """The metric jet of a field-backed chart, spelled from the fields' own
    ``derivative`` with the chart's arithmetic."""
    if isinstance(chart, ScaledChart):
        return tuple(chart.factor * d for d in _jet_from_derivatives(chart.base, x))
    if isinstance(chart, gl.GluedChart):
        xb, single = fields._as_batch(x)
        zone = np.asarray(chart.zone(xb))
        jet = [np.zeros((xb.shape[0],) + (4,) * k + (4, 4)) for k in range(3)]
        for zid, fld in enumerate((chart.inner, chart.mid, chart.outer)):
            mask = zone == zid
            for k in range(3):
                jet[k][mask] = fld.derivative(xb[mask], k)
        jet[0] += np.eye(4)
        return tuple(d[0] for d in jet) if single else tuple(jet)
    h = [chart.scale * chart.h.derivative(x, k) for k in range(3)]
    return (np.eye(4) + h[0], h[1], h[2])


def _jet_points(rng):
    # radii in all three zones of the glued chart (a = 1e-5, gamma = 0.05),
    # with some close to its interfaces at gamma and 1
    radii = np.array([0.02, 0.04, 0.0484, 0.08, 0.3, 0.6, 0.9, 1.0016, 1.1, 1.5, 1.9])
    dirs = rng.standard_normal((radii.size, 4))
    return radii[:, None] * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


@pytest.mark.parametrize("seed", [64, 65])
def test_metric_jet_equals_field_derivatives(seed):
    rng = np.random.default_rng(seed)
    batch = _jet_points(rng)
    for chart in _charts(rng):
        for x in (batch, batch[4]):
            got = chart.metric_jet(x)
            want = _jet_from_derivatives(chart, x)
            assert len(got) == 3
            for a, b in zip(got, want):
                assert a.shape == b.shape
                assert np.array_equal(a, b)
            assert np.array_equal(metric(chart, x), got[0])


@pytest.mark.parametrize("seed", [64, 65])
def test_metric_jet_matches_finite_differences(seed):
    # Richardson-extrapolated central differences at step h: the roundoff of
    # a k-th difference is about eps |g| / h^k (allowed 100 times over), and
    # the O(h^4) truncation stays below 1e-5 of the derivative
    step = 1e-5
    eps = np.finfo(float).eps
    rng = np.random.default_rng(seed)
    batch = _jet_points(rng)
    for chart in _charts(rng):
        for x in batch:
            jet = chart.metric_jet(x)
            fd = fd_metric_data(chart, x, step)
            assert np.array_equal(fd[0], jet[0])
            for k in (1, 2):
                tol = 100 * eps * np.abs(jet[0]).max() / step ** k + 1e-5 * np.abs(jet[k]).max()
                assert np.abs(fd[k] - jet[k]).max() <= tol, (type(chart).__name__, np.linalg.norm(x), k)


@pytest.mark.parametrize("seed", [68, 69])
def test_laplacians_equal_traced_derivatives(seed):
    # the closed forms p (p + 6) Q r^(p-2) of ``laplacian`` and
    # ``bilaplacian`` against the traces of the Leibniz second derivative
    # and fourth-order slab d_a d_a d_b d_b
    rng = np.random.default_rng(seed)
    wm, wz = random_weyl(rng), random_weyl(rng)
    interp = assemble_interpolant(wm, wz, 0.05, 1.5)
    batch = rng.uniform(0.05, 1.5, (9, 1)) * rng.standard_normal((9, 4))
    for h in (jet_field(rng), interp):
        for x in (batch, batch[2]):
            d2, d4 = h.derivative(x, 2), h.bilaplacian_terms(x)
            for got, d, spec in ((h.laplacian(x), d2, "...aaij->...ij"),
                                 (h.bilaplacian(x), d4, "...abij->...ij")):
                assert got.shape == x.shape[:-1] + (4, 4)
                assert np.abs(got - np.einsum(spec, d)).max() <= 1e-12 * np.abs(d).max()
