from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylglue import curvature as cv
from weylglue import gluing as gl
from weylglue import tensor_core as tc

from oracles import tensor_norm2
from random_tensors import random_weyl


def test_kulkarni_nomizu_normalization():
    # with the half-normalized product, (delta . delta)_{1212} = -1
    eye = np.eye(4)
    kn = tc.kulkarni_nomizu(eye, eye)
    assert kn[0, 1, 0, 1] == pytest.approx(-1.0)
    assert kn[0, 1, 1, 0] == pytest.approx(1.0)
    report = tc.validate(kn, "riemann")
    assert max(report.values()) < 1e-14


def test_kulkarni_nomizu_has_riemann_symmetries():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4))
    kn = tc.kulkarni_nomizu(a + a.T, b + b.T)
    assert max(tc.validate(kn, "riemann").values()) < 1e-12


def test_operator_round_trip():
    rng = np.random.default_rng(0)
    w = random_weyl(rng)
    op = tc.op_from_tensor(w)
    assert np.abs(op - op.T).max() < 1e-13
    back = tc.tensor_from_op(op)
    assert np.abs(back - w).max() < 1e-12


def test_norm_convention():
    # full contraction norm equals four times the operator Frobenius norm
    rng = np.random.default_rng(1)
    w = random_weyl(rng)
    op = tc.op_from_tensor(w)
    assert tensor_norm2(w) == pytest.approx(4.0 * np.sum(op * op), rel=1e-12)


def test_spectrum_construction_recovers_spectra():
    sd = np.array([2.0, -0.5, -1.5])
    asd = np.array([1.0, 0.0, -1.0])
    w = tc.algweyl_from_spectrum(sd, asd)
    op = tc.op_from_tensor(w)
    forms = tc.frame_two_forms(np.eye(4))
    for k in range(3):
        v = forms[k] / np.sqrt(2.0)
        assert v @ op @ v == pytest.approx(sd[k], abs=1e-12)
        u = forms[3 + k] / np.sqrt(2.0)
        assert u @ op @ u == pytest.approx(asd[k], abs=1e-12)


def test_spectrum_norm():
    sd = np.array([1.0, 0.0, -1.0])
    w = tc.algweyl_from_spectrum(sd, sd)
    # |W|^2 = 4 sum of squared eigenvalues over both blocks
    assert tensor_norm2(w) == pytest.approx(4.0 * (2.0 + 2.0), rel=1e-12)


def test_spectrum_from_json_projects_small_violations():
    sd, asd = tc.spectrum_from_json({"sd": [1.0, 0.0, -1.0 + 1e-12],
                                     "asd": [0.5, 0.0, -0.5]})
    assert abs(sd.sum()) < 1e-15


@pytest.mark.parametrize("scale", [1e4, 1e6, 1e8])
def test_valid_spectra_are_accepted_at_any_scale(scale):
    # centred in double precision, a triple sums to roundoff of its size,
    # which an absolute tolerance refuses at these scales
    rng = np.random.default_rng(0)
    for _ in range(50):
        sd, asd = (scale * rng.standard_normal(3) for _ in range(2))
        payload = {"sd": (sd - sd.mean()).tolist(), "asd": (asd - asd.mean()).tolist()}
        w = tc.algweyl_from_spectrum(*tc.spectrum_from_json(payload))
        gl.model_F(w)
    with pytest.raises(ValueError):
        tc.spectrum_from_json({"sd": [scale, 0.0, 1e-8 * scale - scale], "asd": [0.0] * 3})
    with pytest.raises(tc.TensorSymmetryError):
        tc.check_class(w + 1e-8 * np.abs(w).max() * np.eye(16).reshape((4,) * 4), "weyl", 1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_check_class_refuses_non_finite(bad):
    # a relative tolerance of an infinite tensor is infinite, and a NaN
    # residual compares false, so finiteness is checked first
    w = random_weyl(np.random.default_rng(9))
    w[0, 1, 0, 1] = w[1, 0, 1, 0] = bad
    with pytest.raises(tc.TensorSymmetryError, match="finite"):
        tc.check_class(w, "weyl")


def test_spectrum_from_json_rejects_trace_violation():
    with pytest.raises(ValueError):
        tc.spectrum_from_json({"sd": [1.0, 1.0, 1.0], "asd": [0.0, 0.0, 0.0]})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_spectrum_from_json_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="'asd'"):
        tc.spectrum_from_json({"sd": [1.0, 0.0, -1.0], "asd": [bad, 0.0, 0.0]})


def test_frame_two_forms_orthogonality():
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    if np.linalg.det(q) < 0:
        q[3] = -q[3]
    forms = tc.frame_two_forms(q)
    gram = forms @ forms.T
    assert np.abs(gram - 2.0 * np.eye(6)).max() < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=4, max_size=4))
def test_weyl_class_from_any_spectrum(vals):
    sd = np.array([vals[0], vals[1], -vals[0] - vals[1]])
    asd = np.array([vals[2], vals[3], -vals[2] - vals[3]])
    w = tc.algweyl_from_spectrum(sd, asd)
    report = tc.validate(w, "weyl")
    scale = max(np.abs(w).max(), 1.0)
    assert max(report.values()) <= 1e-12 * scale


@pytest.mark.parametrize("symmetry_class", ["none", "ricci"])
def test_validate_rejects_unknown_class(symmetry_class):
    w = random_weyl(np.random.default_rng(8))
    with pytest.raises(tc.TensorSymmetryError):
        tc.validate(w, symmetry_class)
    with pytest.raises(tc.TensorSymmetryError):
        tc.check_class(w, symmetry_class)


def test_weyl_from_riemann_kills_traces():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((4, 4))
    g = np.eye(4) + 0.05 * (a + a.T)
    s = rng.standard_normal((4, 4))
    riem = tc.kulkarni_nomizu(s + s.T, g) + 0.3 * tc.kulkarni_nomizu(g, g)
    ginv = np.linalg.inv(g)
    w = tc.weyl_from_riemann(riem, g)
    trace = np.einsum("kijl,kl->ij", w, ginv)
    assert np.abs(trace).max() < 1e-12


# The pair conventions pinned against the spellings they replaced, bit for
# bit and with the signs of zero, on tensors with exact zero entries.

def _exact_zero_tensors():
    """Weyl tensors at the identity frame, with exact zeros of both signs."""
    spectra = (((2.0, -0.5, -1.5), (1.0, 0.5, -1.5)), ((1.0, 0.0, -1.0), (0.0, 0.0, 0.0)),
               ((0.0, 0.0, 0.0), (0.5, 0.25, -0.75)))
    tensors = [tc.algweyl_from_spectrum(sd, asd) for sd, asd in spectra]
    tensors += [-w for w in tensors]
    zeros = np.concatenate([w[w == 0.0] for w in tensors])
    assert np.signbit(zeros).any() and not np.signbit(zeros).all()
    return tensors


def test_op_from_tensor_equals_loop_spelling():
    for w in _exact_zero_tensors():
        loop = np.empty((6, 6))
        for a, (k, l) in enumerate(tc.LEX_PAIRS):
            for b, (i, j) in enumerate(tc.LEX_PAIRS):
                loop[a, b] = w[i, j, l, k]
        got = tc.op_from_tensor(w)
        assert got.flags.c_contiguous
        assert np.array_equal(got, loop)
        assert np.array_equal(np.signbit(got), np.signbit(loop))


def test_frame_two_forms_equals_list_spelling():
    q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((4, 4)))
    q[3] *= np.sign(np.linalg.det(q))
    # the reflected frame's wedges hold zeros of both signs
    for frame in (np.eye(4), np.diag([1.0, 1.0, -1.0, -1.0]), q):
        def wedge(a, b):
            mat = np.outer(frame[a], frame[b]) - np.outer(frame[b], frame[a])
            return np.array([mat[i, j] for (i, j) in tc.LEX_PAIRS])

        e12, e34, e13, e42, e14, e23 = (wedge(0, 1), wedge(2, 3), wedge(0, 2), wedge(3, 1),
                                        wedge(0, 3), wedge(1, 2))
        want = np.stack([e12 + e34, e13 + e42, e14 + e23, e12 - e34, e13 - e42, e14 - e23])
        got = tc.frame_two_forms(frame)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_curvature_tables_equal_those_of_a_local_pair_map():
    pair_of = {}
    for a, (i, j) in enumerate(tc.LEX_PAIRS):
        pair_of[i, j], pair_of[j, i] = (a, 1.0), (a, -1.0)

    def entry(i, j, k, l):
        (a, s), (b, t) = pair_of.get((i, j), (0, 0.0)), pair_of.get((k, l), (0, 0.0))
        return 6 * a + b, s * t

    tables = (((cv._EXPAND_AT, cv._EXPAND_SIGN),
               [entry(*ijkl) for ijkl in product(range(4), repeat=4)]),
              ((cv._RIC_AT, cv._RIC_SIGN),
               [entry(k, i, j, l) for i, j, k, l in cv._RIC_TERMS]))
    for (at, sign), entries in tables:
        want_at, want_sign = (np.array(column) for column in zip(*entries))
        assert np.array_equal(at, want_at)
        assert np.array_equal(sign.ravel(), want_sign)
        assert np.array_equal(np.signbit(sign.ravel()), np.signbit(want_sign))


def test_weyl_from_riemann_equals_six_einsum_spelling():
    rng = np.random.default_rng(11)
    a, s = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
    g = np.eye(4) + 0.05 * (a + a.T)
    cases = [(w, np.eye(4)) for w in _exact_zero_tensors()]
    cases += [(tc.kulkarni_nomizu(s + s.T, g) + 0.3 * tc.kulkarni_nomizu(g, g) + w, g)
              for w in _exact_zero_tensors()[:2]]
    for riem, g in cases:
        ginv = np.linalg.inv(g)
        ric = np.einsum("kijl,kl->ij", riem, ginv)
        scal = float(np.einsum("ij,ij->", ginv, ric))
        ric_part = (np.einsum("jk,il->ijkl", ric, g) + np.einsum("il,jk->ijkl", ric, g)
                    - np.einsum("ik,jl->ijkl", ric, g) - np.einsum("jl,ik->ijkl", ric, g))
        scal_part = np.einsum("jk,il->ijkl", g, g) - np.einsum("ik,jl->ijkl", g, g)
        want = riem - ric_part / 2.0 + scal * scal_part / 6.0
        got = tc.weyl_from_riemann(riem, g)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
