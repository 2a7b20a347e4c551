"""Dense rank-4 tensor algebra in dimension four.

Everything here works with plain numpy arrays: symmetric 2-tensors are
(4, 4) arrays, rank-4 curvature-type tensors are (4, 4, 4, 4) arrays, and
operators on 2-forms are (6, 6) arrays in the lexicographic basis
e^1^e^2, e^1^e^3, e^1^e^4, e^2^e^3, e^2^e^4, e^3^e^4.

Index convention, fixed once for the whole package: the Ricci tensor is
obtained by contracting the first and last slots of the (0,4) curvature
tensor, R_ij = R_kijl g^kl, and the Kulkarni-Nomizu product carries a 1/2
normalization, so that (delta (x) delta)_{1212} = -1.  With this choice the
curvature operator of delta (x) delta is plus the identity on 2-forms.
"""

from __future__ import annotations

import numpy as np

DIM = 4

#: Lexicographic index pairs for the 2-form basis.
LEX_PAIRS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

DEFAULT_TOL = 1e-12

#: Coefficient matrices E[b] of the basis 2-forms: E[b][i, j] = +1 / -1 on the
#: b-th lexicographic pair and its transpose.
_BASIS_FORMS = np.zeros((6, DIM, DIM))
for _b, (_i, _j) in enumerate(LEX_PAIRS):
    _BASIS_FORMS[_b, _i, _j] = 1.0
    _BASIS_FORMS[_b, _j, _i] = -1.0


class TensorSymmetryError(ValueError):
    """Raised when an input violates the declared tensor symmetry class."""


def kulkarni_nomizu(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Half-normalized Kulkarni-Nomizu product of two symmetric 2-tensors.

    (a . b)_ijkl = 1/2 (a_il b_jk + a_jk b_il - a_ik b_jl - a_jl b_ik).
    The result has all the algebraic symmetries of a curvature tensor.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    term = np.einsum("il,jk->ijkl", a, b) + np.einsum("jk,il->ijkl", a, b)
    term -= np.einsum("ik,jl->ijkl", a, b) + np.einsum("jl,ik->ijkl", a, b)
    return 0.5 * term


def validate(t: np.ndarray, symmetry_class: str = "riemann") -> dict[str, float]:
    """Max residual of each algebraic symmetry for the requested class.

    Returns a dict of residuals; entries are zero (up to roundoff) for a
    compliant tensor.  ``symmetry_class`` is ``riemann`` or ``weyl``; the
    weyl class adds the first Bianchi identity and vanishing of all metric
    traces (taken with the identity metric).
    """
    if symmetry_class not in ("riemann", "weyl"):
        raise TensorSymmetryError(f"unknown symmetry class {symmetry_class!r}")
    t = np.asarray(t, dtype=float)
    if t.shape != (DIM,) * 4:
        raise TensorSymmetryError(f"expected shape {(DIM,)*4}, got {t.shape}")
    report: dict[str, float] = {}
    report["antisym_first_pair"] = float(np.abs(t + t.transpose(1, 0, 2, 3)).max())
    report["antisym_last_pair"] = float(np.abs(t + t.transpose(0, 1, 3, 2)).max())
    report["pair_exchange"] = float(np.abs(t - t.transpose(2, 3, 0, 1)).max())
    if symmetry_class == "weyl":
        bianchi = t + t.transpose(1, 2, 0, 3) + t.transpose(2, 0, 1, 3)
        report["first_bianchi"] = float(np.abs(bianchi).max())
        report["trace"] = float(np.abs(np.einsum("kijk->ij", t)).max())
    return report


def _scale(a) -> float:
    """max(1, largest |entry|), the unit of every input tolerance here."""
    return max(1.0, float(np.abs(a).max()))


def check_class(t: np.ndarray, symmetry_class: str, tol: float = DEFAULT_TOL) -> None:
    """Raise TensorSymmetryError if t is not finite or a residual of
    ``validate`` exceeds tol * _scale(t)."""
    if not np.isfinite(t).all():
        raise TensorSymmetryError(f"{symmetry_class} check needs finite entries")
    limit = tol * _scale(t)
    bad = {k: v for k, v in validate(t, symmetry_class).items() if v > limit}
    if bad:
        raise TensorSymmetryError(f"{symmetry_class} symmetry violated: {bad}")


def tensor_norm2(t: np.ndarray) -> float:
    """Full-contraction squared norm |T|^2 = T_ijkl T_ijkl (identity metric)."""
    t = np.asarray(t, dtype=float)
    return float(np.sum(t * t))


def op_from_tensor(w: np.ndarray) -> np.ndarray:
    """Curvature operator on 2-forms induced by a (0,4) curvature tensor.

    The operator sends e^i^e^j to (1/2) W_ijlk e^k^e^l; note the reversal of
    the last two slots.  Returns the symmetric 6x6 matrix in the
    lexicographic basis.  With this convention |W|^2 = 4 ||W_hat||^2.
    """
    w = np.asarray(w, dtype=float)
    check_class(w, "riemann", 1e-10)
    mat = np.empty((6, 6))
    for a, (k, l) in enumerate(LEX_PAIRS):
        for b, (i, j) in enumerate(LEX_PAIRS):
            mat[a, b] = w[i, j, l, k]
    return mat


def tensor_from_op(op: np.ndarray) -> np.ndarray:
    """Inverse of ``op_from_tensor``: rebuild the (0,4) tensor from the 6x6 matrix."""
    op = np.asarray(op, dtype=float)
    if op.shape != (6, 6):
        raise TensorSymmetryError(f"expected 6x6 matrix, got {op.shape}")
    if np.abs(op - op.T).max() > 1e-10:
        raise TensorSymmetryError("operator matrix is not symmetric")
    # W_ijkl on sorted pairs equals -op[(k,l), (i,j)]; extend antisymmetrically.
    return -np.einsum("ab,bpq,ars->pqrs", op, _BASIS_FORMS, _BASIS_FORMS)


def weyl_from_riemann(riem: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Totally trace-free (Weyl) part of a curvature tensor, n = 4.

    W_ijkl = R_ijkl - 1/2 (R_jk g_il + R_il g_jk - R_ik g_jl - R_jl g_ik)
             + (R/6) (g_jk g_il - g_ik g_jl).
    Ricci and scalar curvature are computed from ``riem`` and ``g``.  The
    result is trace-free in every index pair.
    """
    riem = np.asarray(riem, dtype=float)
    g = np.asarray(g, dtype=float)
    check_class(riem, "riemann", 1e-9)
    if abs(np.linalg.det(g)) < 1e-14:
        raise np.linalg.LinAlgError("degenerate metric")
    ginv = np.linalg.inv(g)
    ric = np.einsum("kijl,kl->ij", riem, ginv)
    scal = float(np.einsum("ij,ij->", ginv, ric))
    n = DIM
    ric_part = (np.einsum("jk,il->ijkl", ric, g) + np.einsum("il,jk->ijkl", ric, g)
                - np.einsum("ik,jl->ijkl", ric, g) - np.einsum("jl,ik->ijkl", ric, g))
    scal_part = (np.einsum("jk,il->ijkl", g, g) - np.einsum("ik,jl->ijkl", g, g))
    return riem - ric_part / (n - 2) + scal * scal_part / ((n - 1) * (n - 2))


def frame_two_forms(frame: np.ndarray) -> np.ndarray:
    """Six 2-forms of an oriented orthonormal frame, as lexicographic 6-vectors.

    Rows of ``frame`` are the frame vectors e_1..e_4.  Returns the stacked
    coefficient vectors of
        omega+- = e^1^e^2 +- e^3^e^4,
        eta+-   = e^1^e^3 +- e^4^e^2,
        theta+- = e^1^e^4 +- e^2^e^3,
    ordered (omega+, eta+, theta+, omega-, eta-, theta-).  Each has norm
    sqrt(2) and the first three span the self-dual space.
    """
    frame = np.asarray(frame, dtype=float)
    if frame.shape != (DIM, DIM):
        raise ValueError("frame must be a 4x4 array with rows e_1..e_4")
    gram = frame @ frame.T
    if np.abs(gram - np.eye(DIM)).max() > 1e-8:
        raise ValueError("frame is not orthonormal")
    if np.linalg.det(frame) < 0:
        raise ValueError("frame is not positively oriented")

    def wedge(a: int, b: int) -> np.ndarray:
        mat = np.outer(frame[a], frame[b]) - np.outer(frame[b], frame[a])
        return np.array([mat[i, j] for (i, j) in LEX_PAIRS])

    e12, e34 = wedge(0, 1), wedge(2, 3)
    e13, e42 = wedge(0, 2), wedge(3, 1)
    e14, e23 = wedge(0, 3), wedge(1, 2)
    return np.stack([e12 + e34, e13 + e42, e14 + e23,
                     e12 - e34, e13 - e42, e14 - e23])


def algweyl_from_spectrum(sd, asd, frame: np.ndarray | None = None) -> np.ndarray:
    """Algebraic Weyl tensor with prescribed self-dual / anti-self-dual spectra.

    Builds the operator W_hat = 1/2 sum lambda_k (form_k (x) form_k) over the
    six basis 2-forms of the frame, then converts to a (0,4) tensor, a
    (4, 4, 4, 4) array with every Weyl symmetry to 1e-9.  Each triple must
    sum to zero within 1e-12 (both relative, ``_scale``); the frame
    defaults to the identity.
    """
    sd = np.asarray(sd, dtype=float)
    asd = np.asarray(asd, dtype=float)
    if sd.shape != (3,) or asd.shape != (3,):
        raise ValueError("spectra must be triples")
    for name, triple in (("sd", sd), ("asd", asd)):
        if abs(triple.sum()) > 1e-12 * _scale(triple):
            raise ValueError(f"trace-free violation: {name} triple sums to {triple.sum()}")
    if frame is None:
        frame = np.eye(DIM)
    forms = frame_two_forms(frame)
    eigs = np.concatenate([sd, asd])
    op = 0.5 * np.einsum("k,ka,kb->ab", eigs, forms, forms)
    tensor = tensor_from_op(op)
    check_class(tensor, "weyl", 1e-9)
    return tensor


def spectrum_from_json(payload: dict):
    """Parse the {"sd": [...], "asd": [...]} spectrum payload.

    Each triple must be a list of three finite numbers; a bool or a string
    that reads as a number is refused, as it is for a config value.  One
    whose sum is nonzero but at most 1e-9 times ``_scale`` of the triple is
    projected back onto the trace-free plane; a larger sum is rejected.
    """
    if not isinstance(payload, dict):
        raise ValueError("spectrum payload must be a JSON object with keys 'sd' "
                         f"and 'asd', got {payload!r}")
    out = []
    for key in ("sd", "asd"):
        if key not in payload:
            raise ValueError(f"spectrum payload missing {key!r}")
        entries = payload[key]
        if (not isinstance(entries, list) or len(entries) != 3
                or any(isinstance(v, bool) or not isinstance(v, (int, float))
                       for v in entries)):
            raise ValueError(f"{key!r} must be a triple of numbers, got {entries!r}")
        try:
            triple = np.array(entries, dtype=float)
        except OverflowError:  # an integer beyond the float range
            raise ValueError(f"{key!r} has non-finite entries: {entries!r}") from None
        if not np.isfinite(triple).all():
            raise ValueError(f"{key!r} has non-finite entries: {triple.tolist()}")
        s = triple.sum()
        if abs(s) > 1e-9 * _scale(triple):
            raise ValueError(f"{key!r} triple sums to {s}, not trace-free")
        out.append(triple - s / 3.0)
    return out[0], out[1]
