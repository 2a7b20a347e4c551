"""Self-dual / anti-self-dual structure of algebraic Weyl tensors.

The Hodge star on 2-forms in oriented Euclidean R^4 splits Lambda^2 into
three-dimensional eigenspaces Lambda^+ and Lambda^-.  An algebraic Weyl
operator is block diagonal with respect to this splitting; everything the
interaction analysis needs (spectra, diagonalizing frames, the alignment
recipe, the orientation flip) lives here.
"""

from __future__ import annotations

import numpy as np

from .tensor_core import (DIM, LEX_PAIRS, algweyl_from_spectrum, frame_two_forms,
                          op_from_tensor, tensor_from_op)

#: Signature of the Hodge star in the lexicographic 2-form basis: the star
#: exchanges a pair with its complement, with the sign of the permutation
#: (i, j, k, l) of (1, 2, 3, 4).
HODGE_STAR = np.zeros((6, 6))
for _a, (_i, _j) in enumerate(LEX_PAIRS):
    _rest = [k for k in range(DIM) if k not in (_i, _j)]
    _b = LEX_PAIRS.index(tuple(_rest))
    _perm = [_i, _j] + _rest
    _sign = 1.0
    for _p in range(4):
        for _q in range(_p + 1, 4):
            if _perm[_p] > _perm[_q]:
                _sign = -_sign
    HODGE_STAR[_a, _b] = _sign

#: Orthonormal (after /sqrt 2) bases of the self-dual and anti-self-dual
#: spaces, rows omega/eta/theta as 6-vectors in the lexicographic basis.
SD_BASIS = frame_two_forms(np.eye(DIM))[:3]
ASD_BASIS = frame_two_forms(np.eye(DIM))[3:]


class BlockStructureError(ValueError):
    """Raised when an operator fails to commute with the Hodge star."""


def hodge_split(op: np.ndarray, tol: float = 1e-12):
    """Split a 6x6 curvature operator into its 3x3 SD and ASD blocks.

    Returns (sd_block, asd_block) in the omega/eta/theta bases.  Raises
    BlockStructureError if the off-diagonal coupling exceeds ``tol`` times
    the operator scale, max(max |op|, 1); a Weyl operator always passes.
    ``spectra`` uses the default 1e-12 and ``derdzinski_frame`` 1e-9.
    """
    op = np.asarray(op, dtype=float)
    p = SD_BASIS / np.sqrt(2.0)
    m = ASD_BASIS / np.sqrt(2.0)
    sd = p @ op @ p.T
    asd = m @ op @ m.T
    cross = p @ op @ m.T
    scale = max(np.abs(op).max(), 1.0)
    if np.abs(cross).max() > tol * scale:
        raise BlockStructureError(
            f"operator couples SD and ASD blocks: max |cross| = {np.abs(cross).max():.3e}")
    return sd, asd


def spectra(w: np.ndarray):
    """Descending SD and ASD eigenvalue triples of an algebraic Weyl tensor."""
    sd, asd = hodge_split(op_from_tensor(w))
    lam_sd = np.sort(np.linalg.eigvalsh(sd))[::-1]
    lam_asd = np.sort(np.linalg.eigvalsh(asd))[::-1]
    return lam_sd, lam_asd


def _antisym_matrix(vec6: np.ndarray) -> np.ndarray:
    mat = np.zeros((DIM, DIM))
    for a, (i, j) in enumerate(LEX_PAIRS):
        mat[i, j] = vec6[a]
        mat[j, i] = -vec6[a]
    return mat


def _eigh_descending(block: np.ndarray):
    vals, vecs = np.linalg.eigh(block)
    order = np.argsort(vals)[::-1]
    return vals[order], vecs[:, order]


def derdzinski_frame(w: np.ndarray):
    """Orthonormal oriented frame diagonalizing both Weyl blocks.

    Returns (frame, sd_triple, asd_triple) where the rows e_1..e_4 of
    ``frame`` are such that the associated omega/eta/theta 2-forms are
    eigenvectors of the SD and ASD blocks with descending eigenvalues.
    The construction intersects the rank-one projectors of the products of
    eigen-2-forms, so it works for any spectra.  The frame is canonicalized
    by making the largest-magnitude component of e_1 positive.
    """
    op = op_from_tensor(w)
    sd, asd = hodge_split(op, 1e-9)
    lam_sd, u_sd = _eigh_descending(sd)
    lam_asd, u_asd = _eigh_descending(asd)

    # eigen-2-forms back in the lexicographic basis, normalized to |.| = sqrt 2
    p = SD_BASIS / np.sqrt(2.0)
    m = ASD_BASIS / np.sqrt(2.0)
    sd_forms = [np.sqrt(2.0) * (u_sd[:, k] @ p) for k in range(3)]
    asd_forms = [np.sqrt(2.0) * (u_asd[:, k] @ m) for k in range(3)]

    # Orient both triples to satisfy the quaternionic relations of a frame's
    # canonical forms: omega+ eta+ = -theta+ and omega- eta- = +theta-.  Any
    # properly oriented pair of SD and ASD triples arises from a common
    # positively oriented frame because the two factors of SO(4) act on
    # Lambda+ and Lambda- independently.
    sd_mats = [_antisym_matrix(f) for f in sd_forms]
    if np.abs(sd_mats[0] @ sd_mats[1] + sd_mats[2]).max() > 0.5:
        sd_forms[2] = -sd_forms[2]
        sd_mats[2] = -sd_mats[2]
    asd_mats = [_antisym_matrix(f) for f in asd_forms]
    if np.abs(asd_mats[0] @ asd_mats[1] - asd_mats[2]).max() > 0.5:
        asd_forms[2] = -asd_forms[2]
        asd_mats[2] = -asd_mats[2]

    # The averaged matrices A = (omega+ + omega-)/2 etc. send e_1 to -e_2,
    # -e_3, -e_4, and -A^2 projects onto span(e_1, e_2), so the product of
    # the first two projectors isolates e_1 e_1^T.
    am, bm, cm = [0.5 * (s + a) for s, a in zip(sd_mats, asd_mats)]
    e1e1 = (-am @ am) @ (-bm @ bm)
    e1e1 = 0.5 * (e1e1 + e1e1.T)
    vals, vecs = np.linalg.eigh(e1e1)
    e1 = vecs[:, np.argmax(vals)]
    k = int(np.argmax(np.abs(e1)))
    if e1[k] < 0:
        e1 = -e1
    frame = np.stack([e1, -am @ e1, -bm @ e1, -cm @ e1])

    # sanity: rebuild must reproduce the operator
    rebuilt = algweyl_from_spectrum(lam_sd, lam_asd, frame=frame)
    orig = tensor_from_op(op)
    if np.abs(rebuilt - orig).max() > 1e-7 * max(np.abs(orig).max(), 1.0):
        raise BlockStructureError("frame reconstruction failed to reproduce the tensor")
    return frame, lam_sd, lam_asd


def reverse_orientation(w: np.ndarray) -> np.ndarray:
    """Pull back the tensor by the reflection x^4 -> -x^4.

    This conjugation flips the sign of each entry with an odd number of
    indices equal to 4, so it preserves all curvature symmetries and exactly
    swaps the self-dual and anti-self-dual spectra.
    """
    s = np.array([1.0, 1.0, 1.0, -1.0])
    return np.einsum("ijkl,i,j,k,l->ijkl", np.asarray(w, dtype=float), s, s, s, s)


def interaction_star(wm: np.ndarray, wz: np.ndarray) -> float:
    """The interaction pairing W * W = sum_ijkl Z_kijl (M_kijl + M_lijk)."""
    return float(np.einsum("kijl,kijl->", wz, wm) + np.einsum("kijl,lijk->", wz, wm))


def positivity_bound(wm: np.ndarray, wz: np.ndarray) -> dict:
    """Lower bound and obstruction flags for the aligned interaction.

    Sorted zero-sum eigenvalue triples lie in a 60-degree cone sector of the
    trace-free plane, so each block pairing is at least half the product of
    the block norms; hence
        aligned_value >= 3 (|M+| |Z+| + |M-| |Z-|)
    with |.| the norm of the eigenvalue triple.  The bound degenerates to
    zero in exactly two situations, reported as flags: a conformally flat
    factor (one tensor vanishes entirely) and the excluded case where one
    tensor is purely self-dual and the other purely anti-self-dual.

    The thresholds are relative, at 1e-14: a factor counts as flat, or a
    block as absent, below 1e-14 times the largest eigenvalue magnitude of
    the pair, and the value counts as positive above 1e-14 times the
    product of the two factors' largest magnitudes.  That comparison is
    made on each factor's spectra divided by its largest magnitude, where
    nothing can overflow or underflow.  So the flags do not change when the
    tensors are scaled, and roundoff in a block that should vanish does not
    make the excluded case positive.

    Both tensors are read in one orientation of R^4.  With W^M given in M's
    own orientation, the glued chart holds M through the inversion, which
    reverses its orientation: the pair (wm, wz) describes M-bar # Z, with
    M-bar the orientation-reversed M.  So the excluded case here, one
    tensor SD-only and the other ASD-only, is the paper's excluded case of
    two summands that are both self-dual or both anti-self-dual.
    """
    lm_sd, lm_asd = spectra(wm)
    lz_sd, lz_asd = spectra(wz)
    # an overflow leaves inf or nan in the value and the bound, not in the flags
    with np.errstate(over="ignore", invalid="ignore"):
        value = 6.0 * float(lm_sd @ lz_sd + lm_asd @ lz_asd)
        bound = 3.0 * (np.linalg.norm(lm_sd) * np.linalg.norm(lz_sd)
                       + np.linalg.norm(lm_asd) * np.linalg.norm(lz_asd))
    m_sd, m_asd = np.abs(lm_sd).max(), np.abs(lm_asd).max()
    z_sd, z_asd = np.abs(lz_sd).max(), np.abs(lz_asd).max()
    m_max, z_max = max(m_sd, m_asd), max(z_sd, z_asd)
    tiny = 1e-14 * max(m_max, z_max)
    m_flat = m_max <= tiny
    z_flat = z_max <= tiny
    m_sd_only = m_asd <= tiny < m_sd
    m_asd_only = m_sd <= tiny < m_asd
    z_sd_only = z_asd <= tiny < z_sd
    z_asd_only = z_sd <= tiny < z_asd
    excluded = (m_sd_only and z_asd_only) or (m_asd_only and z_sd_only)
    positive = min(m_max, z_max) > 0.0 and 6.0 * float(
        (lm_sd / m_max) @ (lz_sd / z_max) + (lm_asd / m_max) @ (lz_asd / z_max)) > 1e-14
    return {
        "aligned_value": value,
        "bound": float(bound),
        "conformally_flat_factor": bool(m_flat or z_flat),
        "excluded_case": bool(excluded),
        "positive": bool(positive),
    }


def align_and_interact(wm: np.ndarray, wz: np.ndarray) -> dict:
    """Realize the optimally aligned pair in a common frame and pair them.

    Both tensors are rewritten with their Derdzinski frames mapped to the
    standard frame, which matches descending eigenvalues of like duality
    type.  Returns the aligned tensors, the realized pairing, and the
    spectral prediction (they agree to roundoff).
    """
    lm_sd, lm_asd = spectra(wm)
    lz_sd, lz_asd = spectra(wz)
    am = algweyl_from_spectrum(lm_sd, lm_asd)
    az = algweyl_from_spectrum(lz_sd, lz_asd)
    value = interaction_star(am, az)
    return {
        "aligned_m": am,
        "aligned_z": az,
        "value": value,
        "predicted": positivity_bound(wm, wz)["aligned_value"],
    }
