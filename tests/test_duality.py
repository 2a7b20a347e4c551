import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylglue import duality as du
from weylglue import tensor_core as tc

from random_tensors import random_weyl


def _hodge_star():
    """The Hodge star in the lexicographic 2-form basis, built independently
    of the package: it exchanges a pair with its complement, with the sign
    of the permutation (i, j, k, l) of (1, 2, 3, 4)."""
    star = np.zeros((6, 6))
    for a, (i, j) in enumerate(tc.LEX_PAIRS):
        rest = [k for k in range(4) if k not in (i, j)]
        perm = [i, j] + rest
        inversions = sum(perm[p] > perm[q] for p in range(4) for q in range(p + 1, 4))
        star[a, tc.LEX_PAIRS.index(tuple(rest))] = (-1.0) ** inversions
    return star


def test_hodge_star_squares_to_identity():
    star = _hodge_star()
    assert np.abs(star @ star - np.eye(6)).max() == 0.0


def test_sd_asd_bases_are_eigenvectors():
    star = _hodge_star()
    for v in du.SD_BASIS:
        assert np.abs(star @ v - v).max() < 1e-14
    for v in du.ASD_BASIS:
        assert np.abs(star @ v + v).max() < 1e-14
    assert np.array_equal(du.SD_UNIT, du.SD_BASIS / np.sqrt(2.0))
    assert np.array_equal(du.ASD_UNIT, du.ASD_BASIS / np.sqrt(2.0))


def test_hodge_split_rejects_coupled_operator():
    op = np.zeros((6, 6))
    op[0, 3] = op[3, 0] = 1.0
    with pytest.raises(du.BlockStructureError):
        du.hodge_split(op)


def test_spectra_recovers_inputs():
    sd = np.array([2.0, -0.5, -1.5])
    asd = np.array([1.0, 0.5, -1.5])
    w = tc.algweyl_from_spectrum(sd, asd)
    got_sd, got_asd = du.spectra(w)
    assert np.abs(np.sort(got_sd) - np.sort(sd)).max() < 1e-12
    assert np.abs(np.sort(got_asd) - np.sort(asd)).max() < 1e-12


def test_derdzinski_frame_reconstruction():
    rng = np.random.default_rng(21)
    for _ in range(5):
        w = random_weyl(rng)
        frame, lam_sd, lam_asd = du.derdzinski_frame(w)
        assert np.abs(frame @ frame.T - np.eye(4)).max() < 1e-10
        assert np.linalg.det(frame) == pytest.approx(1.0, abs=1e-10)
        rebuilt = tc.algweyl_from_spectrum(lam_sd, lam_asd, frame=frame)
        assert np.abs(rebuilt - w).max() < 1e-9


def test_reverse_orientation_swaps_spectra():
    rng = np.random.default_rng(22)
    w = random_weyl(rng)
    sd, asd = du.spectra(w)
    flipped = du.reverse_orientation(w)
    sd2, asd2 = du.spectra(flipped)
    assert np.abs(sd2 - asd).max() < 1e-12
    assert np.abs(asd2 - sd).max() < 1e-12
    # the reflection only flips signs, so twice is the identity, bit for bit
    assert (du.reverse_orientation(flipped) == w).all()


def test_aligned_interaction_matches_realization():
    rng = np.random.default_rng(23)
    wm = random_weyl(rng)
    wz = random_weyl(rng)
    out = du.align_and_interact(wm, wz)
    assert out["value"] == pytest.approx(out["predicted"], rel=1e-10)


def test_interaction_star_scale():
    # the pairing is (3/2) times the full tensor contraction after alignment
    spec = (1.0, 0.0, -1.0)
    w = tc.algweyl_from_spectrum(spec, spec)
    value = du.interaction_star(w, w)
    inner = float(np.einsum("ijkl,ijkl->", w, w))
    assert value == pytest.approx(1.5 * inner, rel=1e-12)
    assert value == pytest.approx(24.0, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=8, max_size=8))
def test_positivity_bound_holds(vals):
    sd_m = np.array(vals[0:3]) - np.mean(vals[0:3])
    asd_m = np.array([vals[3], vals[4], -vals[3] - vals[4]])
    sd_z = np.array(vals[5:8]) - np.mean(vals[5:8])
    asd_z = np.array([vals[1], vals[6], -vals[1] - vals[6]])
    wm = tc.algweyl_from_spectrum(sd_m, asd_m)
    wz = tc.algweyl_from_spectrum(sd_z, asd_z)
    out = du.positivity_bound(wm, wz)
    assert out["aligned_value"] >= out["bound"] - 1e-10


def test_excluded_case_flags():
    zero = (0.0, 0.0, 0.0)
    spec = (1.0, 0.0, -1.0)
    sd_only = tc.algweyl_from_spectrum(spec, zero)
    asd_only = tc.algweyl_from_spectrum(zero, spec)
    out = du.positivity_bound(sd_only, asd_only)
    assert out["excluded_case"]
    assert out["aligned_value"] == 0.0
    assert not out["positive"]


def test_conformally_flat_flag():
    zero = (0.0, 0.0, 0.0)
    spec = (1.0, 0.0, -1.0)
    out = du.positivity_bound(tc.algweyl_from_spectrum(zero, zero),
                              tc.algweyl_from_spectrum(spec, spec))
    assert out["conformally_flat_factor"]


@pytest.mark.parametrize("spectra_pair", [
    ((1.0, 0.0, -1.0), (2.0, -1.0, -1.0), (0.5, 0.5, -1.0), (1.0, 0.0, -1.0)),
    ((1.0, 0.0, -1.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (2.0, -1.0, -1.0)),
    ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (1.0, 0.0, -1.0), (1.0, 0.0, -1.0)),
    ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
    ((1.0, 0.0, -1.0), (1.0, 0.0, -1.0), (1.0, 0.0, -1.0), (1.0, 0.0, -1.0)),
])
def test_positivity_flags_are_scale_free(spectra_pair):
    # a valid pair, the excluded case, a flat factor, two flat factors and
    # sd = asd = (1, 0, -1) for both factors; at scales of 1e-170 and below
    # or 1e160 and above, the aligned value or 1e-14 times the product of
    # the largest magnitudes under- or overflows
    sd_m, asd_m, sd_z, asd_z = spectra_pair
    wm = tc.algweyl_from_spectrum(sd_m, asd_m)
    wz = tc.algweyl_from_spectrum(sd_z, asd_z)
    keys = ("conformally_flat_factor", "excluded_case", "positive")
    want = {k: du.positivity_bound(wm, wz)[k] for k in keys}
    for s in (1e-200, 1e-170, 1e-15, 1e15, 1e160, 1e200):
        assert {k: du.positivity_bound(s * wm, s * wz)[k] for k in keys} == want, s
