import numpy as np
import pytest

from weylglue import curvature as cv
from weylglue import duality as du
from weylglue import tensor_core as tc
from weylglue.fields import CurvatureQuadraticField, PolynomialField


def random_weyl(rng):
    sd = rng.standard_normal(3)
    asd = rng.standard_normal(3)
    return tc.algweyl_from_spectrum(sd - sd.mean(), asd - asd.mean())


def test_flat_chart_is_flat():
    chart = cv.flat_chart()
    x = np.array([0.3, -0.1, 0.2, 0.5])
    assert np.abs(cv.riemann(chart, x)).max() == 0.0
    assert cv.scalar(chart, x) == 0.0


def test_cnc_model_realizes_weyl_at_origin():
    rng = np.random.default_rng(2)
    w = random_weyl(rng)
    chart = cv.cnc_model(w)
    got = cv.weyl(chart, np.zeros(4))
    assert np.abs(got - w).max() < 1e-10


def test_cnc_model_is_ricci_flat_at_origin():
    rng = np.random.default_rng(4)
    w = random_weyl(rng)
    chart = cv.cnc_model(w)
    assert np.abs(cv.ricci(chart, np.zeros(4))).max() < 1e-10


def test_weyl_density_scale_invariant():
    # |W|^2_g sqrt(det g) is unchanged under a constant conformal rescaling
    rng = np.random.default_rng(6)
    field = PolynomialField.random(rng, scale=0.05)
    chart = cv.polynomial_chart(field)
    scaled = cv.ScaledChart(chart, 1.7)
    x = 0.2 * rng.standard_normal((5, 4))
    d1 = cv.weyl_density(chart, x)
    d2 = cv.weyl_density(scaled, x)
    assert np.abs(d1 - d2).max() < 1e-10 * max(np.abs(d1).max(), 1.0)


def test_fd_curvature_matches_exact():
    rng = np.random.default_rng(8)
    field = PolynomialField.random(rng, scale=0.05)
    chart = cv.polynomial_chart(field)
    x = 0.25 * rng.standard_normal(4)
    exact = cv.riemann(chart, x)
    fd = cv.fd_curvature(chart, x)["riemann"]
    assert np.abs(exact - fd).max() < 1e-5 * max(np.abs(exact).max(), 1.0)


def test_christoffel_matches_finite_differences():
    # three polynomial charts; a batch equals its points taken one at a time
    rng = np.random.default_rng(9)
    for _ in range(3):
        chart = cv.polynomial_chart(PolynomialField.random(rng, scale=0.05))
        x = 0.25 * rng.standard_normal((5, 4))
        got = cv.christoffel(chart, x)
        assert got.shape == (5, 4, 4, 4)
        for point, gamma in zip(x, got):
            assert np.array_equal(cv.christoffel(chart, point), gamma)
            assert np.abs(gamma - cv.fd_curvature(chart, point)["christoffel"]).max() < 1e-8


@pytest.mark.parametrize("quantity", ["inv", "gamma", "riem13", "riem04",
                                      "ric", "scal", "weyl"])
def test_linearization_matches_fd(quantity):
    rng = np.random.default_rng(11)
    field = PolynomialField.random(rng, scale=0.05)
    chart = cv.polynomial_chart(field)
    h = PolynomialField.random(rng, scale=1.0)
    x = 0.2 * rng.standard_normal(4)
    lin = cv.linearize_curvature(chart, h, x)
    fd = cv.fd_linearize(chart, h, x, quantity)
    key = quantity + "_dot"
    scale = max(np.abs(fd).max(), 1.0)
    assert np.abs(np.asarray(lin[key]) - fd).max() < 1e-6 * scale


@pytest.mark.parametrize("seed", [85, 86])
def test_linearization_matches_fd_on_model_charts(seed):
    # the construction's own backgrounds, in directions of power 0 and -4
    rng = np.random.default_rng(seed)
    h = CurvatureQuadraticField([(1.0, random_weyl(rng), 0.0),
                                 (0.5, random_weyl(rng), -4.0)])
    for chart, x in _model_charts(seed):
        for p in x:
            lin = cv.linearize_curvature(chart, h, p)
            for quantity in ("inv", "gamma", "riem13", "riem04", "ric", "scal", "weyl"):
                fd = cv.fd_linearize(chart, h, p, quantity)
                scale = max(np.abs(fd).max(), 1.0)
                assert np.abs(np.asarray(lin[quantity + "_dot"]) - fd).max() < 1e-6 * scale


def test_linearized_weyl_flat_tt_agrees_with_general():
    rng = np.random.default_rng(13)
    from weylglue.gluing import model_H
    h = model_H(random_weyl(rng))
    x = np.array([0.4, -0.2, 0.1, 0.3])
    general = cv.linearize_curvature(cv.flat_chart(), h, x)["weyl_dot"]
    special = cv.linearized_weyl_flat_tt(h, x)
    assert np.abs(general - special).max() < 1e-11 * max(np.abs(general).max(), 1.0)


def test_linearized_weyl_flat_tt_rejects_non_tt():
    rng = np.random.default_rng(14)
    h = PolynomialField.random(rng, scale=1.0)
    with pytest.raises(ValueError):
        cv.linearized_weyl_flat_tt(h, np.array([0.3, 0.1, 0.0, 0.2]))


def test_chart_domain_errors():
    rng = np.random.default_rng(15)
    chart = cv.inverted_model(random_weyl(rng), r_min=0.1)
    with pytest.raises(cv.ChartDomainError):
        chart.check_domain(np.zeros(4))
    # a rescaled chart keeps its base's domain
    scaled = cv.ScaledChart(chart, 2.0)
    x = np.outer([0.05, 0.0999, 0.1, 0.5], [0.5, 0.5, -0.5, 0.5])
    assert np.array_equal(scaled.contains(x), chart.contains(x))
    assert scaled.contains(x).tolist() == [False, False, True, True]
    with pytest.raises(cv.ChartDomainError):
        cv.riemann(scaled, x[0])


def _duality_block_norms(chart, y):
    """Norms of the SD and ASD blocks of the chart's Weyl tensor at y, read
    in the positively oriented g-orthonormal frame g^-1/2."""
    vals, vecs = np.linalg.eigh(chart.metric(y))
    e = vecs @ np.diag(vals ** -0.5) @ vecs.T
    w = np.einsum("abcd,ai,bj,ck,dl->ijkl", cv.weyl(chart, y), e, e, e, e)
    return [np.linalg.norm(b) for b in du.hodge_split(tc.op_from_tensor(w), 1e-9)]


def test_inversion_reverses_orientation():
    # an SD-only W^M stays SD-only in its normal-form chart near 0, but the
    # inverted model, the form in which the glued chart holds M, is ASD-only
    # far out: `balance m z` glues M-bar # Z, M with its orientation reversed
    w = tc.algweyl_from_spectrum((2.0, -0.5, -1.5), (0.0, 0.0, 0.0))
    y = np.array([3.0, 1.0, -2.0, 5.0])
    sd, asd = _duality_block_norms(cv.cnc_model(w), 0.01 * y)
    assert asd < 1e-3 * sd
    sd, asd = _duality_block_norms(cv.inverted_model(w), y)
    assert sd < 1e-3 * asd


def test_scaled_chart_metric():
    chart = cv.flat_chart()
    scaled = cv.ScaledChart(chart, 9.0)
    g = scaled.metric(np.zeros(4))
    assert np.abs(g - 9.0 * np.eye(4)).max() < 1e-14


# ---------------------------------------------------------------------------
# oracles for the batched curvature contractions

def _old_dchristoffel(g, dg, d2g):
    ginv = np.linalg.inv(g)
    dginv = -np.einsum("nka,nlab,nbs->nlks", ginv, dg, ginv)
    bracket = (np.einsum("nijs->nsij", dg) + np.einsum("njis->nsij", dg)
               - np.einsum("nsij->nsij", dg))
    dbracket = (np.einsum("nlijs->nlsij", d2g) + np.einsum("nljis->nlsij", d2g)
                - np.einsum("nlsij->nlsij", d2g))
    return 0.5 * (np.einsum("nlks,nsij->nlkij", dginv, bracket)
                  + np.einsum("nks,nlsij->nlkij", ginv, dbracket))


def _old_riemann(g, dg, d2g):
    gamma = cv.christoffel_from_data(g, dg)
    dgamma = _old_dchristoffel(g, dg, d2g)
    lin = np.einsum("nisjk,nsl->nijkl", dgamma, g) - np.einsum("njsik,nsl->nijkl", dgamma, g)
    quad = (np.einsum("nsjk,ntis,ntl->nijkl", gamma, gamma, g, optimize=True)
            - np.einsum("nsik,ntjs,ntl->nijkl", gamma, gamma, g, optimize=True))
    return lin + quad


def _density(w, g):
    ginv = np.linalg.inv(g)
    w_up = np.einsum("ia,jb,kc,ld,abcd->ijkl", ginv, ginv, ginv, ginv, w)
    return float(np.einsum("ijkl,ijkl->", w_up, w)) * np.sqrt(np.linalg.det(g))


def _random_chart_points(seed, n=6):
    rng = np.random.default_rng(seed)
    chart = cv.polynomial_chart(PolynomialField.random(rng, scale=0.05))
    return chart, 0.3 * rng.standard_normal((n, 4))


@pytest.mark.parametrize("seed", [71, 72, 73])
def test_batched_contractions_match_einsum_oracle(seed):
    chart, x = _random_chart_points(seed)
    _, _, g, dg, d2g = cv._metric_data(chart, x)
    new, old = cv.riemann_from_data(g, dg, d2g), _old_riemann(g, dg, d2g)
    assert np.abs(new - old).max() <= 1e-14 * np.abs(old).max()


def test_kulkarni_nomizu_conventions():
    # the curvature module's product carries no 1/2, tensor_core's does
    rng = np.random.default_rng(87)
    a, b = rng.standard_normal((2, 5, 4, 4))
    a, b = a + a.swapaxes(1, 2), b + b.swapaxes(1, 2)
    got = cv._subtract_kulkarni_nomizu(np.zeros((5,) + (4,) * 4), a, b)
    want = np.array([-2.0 * tc.kulkarni_nomizu(p, q) for p, q in zip(a, b)])
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("seed", [74, 75, 76])
def test_weyl_density_matches_pointwise_weyl(seed):
    chart, x = _random_chart_points(seed)
    dens = cv.weyl_density(chart, x)
    pointwise = np.array([_density(cv.weyl(chart, p), chart.metric(p)) for p in x])
    assert np.abs(dens - pointwise).max() <= 1e-12 * np.abs(pointwise).max()


@pytest.mark.parametrize("seed", [77, 78])
def test_weyl_density_matches_finite_differences(seed):
    chart, x = _random_chart_points(seed)
    dens = cv.weyl_density(chart, x)
    fd = []
    for p in x:
        # the metric is cubic, so a wide step loses nothing to truncation;
        # the default 1e-5 step leaves about 1e-5 of roundoff in d2g
        data = cv.fd_curvature(chart, p, step=1e-3)
        g = chart.metric(p)
        fd.append(_density(tc.weyl_from_riemann(data["riemann"], g), g))
    fd = np.array(fd)
    assert np.abs(dens - fd).max() <= 1e-6 * np.abs(fd).max()


def _model_charts(seed):
    from weylglue.gluing import model_F, model_H
    rng = np.random.default_rng(seed)
    w = random_weyl(rng)
    # radii 0.1..1: model_F's chart starts at r_min = 0.1
    dirs = rng.standard_normal((6, 4))
    x = rng.uniform(0.1, 1.0, (6, 1)) * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    return [(cv.FieldChart(model_H(w), scale=5e-3), x),
            (cv.FieldChart(model_F(w), scale=5e-2, r_min=0.1), x)]


@pytest.mark.parametrize("seed", [79, 80])
def test_weyl_density_matches_pointwise_weyl_on_model_charts(seed):
    # p = 0 (the jet's constant-radial shortcut) and p = -4, as integrated by
    # the variation suite and the glued chart
    for chart, x in _model_charts(seed):
        dens = cv.weyl_density(chart, x)
        pointwise = np.array([_density(cv.weyl(chart, p), chart.metric(p)) for p in x])
        assert np.abs(dens - pointwise).max() <= 1e-12 * np.abs(pointwise).max()


@pytest.mark.parametrize("seed", [83, 84])
def test_weyl_density_is_even(seed):
    # a field of power 0 or -4 is even in x, so dg is odd and d2g even: the
    # half-sphere rule of the energy loops rests on this
    for chart, x in _model_charts(seed):
        dens = cv.weyl_density(chart, x)
        assert np.abs(cv.weyl_density(chart, -x) - dens).max() <= 1e-14 * np.abs(dens).max()


@pytest.mark.parametrize("seed", [81, 82])
def test_batched_weyl_matches_pointwise_decomposition(seed):
    # tensor_core.weyl_from_riemann spells out the trace decomposition on its
    # own, so it checks the batched Schouten / Kulkarni-Nomizu helper
    charts = _model_charts(seed) + [_random_chart_points(seed)]
    for chart, x in charts:
        got = cv.weyl(chart, x)
        want = np.array([tc.weyl_from_riemann(cv.riemann(chart, p), chart.metric(p))
                         for p in x])
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
