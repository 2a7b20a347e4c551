import numpy as np
import pytest
import warnings

from weylglue import gluing as gl
from weylglue import tensor_core as tc


def random_weyl(rng):
    sd = rng.standard_normal(3)
    asd = rng.standard_normal(3)
    return tc.algweyl_from_spectrum(sd - sd.mean(), asd - asd.mean())


def test_params_validation():
    with pytest.raises(ValueError):
        gl.GluingParams(a=0.5, lam=1.0, gamma=0.1)
    with pytest.raises(ValueError):
        gl.GluingParams(a=0.001, lam=-1.0, gamma=0.1)


def test_params_regime_warnings():
    with pytest.warns(gl.RegimeWarning):
        gl.GluingParams(a=0.01, lam=1.0, gamma=0.1)
    with pytest.warns(gl.RegimeWarning):
        gl.GluingParams(a=1e-5, lam=5.0, gamma=0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gl.GluingParams(a=1e-5, lam=1.0, gamma=0.05)


def test_params_b_scale():
    p = gl.GluingParams(a=1e-4, lam=2.0, gamma=0.05)
    assert p.b == pytest.approx(2e-4)


def test_invert_pullback_exact():
    rng = np.random.default_rng(41)
    wm = random_weyl(rng)
    y = np.array([1.7, -0.3, 0.4, 0.2])
    out = gl.invert_pullback(wm, y)
    assert np.abs(out["pullback"] - out["model"]).max() < 1e-12
    assert np.abs(out["residual"]).max() < 1e-12


def test_invert_pullback_cubic_decay():
    rng = np.random.default_rng(42)
    wm = random_weyl(rng)
    radii = np.array([2.0, 4.0, 8.0, 16.0])
    res = []
    for r in radii:
        y = r * np.array([0.5, 0.5, 0.5, 0.5])
        out = gl.invert_pullback(wm, y, cubic_scale=1.0,
                                 rng=np.random.default_rng(7))
        res.append(np.abs(out["residual"]).max())
    slope = np.polyfit(np.log(radii), np.log(res), 1)[0]
    assert slope <= -2.7


def test_invert_pullback_default_generator():
    rng = np.random.default_rng(48)
    wm = random_weyl(rng)
    y = np.array([[1.7, -0.3, 0.4, 0.2], [0.1, 2.5, -1.0, 0.3]])
    default = gl.invert_pullback(wm, y, cubic_scale=1.0)
    seeded = gl.invert_pullback(wm, y, cubic_scale=1.0, rng=np.random.default_rng(0))
    assert np.abs(default["pullback"] - default["model"]).max() > 0.0
    for key in ("pullback", "model", "residual"):
        assert np.array_equal(default[key], seeded[key])


def _glued(rng, a=1e-5, lam=1.5, gamma=0.05):
    wm = random_weyl(rng)
    wz = random_weyl(rng)
    params = gl.GluingParams(a=a, lam=lam, gamma=gamma)
    return gl.GluedChart(wm, wz, params), params


def test_glued_chart_zones():
    chart, params = _glued(np.random.default_rng(43))
    assert chart.zone(np.array([0.01, 0.0, 0.0, 0.0])) == 0
    assert chart.zone(np.array([0.5, 0.0, 0.0, 0.0])) == 1
    assert chart.zone(np.array([1.5, 0.0, 0.0, 0.0])) == 2


def test_glued_chart_c1_interfaces():
    chart, params = _glued(np.random.default_rng(44))
    for r in (params.gamma, 1.0):
        direction = np.array([0.5, 0.5, 0.5, 0.5])
        x_in = (r - 1e-10) * direction
        x_out = (r + 1e-10) * direction
        g_jump = np.abs(chart.metric(x_in) - chart.metric(x_out)).max()
        dg_jump = np.abs(chart.metric_jet(x_in)[1] - chart.metric_jet(x_out)[1]).max()
        dev = np.abs(chart.metric(x_in) - np.eye(4)).max()
        assert g_jump < 1e-7 * max(dev, 1e-30)
        assert dg_jump < 1e-5 * max(dev / r, 1e-30)


def test_glued_chart_json():
    chart, params = _glued(np.random.default_rng(45))
    payload = chart.to_json()
    assert payload["params"]["gamma"] == params.gamma
