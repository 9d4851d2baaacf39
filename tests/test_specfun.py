"""Special functions and operator constants, checked against scipy (an
independent implementation) and against their defining identities."""

import numpy as np
import pytest
import scipy.special as sps
from scipy.integrate import quad

from georank import specfun as sf
from georank.errors import DomainError


def test_gamma_known_values():
    assert sf.gamma_fn(1.0) == pytest.approx(1.0, rel=1e-14)
    assert sf.gamma_fn(1.5) == pytest.approx(np.sqrt(np.pi) / 2, rel=1e-13)
    assert sf.gamma_fn(4.0) == pytest.approx(6.0, rel=1e-13)


def test_gamma_against_scipy():
    x = np.linspace(0.5, 20.0, 391)
    rel = np.abs(sf.gamma_fn(x) - sps.gamma(x)) / sps.gamma(x)
    assert np.max(rel) <= 1e-12


def test_gamma_recurrence_property():
    rng = np.random.default_rng(1)
    x = rng.uniform(0.5, 19.0, 100)
    rel = np.abs(x * sf.gamma_fn(x) - sf.gamma_fn(x + 1.0)) / sf.gamma_fn(x + 1.0)
    assert np.max(rel) <= 1e-11


def test_gamma_domain_error():
    with pytest.raises(DomainError):
        sf.gamma_fn(0.0)
    with pytest.raises(DomainError):
        sf.gamma_fn(-2.5)


def test_gamma_d_values():
    assert sf.gamma_d(1) == pytest.approx(0.5, abs=1e-12)
    assert sf.gamma_d(2) == pytest.approx(1.0 / (2 * np.pi), abs=1e-12)
    assert sf.gamma_d(3) == pytest.approx(1.0 / (8 * np.pi), abs=1e-12)


def test_gamma_d_defining_identity():
    for d in range(1, 11):
        prod = sf.gamma_d(d) * (2.0 ** d * np.pi ** ((d - 1) / 2.0)
                                * sf.gamma_fn((d + 1) / 2.0))
        assert prod == pytest.approx(1.0, abs=1e-12)


def test_poisson_kernel_normalization():
    for d in range(1, 9):
        v = (2.0 * sf.gamma_d(d + 1) * sf.gamma_fn(d + 1.0)
             * np.pi ** ((d + 1) / 2.0) / sf.gamma_fn((d + 1) / 2.0))
        assert v == pytest.approx(1.0, abs=1e-12)


def test_c_ds_values():
    # direct evaluations of the defining formula (symbolic arithmetic):
    # d=2: (1/4)*2*Gamma(3/2) / (Gamma(3/2) pi)            = 1/(2 pi)
    # d=3: (1/4)*2*Gamma(2)  / (Gamma(3/2) pi^{3/2})       = 1/pi^2
    # d=1: (1/4)*2*Gamma(1)  / (Gamma(3/2) sqrt(pi))       = 1/pi
    assert sf.c_ds(2, 0.5) == pytest.approx(1.0 / (2 * np.pi), abs=1e-12)
    assert sf.c_ds(3, 0.5) == pytest.approx(1.0 / np.pi ** 2, abs=1e-12)
    assert sf.c_ds(1, 0.5) == pytest.approx(1.0 / np.pi, abs=1e-12)


def test_c_ds_domain():
    for bad in (0.0, 1.0, -0.3, 2.0):
        with pytest.raises(DomainError):
            sf.c_ds(2, bad)


def _radial_laplacian_num(f, r, d, h=1e-4):
    # (-Delta) f for radial f, via high-order central differences
    fp = (f(r + h) - f(r - h)) / (2 * h)
    fpp = (f(r + h) - 2 * f(r) + f(r - h)) / (h * h)
    return -(fpp + (d - 1) * fp / r)


def test_lambda_dl_radial_identity():
    # oracle: apply the radial Laplacian to 1/r numerically and read off the
    # constant in (-Delta)^l (1/r) = lambda / r^{2l+1}
    r0 = 1.7
    val = _radial_laplacian_num(lambda r: 1.0 / r, r0, 5)
    assert val * r0 ** 3 == pytest.approx(sf.lambda_dl(5, 1), rel=1e-6)
    assert sf.lambda_dl(5, 1) == 2.0
    # two applications in d=7: the first is exact by the power rule,
    # (-Delta)(1/r) = (d-3)/r^3 = 4/r^3, the second is numeric
    val2 = _radial_laplacian_num(lambda r: 4.0 / r ** 3, r0, 7)
    assert val2 * r0 ** 5 == pytest.approx(sf.lambda_dl(7, 2), rel=1e-6)
    assert sf.lambda_dl(7, 2) == 24.0


def test_lambda_dl_trivial_and_closure():
    for d in (2, 5, 9):
        assert sf.lambda_dl(d, 0) == 1.0
    for d in (4, 6, 8):
        want = (sf.gamma_fn(d - 1.0)
                / (2.0 ** ((d - 2) / 2.0) * sf.gamma_fn(d / 2.0))) ** 2
        assert sf.lambda_dl(d, (d - 2) // 2) == pytest.approx(want, rel=1e-10)


def test_erf_and_cdf_values():
    assert sf.erf(0.0) == 0.0
    assert sf.std_normal_cdf(0.0) == 0.5
    # oracle: high-precision quadrature of the normal density on [0, 1]
    half, err = quad(lambda t: np.exp(-t * t / 2) / np.sqrt(2 * np.pi),
                     0.0, 1.0, limit=200)
    assert err < 1e-12
    assert sf.std_normal_cdf(1.0) == pytest.approx(0.5 + half, abs=1e-12)
    assert sf.std_normal_cdf(1.0) == pytest.approx(0.841344746, abs=1e-9)


def test_erf_against_scipy():
    x = np.linspace(-40.0, 40.0, 1601)
    got = sf.erf(x)
    want = sps.erf(x)
    mask = np.abs(want) > 1e-300
    rel = np.abs(got[mask] - want[mask]) / np.abs(want[mask])
    assert np.max(rel) <= 1e-10


def test_erfc_far_tail_relative_accuracy():
    x = np.array([3.0, 5.0, 10.0, 15.0, 20.0, 25.0])
    rel = np.abs(sf.erfc(x) - sps.erfc(x)) / sps.erfc(x)
    assert np.max(rel) <= 1e-12


def test_normal_cdf_against_scipy():
    from scipy.stats import norm
    x = np.linspace(-37.0, 37.0, 999)
    got = sf.std_normal_cdf(x)
    want = norm.cdf(x)
    mask = want > 1e-300
    rel = np.abs(got[mask] - want[mask]) / want[mask]
    assert np.max(rel) <= 1e-10


def test_bessel_i0_values_and_scipy():
    assert sf.bessel_i0(0.0) == 1.0
    x = np.linspace(0.0, 40.0, 401)
    rel = np.abs(sf.bessel_i0(x) - sps.i0(x)) / sps.i0(x)
    assert np.max(rel) <= 1e-10


def test_bessel_i0e_large_arguments():
    x = np.array([10.0, 35.0, 100.0, 1e4, 9e4])
    rel = np.abs(sf.bessel_i0e(x) - sps.i0e(x)) / sps.i0e(x)
    assert np.max(rel) <= 1e-10


def test_bessel_i0_matches_series():
    x = np.linspace(0.0, 5.0, 51)
    rel = np.abs(sf.bessel_i0(x) - sf.bessel_i0_series(x, 20)) / sf.bessel_i0(x)
    assert np.max(rel) <= 1e-12


def test_bessel_i1_against_scipy():
    x = np.linspace(0.0, 40.0, 401)
    got = sf.bessel_i1(x)
    want = sps.i1(x)
    mask = want > 0
    rel = np.abs(got[mask] - want[mask]) / want[mask]
    assert np.max(rel) <= 1e-10
