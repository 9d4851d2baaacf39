"""Special functions and the normalizing constants used by the
rank-reconstruction operator.

Gamma, erf/erfc and the modified Bessel functions I0, I1 (plain and
exponentially scaled) are thin wrappers over ``scipy.special``; the wrappers
add the domain checks of this package (``DomainError``) and return a Python
float for a scalar argument.  The operator constants are computed at call
time from their defining formulas (no hard-coded derived constants), so the
identity tests in the suite exercise the arithmetic.  All functions accept
scalars or numpy arrays and are pure.
"""

import numpy as np
from scipy import special as _sps

from .errors import DomainError

_SQRT_2PI = np.sqrt(2.0 * np.pi)


def _as_dim(d) -> int:
    """Coerce d to a validated int."""
    n = int(d)
    if n < 1:
        raise DomainError(f"dimension must be >= 1, got {n}")
    return n


def _like(x, out):
    """`out` as an array for array-like `x`, as a Python float for a scalar."""
    return out if np.ndim(x) else float(out)


def gamma_fn(x):
    """Euler Gamma on the positive half line."""
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr <= 0.0):
        raise DomainError("gamma_fn requires x > 0")
    return _like(x, _sps.gamma(x_arr))


def gamma_d(d):
    """Normalizing constant of the reconstruction operator:
    1 / (2^d * pi^((d-1)/2) * Gamma((d+1)/2))."""
    n = _as_dim(d)
    return float(1.0 / (2.0 ** n * np.pi ** ((n - 1) / 2.0)
                        * gamma_fn((n + 1) / 2.0)))


def c_ds(d, s: float):
    """Normalization of the pointwise fractional-Laplacian singular integral:
    s(1-s) 4^s Gamma(d/2+s) / (|Gamma(2-s)| pi^{d/2}), for s in (0,1)."""
    n = _as_dim(d)
    if not 0.0 < s < 1.0:
        raise DomainError(f"c_ds requires s in (0,1), got {s}")
    return float(s * (1.0 - s) * 4.0 ** s * gamma_fn(n / 2.0 + s)
                 / (abs(gamma_fn(2.0 - s)) * np.pi ** (n / 2.0)))


def lambda_dl(d, l: int):
    """Constant in the radial identity (-Delta)^l (1/|x|) = lambda / |x|^{2l+1}:
    the product prod_{j=1..l} (2j-1)(d-2j-1); l = 0 gives 1 (empty product).

    The identity holds for 1 <= l <= (d-2)/2; the product itself is defined
    for any l >= 0.
    """
    n = _as_dim(d)
    if l < 0:
        raise DomainError("lambda_dl requires l >= 0")
    out = 1.0
    for j in range(1, l + 1):
        out *= (2 * j - 1) * (n - 2 * j - 1)
    return float(out)


# ---------------------------------------------------------------------------
# erf / normal cdf
# ---------------------------------------------------------------------------

def erf(x):
    """Error function."""
    return _like(x, _sps.erf(np.asarray(x, dtype=float)))


def erfc(x):
    """Complementary error function, accurate in the far right tail."""
    return _like(x, _sps.erfc(np.asarray(x, dtype=float)))


def std_normal_cdf(x):
    """Standard normal cdf, Phi(x) = erfc(-x/sqrt(2)) / 2."""
    x_arr = np.asarray(x, dtype=float)
    return _like(x, 0.5 * erfc(-x_arr / np.sqrt(2.0)))


def std_normal_pdf(x):
    """Standard normal density."""
    x_arr = np.asarray(x, dtype=float)
    return _like(x, np.exp(-0.5 * x_arr * x_arr) / _SQRT_2PI)


# ---------------------------------------------------------------------------
# Modified Bessel functions I0, I1
# ---------------------------------------------------------------------------

def _bessel_i(fn, x):
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0):
        raise DomainError("modified Bessel functions here require x >= 0")
    return _like(x, fn(x_arr))


def bessel_i0(x):
    """Modified Bessel function I0; overflows to inf near x ~ 713."""
    return _bessel_i(_sps.i0, x)


def bessel_i0e(x):
    """Exponentially scaled I0: e^{-x} I0(x), safe for any x >= 0."""
    return _bessel_i(_sps.i0e, x)


def bessel_i1(x):
    """Modified Bessel function I1."""
    return _bessel_i(_sps.i1, x)


def bessel_i1e(x):
    """Exponentially scaled I1: e^{-x} I1(x)."""
    return _bessel_i(_sps.i1e, x)


def bessel_i0_series(x, terms: int = 20):
    """Truncated ascending series of I0 (reference for consistency checks)."""
    x_arr = np.asarray(x, dtype=float)
    q = 0.25 * x_arr * x_arr
    term = np.ones_like(x_arr)
    s = term.copy()
    for k in range(1, terms):
        term = term * q / (k * k)
        s = s + term
    return _like(x, s)
