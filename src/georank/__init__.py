"""georank: geometric ranks and quantiles of probability measures on R^d,
and reconstruction of the density from the rank field.

The rank of a measure P is the vector field R(x) = E[(x-Z)/|x-Z|], the
multivariate analogue of 2F-1.  Applying the operator
gamma_d (-Delta)^{(d-1)/2} div to R recovers P: locally (integer Laplacians)
when d is odd, through a half-Laplacian (singular integral, Hankel
transform, or harmonic extension) when d is even.
"""

from .errors import (BudgetError, ConfigError, DecayError,
                     DegenerateSupportError, DimensionMismatchError,
                     DomainError, GeorankError, NonConvergenceError,
                     ParityError, ParseError, SingularityError,
                     StencilOverflowError, ToleranceError,
                     UnsupportedVariantError)
from .specfun import (bessel_i0e, bessel_i1e, c_ds, erf, gamma_d, gamma_fn,
                      lambda_dl, std_normal_pdf)
from .measures import (Empirical, GenericDensity, Measure, RadialClosedForm,
                       RadialProfile, density, empirical_from_csv, invert_g,
                       radial_profile, sample)
from .rankfield import (RankEvaluator, VectorGridField, fd_divergence,
                        fd_laplacian, sample_grid)
from .quantile import (QuantileQuery, objective, rank_of_quantile_roundtrip,
                       solve_quantile)
from .reconstruct import (PolynomialBump, ReconstructionConfig,
                          ReconstructionReport, divergence_fourier_profile,
                          half_laplacian_singular, poisson_smooth,
                          reconstruct_density, reconstruct_even_singular,
                          reconstruct_extension, reconstruct_isotropic_hankel,
                          reconstruct_odd_local,
                          verify_identity_on_test_function)
from .depth import (DepthContour, contour, probability_content_surface,
                    radial_content_oracle, rank_norm_cdf, theta_radial_exact)
from .selftest import run_selftest

__version__ = "0.1.0"
