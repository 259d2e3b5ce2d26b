"""Noise-stability bounds for Boolean functions on the discrete cube.

Three layers: exact finite computation on {-1,+1}^n (`cube`, `sweeps`),
closed-form and quadrature bounds built on the small-set-expansion
envelope (`bounds`), and the grid/Lipschitz certificate that
dictator functions maximize symmetric 1-stability for correlations in
[0.46, 0.914] (`certify`).  The `noisestab` command drives all of it.
"""

__version__ = "0.1.0"

from .bounds import (
    BracketError,
    PhiSpec,
    ThetaProfile,
    big_theta,
    borell_bound,
    eps_star,
    gamma_asymptotic,
    gamma_one,
    gamma_phi,
    gamma_q,
    gamma_vec,
    gaussian_theta,
    h,
    norm_cdf,
    norm_ppf,
    phi_custom,
    phi_one_asymmetric,
    phi_one_symmetric,
    phi_q_asymmetric,
    phi_q_symmetric,
    q_log,
    theta_profile,
)
from .certify import (
    Certificate,
    certificate_to_json,
    evaluate_point,
    lipschitz_margin,
    omega,
    omega_max,
    phi_ratio,
    phi_ratio_prime,
    t_rho,
    theta_rho,
    upsilon_2d,
    upsilon_bar,
    varphi,
    verify_interval,
)
from .cube import (
    BooleanFunction,
    CubeField,
    DimensionError,
    StepSpectrum,
    check_rearrangement_bound,
    concentration,
    decreasing_rearrangement,
    dictator_distance,
    e_gamma,
    fourier,
    lex_rearrange,
    majorizes,
    max_noise_stability,
    noise_apply,
    phi_stability,
    restrict_and_mix,
    stab_q,
    subcube_mass,
)
