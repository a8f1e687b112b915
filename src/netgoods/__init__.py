"""Networked public-goods games with heterogeneous concave values and convex costs.

Equilibrium computation via projected pseudo-gradient iteration, three
spectral uniqueness certificates, welfare/ascent dynamics with rate
diagnostics, game-equivalence transforms, comparative statics of money
redistribution, and random-network case-study pipelines.
"""

from .casestudy import (
    Case1Report,
    Case2Report,
    case2_pipeline,
    delta_row_stats,
    monte_carlo_case1,
    random_er_game,
)
from .certificates import (
    CertificateReport,
    cert_near_individual,
    cert_near_potential,
    cert_near_symmetric,
    certify_any,
    spectral_bounds,
)
from .dynamics import (
    RateFit,
    Trajectory,
    fit_exponential,
    fit_inverse_linear,
    fit_rate,
    integrate_pseudo_gradient,
    integrate_sw_flow,
    trajectory_to_csv,
)
from .equilibrium import (
    SolveResult,
    backward_induction,
    grid_oracle,
    multi_start_probe,
    solve_ne,
    solve_regularized,
    verify_ne,
)
from .equivalence import (
    EquivalenceMap,
    map_profile,
    transform_game,
    upper_triangular_normalizer,
)
from .errors import (
    DomainError,
    InputError,
    IntegrationError,
    NetgoodsError,
    NumericsError,
    SingularMatrixError,
)
from .functions import (
    AffineReparam,
    LinearCost,
    LogValue,
    QuadraticClippedValue,
    QuadraticCost,
    ScalarFunction,
)
from .game import (
    GainBounds,
    Game,
    best_response,
    br_gap,
    evaluate,
    gain_bounds,
    gains,
    pseudo_gradient,
    sw_gradient,
    utility_profile,
)
from .gamefile import game_from_dict, game_to_dict, load_game, save_game
from .statics import (
    FdReport,
    StaticsResult,
    equilibrium_derivative,
    fd_check,
    perturb_money,
    utility_derivative,
)

__version__ = "0.1.0"

__all__ = [
    "AffineReparam",
    "Case1Report",
    "Case2Report",
    "CertificateReport",
    "DomainError",
    "EquivalenceMap",
    "FdReport",
    "GainBounds",
    "Game",
    "InputError",
    "IntegrationError",
    "LinearCost",
    "LogValue",
    "NetgoodsError",
    "NumericsError",
    "QuadraticClippedValue",
    "QuadraticCost",
    "RateFit",
    "ScalarFunction",
    "SingularMatrixError",
    "SolveResult",
    "StaticsResult",
    "Trajectory",
    "backward_induction",
    "best_response",
    "br_gap",
    "case2_pipeline",
    "cert_near_individual",
    "cert_near_potential",
    "cert_near_symmetric",
    "certify_any",
    "delta_row_stats",
    "equilibrium_derivative",
    "evaluate",
    "fd_check",
    "fit_exponential",
    "fit_inverse_linear",
    "fit_rate",
    "gain_bounds",
    "gains",
    "game_from_dict",
    "game_to_dict",
    "grid_oracle",
    "integrate_pseudo_gradient",
    "integrate_sw_flow",
    "load_game",
    "map_profile",
    "monte_carlo_case1",
    "multi_start_probe",
    "perturb_money",
    "pseudo_gradient",
    "random_er_game",
    "save_game",
    "solve_ne",
    "solve_regularized",
    "spectral_bounds",
    "sw_gradient",
    "trajectory_to_csv",
    "transform_game",
    "upper_triangular_normalizer",
    "utility_derivative",
    "utility_profile",
    "verify_ne",
]
