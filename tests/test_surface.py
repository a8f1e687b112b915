"""The option surface, pinned as literals.

Every public callable's parameters and defaults, ``SolveResult``'s fields and
every CLI subcommand's flags and defaults are compared with the tables below,
so a change that adds, drops or re-defaults an option shows as a diff of this
file.  The package also reads no environment variable: a report depends only
on the command and its inputs.
"""

import dataclasses
import inspect
from pathlib import Path

import netgoods
from netgoods.cli import build_parser
from netgoods.equilibrium import SolveResult

#: name in ``netgoods.__all__`` -> its parameters, "name=default" when optional;
#: None for an exception class that keeps Exception's constructor
PUBLIC = {
    "AffineReparam": ("inner", "scale", "shift"),
    "Case1Report": ("n", "p0", "samples", "seed", "sample_seeds", "emp_delta_mean", "emp_delta_var",
                    "se_delta_mean", "se_delta_var", "closed_delta_mean", "closed_delta_var", "bound",
                    "inf_norms", "within_bound", "certified"),
    "Case2Report": ("n", "density", "seed", "epsilon", "w", "scaling", "certificate", "x_solver", "x_backward",
                    "x_transformed_back", "solver_vs_backward", "solver_vs_transformed", "mapped_ne_verified"),
    "CertificateReport": ("theorem", "gamma", "matrix", "sigma_max", "threshold", "margin", "verdict", "notes=()",
                          "details=<factory>", "transform=None", "slack=0.0", "attempts=()"),
    "DomainError": None,
    "EquivalenceMap": ("d", "b"),
    "FdReport": ("du_dt", "dx_dt", "du_rel_err", "dx_rel_err", "warm_start_jump"),
    "GainBounds": ("k_lo", "k_hi"),
    "Game": ("w", "lower", "upper", "values", "costs"),
    "InputError": None,
    "IntegrationError": ("message", "last_good=None"),
    "LinearCost": ("c1",),
    "LogValue": ("a", "s"),
    "NetgoodsError": None,
    "NumericsError": None,
    "QuadraticClippedValue": ("a", "b"),
    "QuadraticCost": ("c0",),
    "RateFit": ("model", "rate", "r_squared"),
    "ScalarFunction": (),
    "SingularMatrixError": None,
    "SolveResult": ("x_star", "status", "iterations", "final_gap", "residual"),
    "StaticsResult": ("du_dt", "dx_dt", "condition_number", "boundary_margin", "warnings=()"),
    "Trajectory": ("times", "states", "sw", "br_gaps", "clipped", "energy", "converged"),
    "backward_induction": ("game",),
    "best_response": ("game", "i", "x"),
    "br_gap": ("game", "x"),
    "case2_pipeline": ("n", "a", "b", "c0", "density", "seed", "x_upper=None"),
    "cert_near_individual": ("game", "gamma=None"),
    "cert_near_potential": ("game", "f_common", "gamma=None"),
    "cert_near_symmetric": ("game", "w0"),
    "certify_any": ("game", "gamma=None", "f_common=None", "maps=None"),
    "delta_row_stats": ("w",),
    "equilibrium_derivative": ("game", "x_star", "delta"),
    "evaluate": ("spec", "point"),
    "fd_check": ("game", "x_star", "delta", "t"),
    "fit_exponential": ("times", "gaps"),
    "fit_inverse_linear": ("times", "gaps"),
    "fit_rate": ("times", "gaps"),
    "gain_bounds": ("game",),
    "gains": ("game", "x"),
    "game_from_dict": ("doc", "where='game'"),
    "game_to_dict": ("game",),
    "grid_oracle": ("game", "m", "eps"),
    "integrate_pseudo_gradient": ("game", "alpha", "x0", "step=0.01", "horizon=50.0", "x_star=None"),
    "integrate_sw_flow": ("game", "x0", "step=0.01", "horizon=50.0"),
    "load_game": ("path",),
    "map_profile": ("emap", "x", "direction='forward'"),
    "monte_carlo_case1": ("n", "p0", "a", "b", "c0", "samples", "seed"),
    "multi_start_probe": ("game", "n_starts", "seed", "cluster_tol=0.0001", "gamma=None", "step_eps=None",
                          "tol=1e-10", "max_iter=50000"),
    "perturb_money": ("game", "delta", "t"),
    "pseudo_gradient": ("game", "x"),
    "random_er_game": ("n", "p0", "a", "b", "c0", "seed"),
    "save_game": ("game", "path"),
    "solve_ne": ("game", "gamma=None", "step_eps=None", "tol=1e-10", "max_iter=50000", "x0=None"),
    "solve_regularized": ("game", "beta_schedule", "gamma=None", "step_eps=None", "tol=1e-10", "max_iter=50000",
                          "x0=None"),
    "spectral_bounds": ("m",),
    "sw_gradient": ("game", "x"),
    "trajectory_to_csv": ("traj", "path"),
    "transform_game": ("game", "emap"),
    "upper_triangular_normalizer": ("game", "eps='auto'"),
    "utility_derivative": ("game", "x_star", "delta"),
    "utility_profile": ("game", "x"),
    "verify_ne": ("game", "x", "eps"),
}

#: subcommand -> its arguments, "flag=default" when optional and the bare flag when required
CLI = {
    "solve": ("--game", "--method='fixed-point'", "--gamma='ones'", "--x0=None", "--step-eps=None", "--tol=1e-10",
              "--max-iter=50000", "--beta-schedule='1e-1,1e-2,1e-3,1e-4,1e-5,1e-6'", "--n-starts=20",
              "--seed=None", "--cluster-tol=0.0001", "--out=None", "--meta=None"),
    "verify": ("--game", "--x", "--eps=1e-08", "--out=None", "--meta=None"),
    "dynamics": ("--game", "--field='pseudo'", "--alpha='ones'", "--x0='mid'", "--step=0.01", "--horizon=50.0",
                 "--csv=None", "--out=None", "--meta=None"),
    "certify": ("--game", "--theorem='any'", "--gamma='ones'", "--f-common=None", "--w0='identity'", "--maps=None",
                "--out=None", "--meta=None"),
    "transform": ("--game", "--d=None", "--b=None", "--normalize-triangular=False", "--eps='auto'", "--out-game",
                  "--out=None", "--meta=None"),
    "statics": ("--game", "--delta", "--x-star=None", "--fd-t=None", "--out=None", "--meta=None"),
    "casestudy": ("which", "--n", "--a=3.0", "--b=1.0", "--c0=1.0", "--p0=1.0", "--samples=1000", "--density=1.0",
                  "--x-upper=None", "--seed=None", "--csv=None", "--out=None", "--meta=None"),
    "oracle": ("--game", "--m", "--eps=1e-08", "--out=None", "--meta=None"),
}


def _parameters(obj) -> tuple[str, ...] | None:
    try:
        signature = inspect.signature(obj)
    except ValueError:  # a class without a Python-level constructor of its own
        return None
    return tuple({p.VAR_POSITIONAL: "*", p.VAR_KEYWORD: "**"}.get(p.kind, "") + p.name
                 + ("" if p.default is p.empty else f"={p.default!r}") for p in signature.parameters.values())


def test_public_parameters_and_defaults():
    assert {name: _parameters(getattr(netgoods, name)) for name in netgoods.__all__} == PUBLIC


def test_solve_result_fields():
    assert [f.name for f in dataclasses.fields(SolveResult)] == [
        "x_star", "status", "iterations", "final_gap", "residual"]


def test_cli_flags_and_defaults():
    commands = build_parser()._subparsers._group_actions[0].choices
    got = {command: tuple((a.option_strings[0] if a.option_strings else a.dest)
                          + ("" if a.required else f"={a.default!r}")
                          for a in parser._actions if a.dest != "help")
           for command, parser in commands.items()}
    assert got == CLI


def test_the_package_reads_no_environment_variable():
    sources = sorted(Path(netgoods.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        text = path.read_text()
        assert "environ" not in text and "getenv" not in text, path.name
