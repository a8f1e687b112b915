"""Config-driven command-line runner exposing every analysis in the package.

Subcommands map one-to-one onto library operations: solve, verify, dynamics,
certify, transform, statics, casestudy, oracle.  Reports are deterministic
JSON (identical command + inputs + seed gives byte-identical output); wall
clock and argv go to a separate metadata file via --meta, never into the
report.  A command builds its report from the library's records as they are,
arrays and non-finite floats included: ``gamefile.dumps_canonical`` writes
arrays as lists and non-finite floats as null, so every report is strict JSON.
A certificate's matrix, and case 2's W, are written as a game file writes W:
the sparse object when fewer than a third of the entries are stored.
Exit codes: 0 success, 1 computation failure, 2 input error (an output path
that cannot be written and a size too large to allocate included).
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import sys
import time

import numpy as np

from . import casestudy as cs
from .certificates import (
    _symmetric_part,
    cert_near_individual,
    cert_near_potential,
    cert_near_symmetric,
    certify_any,
    common_value,
)
from .dynamics import (
    DEFAULT_HORIZON,
    DEFAULT_STEP,
    integrate_pseudo_gradient,
    integrate_sw_flow,
    trajectory_to_csv,
)
from .equilibrium import (
    DEFAULT_CLUSTER_TOL,
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    backward_induction,
    grid_oracle,
    multi_start_probe,
    solve_ne,
    solve_regularized,
    verify_ne,
)
from .equivalence import EquivalenceMap, transform_game, upper_triangular_normalizer
from .errors import InputError, NetgoodsError
from .functions import spec_from_dict
from .gamefile import (_matrix, _number_list, _read_json, _sparse_doc, _w_doc, dumps_canonical, load_game,
                       save_game)
from .statics import fd_check, utility_derivative


def _vector(text: str, n: int, name: str, lower=None, upper=None) -> np.ndarray:
    if text == "ones":
        return np.ones(n)
    if text == "zeros":
        return np.zeros(n)
    if text == "mid":
        if lower is None:
            raise InputError(f"--{name}=mid is not supported here")
        return 0.5 * (lower + upper)
    vals = np.asarray(_floats(text, name), dtype=float)
    if vals.size != n:
        raise InputError(f"--{name}: expected {n} entries, got {vals.size}")
    return vals


def _floats(text: str, name: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise InputError(f"--{name}: expected comma-separated reals, got {text!r}") from exc


def _seed(args) -> int:
    if args.seed is None:
        return 0
    if args.seed < 0:
        raise InputError(f"--seed must be a non-negative integer, got {args.seed}")
    return args.seed


def _cmd_solve(args) -> tuple[dict, int]:
    game = load_game(args.game)
    gamma = _vector(args.gamma, game.n, "gamma")
    x0 = None if args.x0 is None else _vector(args.x0, game.n, "x0", game.lower, game.upper)
    if args.method in ("fixed-point", "regularized"):
        opts = dict(gamma=gamma, step_eps=args.step_eps, tol=args.tol, max_iter=args.max_iter, x0=x0)
        report = {"method": args.method}
        if args.method == "fixed-point":
            res = solve_ne(game, **opts)
        else:
            report["beta_schedule"] = betas = _floats(args.beta_schedule, "beta-schedule")
            res = solve_regularized(game, betas, **opts)
        return {**report, **vars(res)}, 0 if res.converged else 1
    if args.method == "backward":
        x = backward_induction(game)
        ok, gap, worst = verify_ne(game, x, 1e-8)
        report = {
            "method": args.method,
            "x_star": x,
            "verified": ok,
            "final_gap": gap,
            "worst": worst,
        }
        return report, 0 if ok else 1
    # multistart
    reps = multi_start_probe(game, n_starts=args.n_starts, seed=_seed(args),
                             cluster_tol=args.cluster_tol, gamma=gamma,
                             step_eps=args.step_eps, tol=args.tol, max_iter=args.max_iter)
    report = {
        "method": args.method,
        "n_starts": args.n_starts,
        "seed": _seed(args),
        "cluster_tol": args.cluster_tol,
        "clusters": [vars(r) for r in reps],
    }
    return report, 0 if reps else 1


def _cmd_verify(args) -> tuple[dict, int]:
    game = load_game(args.game)
    x = _vector(args.x, game.n, "x")
    ok, gap, worst = verify_ne(game, x, args.eps)
    return {"is_ne": ok, "gap": gap, "worst": worst, "eps": args.eps}, 0


def _cmd_dynamics(args) -> tuple[dict, int]:
    game = load_game(args.game)
    x0 = _vector(args.x0, game.n, "x0", game.lower, game.upper)
    if args.field == "pseudo":
        alpha = _vector(args.alpha, game.n, "alpha")
        traj = integrate_pseudo_gradient(game, alpha, x0, step=args.step, horizon=args.horizon)
    else:
        traj = integrate_sw_flow(game, x0, step=args.step, horizon=args.horizon)
    if args.csv:
        trajectory_to_csv(traj, args.csv)
    report = {
        "field": args.field,
        "steps": int(traj.times.size - 1),
        "t_final": float(traj.times[-1]),
        "converged": bool(traj.converged),
        "final_state": traj.final_state,
        "final_sw": float(traj.sw[-1]),
        "final_br_gap": float(traj.br_gaps[-1]),
        "projection_steps": int(np.sum(traj.clipped)),
        "csv": args.csv,
    }
    return report, 0


def _load_w0(args, game) -> np.ndarray:
    if args.w0 == "identity":
        return np.eye(game.n)
    if args.w0 == "symmetrized":
        return _symmetric_part(game.w)
    doc = _read_json(args.w0, "--w0 file")
    n, where = game.n, f"--w0: {args.w0}"
    if isinstance(doc, list) and len(doc) == n and all(isinstance(row, list) for row in doc):  # n rows
        return np.stack([_number_list(row, n, f"{where}[{i}]") for i, row in enumerate(doc)])
    if isinstance(doc, list) and len(doc) != n * n:
        raise InputError(f"--w0: matrix in {args.w0} has {len(doc)} entries, need {n * n}")
    return _matrix(doc, n, where)  # a row-major list or a sparse object, like a game file's W


def _certificate_doc(rep) -> dict:
    """A certificate record's fields as a report writes them: its matrix as a game file's
    sparse W object when fewer than a third of its entries are stored, else as the array."""
    sparse = _sparse_doc(rep.matrix)
    return {**vars(rep), "matrix": rep.matrix if sparse is None else sparse}


def _cmd_certify(args) -> tuple[dict, int]:
    game = load_game(args.game)
    gamma = _vector(args.gamma, game.n, "gamma")
    f_common = None
    if args.f_common:
        f_common = spec_from_dict(_read_json(args.f_common, "--f-common file"), where=args.f_common)
    maps = []
    if args.maps:
        docs = _read_json(args.maps, "--maps file")
        if not isinstance(docs, list):
            raise InputError(f"{args.maps}: expected a JSON list of maps")
        maps = [EquivalenceMap.from_dict(d, where=f"{args.maps}[{i}]") for i, d in enumerate(docs)]
    if args.theorem == "any":
        rep = certify_any(game, gamma=gamma, f_common=f_common, maps=maps)
    elif args.theorem == "near-individual":
        rep = cert_near_individual(game, gamma)
    elif args.theorem == "near-potential":
        f_common = f_common if f_common is not None else common_value(game)
        if f_common is None:
            raise InputError("--f-common is required for heterogeneous values")
        rep = cert_near_potential(game, f_common, gamma)
    else:
        rep = cert_near_symmetric(game, _load_w0(args, game))
    return _certificate_doc(rep), 0


def _cmd_transform(args) -> tuple[dict, int]:
    game = load_game(args.game)
    if args.normalize_triangular:
        try:
            eps = "auto" if args.eps == "auto" else float(args.eps)
        except ValueError as exc:
            raise InputError(f"--eps: expected a real or 'auto', got {args.eps!r}") from exc
        emap = upper_triangular_normalizer(game, eps=eps)
    else:
        if args.d is None or args.b is None:
            raise InputError("provide --d and --b, or --normalize-triangular")
        emap = EquivalenceMap(
            d=_vector(args.d, game.n, "d"), b=_vector(args.b, game.n, "b")
        )
    g2 = transform_game(game, emap)
    save_game(g2, args.out_game)
    report = {
        "map": emap.to_dict(),
        "shifts": emap.shifts(game),
        "out_game": args.out_game,
    }
    return report, 0


def _cmd_statics(args) -> tuple[dict, int]:
    game = load_game(args.game)
    delta = _vector(args.delta, game.n, "delta")
    if args.x_star is not None:
        x_star = _vector(args.x_star, game.n, "x-star")
    else:
        res = solve_ne(game, tol=1e-12, max_iter=200_000)
        if not res.converged:
            raise InputError("equilibrium solve did not converge; pass --x-star explicitly")
        x_star = res.x_star
    result = utility_derivative(game, x_star, delta)
    report = {"x_star": x_star, "delta": delta, **vars(result)}
    if args.fd_t is not None:
        report["fd"] = {"t": args.fd_t, **vars(fd_check(game, x_star, delta, t=args.fd_t))}
    return report, 0


#: Case1Report's per-sample columns: the CSV writes them, the report leaves them out
_CASE1_COLUMNS = ("sample_seeds", "inf_norms", "sigma_maxes", "within_bound", "certified")


def _cmd_casestudy(args) -> tuple[dict, int]:
    if args.which == "case1":
        rep = cs.monte_carlo_case1(args.n, args.p0, args.a, args.b, args.c0,
                                   samples=args.samples, seed=_seed(args))
        if args.csv:
            with open(args.csv, "w") as fh:
                fh.write("sample,seed,inf_norm,sigma_max,within_bound,certified\n")
                # tolist() gives Python floats, whose repr is the plain number
                rows = zip(rep.sample_seeds, rep.inf_norms.tolist(), rep.sigma_maxes.tolist(),
                           rep.within_bound.tolist(), rep.certified.tolist())
                for s, (seed, inf_norm, sigma_max, within, certified) in enumerate(rows):
                    fh.write(f"{s},{seed},{inf_norm!r},{sigma_max!r},{int(within)},{int(certified)}\n")
        report = {"case": "case1", **vars(rep), "frac_inf_norm_within": rep.frac_inf_norm_within,
                  "frac_certificate": rep.frac_certificate, "csv": args.csv}
        for column in _CASE1_COLUMNS:  # sigma_maxes is in vars(rep) once the CSV has read it
            report.pop(column, None)
        return report, 0
    rep = cs.case2_pipeline(args.n, args.a, args.b, args.c0,
                            density=args.density, seed=_seed(args), x_upper=args.x_upper)
    report = {"case": "case2", **vars(rep), "W": _w_doc(rep.w), "certificate": _certificate_doc(rep.certificate)}
    del report["w"]
    code = 0 if (rep.mapped_ne_verified and rep.solver_vs_backward < 1e-6) else 1
    return report, code


def _cmd_oracle(args) -> tuple[dict, int]:
    game = load_game(args.game)
    points = grid_oracle(game, m=args.m, eps=args.eps)
    return {
        "m": args.m,
        "eps": args.eps,
        "count": len(points),
        "equilibria": points,
    }, 0


@functools.cache  # parsing never changes the parser, so every main() call shares one
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netgoods",
        description="Networked public-goods games: equilibria, certificates, dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write the JSON report here (default: stdout)")
        p.add_argument("--meta", help="write run metadata (timestamp, argv) here")

    p = sub.add_parser("solve", help="compute an NE")
    p.add_argument("--game", required=True)
    p.add_argument("--method", default="fixed-point",
                   choices=["fixed-point", "regularized", "backward", "multistart"])
    p.add_argument("--gamma", default="ones")
    p.add_argument("--x0", default=None)
    p.add_argument("--step-eps", type=float, default=None)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
    p.add_argument("--beta-schedule", default="1e-1,1e-2,1e-3,1e-4,1e-5,1e-6")
    p.add_argument("--n-starts", type=int, default=20)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--cluster-tol", type=float, default=DEFAULT_CLUSTER_TOL)
    common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check an epsilon-NE")
    p.add_argument("--game", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--eps", type=float, default=1e-8)
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("dynamics", help="integrate a flow and export the trajectory")
    p.add_argument("--game", required=True)
    p.add_argument("--field", default="pseudo", choices=["pseudo", "sw"])
    p.add_argument("--alpha", default="ones")
    p.add_argument("--x0", default="mid")
    p.add_argument("--step", type=float, default=DEFAULT_STEP)
    p.add_argument("--horizon", type=float, default=DEFAULT_HORIZON)
    p.add_argument("--csv", help="trajectory CSV path")
    common(p)
    p.set_defaults(func=_cmd_dynamics)

    p = sub.add_parser("certify", help="run uniqueness certificates")
    p.add_argument("--game", required=True)
    p.add_argument("--theorem", default="any",
                   choices=["any", "near-individual", "near-potential", "near-symmetric"])
    p.add_argument("--gamma", default="ones")
    p.add_argument("--f-common", help="JSON file with the common value spec")
    p.add_argument("--w0", default="identity",
                   help="identity | symmetrized | path to a JSON n*n matrix (as a game file's W, "
                        "or a list of n rows)")
    p.add_argument("--maps", help="JSON file with a list of {d, b} maps to try")
    common(p)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("transform", help="apply an equivalence map to a game")
    p.add_argument("--game", required=True)
    p.add_argument("--d", default=None)
    p.add_argument("--b", default=None)
    p.add_argument("--normalize-triangular", action="store_true")
    p.add_argument("--eps", default="auto", help="scaling base for --normalize-triangular")
    p.add_argument("--out-game", required=True)
    common(p)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("statics", help="comparative statics of money redistribution")
    p.add_argument("--game", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--x-star", default=None)
    p.add_argument("--fd-t", type=float, default=None,
                   help="also run the finite-difference check at this magnitude")
    common(p)
    p.set_defaults(func=_cmd_statics)

    p = sub.add_parser("casestudy", help="random-network pipelines")
    p.add_argument("which", choices=["case1", "case2"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=float, default=3.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--c0", type=float, default=1.0)
    p.add_argument("--p0", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--density", type=float, default=1.0)
    p.add_argument("--x-upper", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--csv", help="per-sample CSV path (case1)")
    common(p)
    p.set_defaults(func=_cmd_casestudy)

    p = sub.add_parser("oracle", help="brute-force grid enumeration of epsilon-NEs")
    p.add_argument("--game", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--eps", type=float, default=1e-8)
    common(p)
    p.set_defaults(func=_cmd_oracle)
    return parser


def _check_output_paths(args) -> None:
    """Refuse an output path in a missing directory, or one that is a directory, before any work.

    The OSError is the one opening the path would raise.
    """
    for flag in ("out", "meta", "csv", "out_game"):
        path = getattr(args, flag, None)
        if not path:  # not given: stdout, or no file
            continue
        parent = os.path.dirname(path) or "."
        if os.path.isdir(path):
            code = errno.EISDIR
        elif not os.path.isdir(parent):
            code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
        else:
            continue
        raise OSError(code, os.strerror(code), path)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.time()
    try:
        _check_output_paths(args)
        report, code = args.func(args)
        text = dumps_canonical(report)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        if args.meta:
            meta = {
                "argv": list(sys.argv if argv is None else argv),
                "started_unix": started,
                "elapsed_seconds": time.time() - started,
            }
            with open(args.meta, "w") as fh:
                fh.write(dumps_canonical(meta))
    except (InputError, OSError, MemoryError) as exc:
        # an OSError here is an output path that cannot be written, a MemoryError a size too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NetgoodsError as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
