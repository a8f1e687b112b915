"""The four benchmark workloads: inputs drawn from a seed, tasks as CLI calls, checks.

Every workload owns a catalogue of ``CATALOGUE`` inputs whose reference outputs
were recorded once (``reference.json``, written by ``record_reference.py``).
A workload seed draws a small pool from the catalogue and fixes its order; a
*cycle* runs every pool input once, and timed runs repeat whole cycles so each
run has the same mix of inputs.  A task drives ``netgoods.cli.main(argv)``
in-process and returns the report bytes of each CLI call it made.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

import numpy as np

#: inputs per workload with a recorded reference
CATALOGUE = 32


class TaskFailure(Exception):
    """A task raised, exited non-zero or failed its output check."""


@dataclass(frozen=True)
class Task:
    """One unit of user work; ``key`` names its input for the reference and repeats."""

    key: str
    number: int | None = None  # catalogue number: seeds the game or the Monte Carlo
    game: str | None = None  # game file name inside the work directory
    field: str | None = None  # dynamics field for flow tasks


def run_cli(argv: list[str], out_path: str) -> bytes:
    """Run one CLI subcommand in-process; its JSON report bytes, or TaskFailure."""
    import netgoods.cli

    code = netgoods.cli.main([*argv, "--out", out_path])
    if code != 0:
        raise TaskFailure(f"`netgoods {argv[0]}` exited with code {code}")
    with open(out_path, "rb") as fh:
        return fh.read()


def _csv(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _max_abs_diff(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return math.inf
    return float(np.max(np.abs(a - b))) if a.size else 0.0


def _draw(name: str, seed: int, population, k: int) -> list[int]:
    return random.Random(f"{name}:{seed}").sample(list(population), k)


def weakly_coupled_game(rng: np.random.Generator, n: int, coupling: float = 0.25):
    """Weak-coupling game mixing all four families (the test suite's small-game recipe)."""
    from netgoods.functions import LinearCost, LogValue, QuadraticClippedValue, QuadraticCost
    from netgoods.game import Game

    r = coupling / n
    w = rng.uniform(-r, r, size=(n, n))
    np.fill_diagonal(w, 1.0)
    upper = rng.uniform(0.5, 1.0, size=n)
    values, costs = [], []
    for _ in range(n):
        if rng.random() < 0.5:
            values.append(QuadraticClippedValue(a=float(rng.uniform(4.0, 6.0)), b=1.0))
        else:
            values.append(LogValue(a=float(rng.uniform(1.0, 3.0)), s=2.0))
        if rng.random() < 0.5:
            costs.append(QuadraticCost(c0=float(rng.uniform(0.5, 2.0))))
        else:
            costs.append(LinearCost(c1=float(rng.uniform(0.3, 1.0))))
    return Game(w=w, lower=np.zeros(n), upper=upper, values=tuple(values), costs=tuple(costs))


def fixed_work_game(rng: np.random.Generator, n: int, coupling: float = 0.25):
    """Weak-coupling game in which each player's best response is of a fixed kind.

    Players cycle through the four value/cost pairings in a fixed order.  The
    quadratic-value players have costs low enough that their best response is
    always the top of the box; each log-value player's cost is set from its
    value and box so that, with no externality, the best response is the middle
    of the box.  Externalities stay below half the box
    (|d_i| <= coupling < upper/2), so wherever the others play, half the best
    responses are found by bisection and half at the box edge: every game does
    the same amount of work per step.
    """
    from netgoods.functions import LinearCost, LogValue, QuadraticClippedValue, QuadraticCost
    from netgoods.game import Game

    r = coupling / n
    w = rng.uniform(-r, r, size=(n, n))
    np.fill_diagonal(w, 1.0)
    upper = rng.uniform(0.6, 1.0, size=n)
    values, costs = [], []
    for i in range(n):
        linear = i % 4 < 2
        if i % 2 == 0:
            # f'(k) >= 4 - 2(1 + coupling) > 1 >= c'(x) on the whole box
            values.append(QuadraticClippedValue(a=float(rng.uniform(4.0, 6.0)), b=1.0))
            costs.append(LinearCost(c1=float(rng.uniform(0.3, 1.0))) if linear
                         else QuadraticCost(c0=float(rng.uniform(0.5, 1.0))))
            continue
        f = LogValue(a=float(rng.uniform(1.0, 3.0)), s=2.0)
        mid = float(upper[i]) / 2.0
        slope = f.a / (f.s + mid)  # c'(mid) = f'(mid): own derivative vanishes mid-box
        values.append(f)
        costs.append(LinearCost(c1=slope) if linear else QuadraticCost(c0=slope / mid))
    return Game(w=w, lower=np.zeros(n), upper=upper, values=tuple(values), costs=tuple(costs))


def fig1a_game():
    """Four players on two sides, unit weight across sides: three pure NEs."""
    from netgoods.functions import QuadraticClippedValue, QuadraticCost
    from netgoods.game import Game

    w = np.array([[1.0, 0.0, 1.0, 1.0],
                  [0.0, 1.0, 1.0, 1.0],
                  [1.0, 1.0, 1.0, 0.0],
                  [1.0, 1.0, 0.0, 1.0]])
    return Game(w=w, lower=np.zeros(4), upper=np.ones(4),
                values=tuple(QuadraticClippedValue(a=3.0, b=1.0) for _ in range(4)),
                costs=tuple(QuadraticCost(c0=1.0) for _ in range(4)))


class Workload:
    """Base: subclasses define the pool, the set-up, one task and its check."""

    name = ""

    def cycle(self, seed: int) -> list[Task]:
        raise NotImplementedError

    def catalogue(self) -> list[Task]:
        raise NotImplementedError

    def setup(self, tasks: list[Task], workdir: str) -> None:
        """Write the game files the tasks read (default: none)."""

    def run(self, task: Task, workdir: str) -> dict[str, bytes]:
        raise NotImplementedError

    def reference(self, task: Task, reports: dict[str, bytes], workdir: str) -> dict:
        raise NotImplementedError

    def check(self, task: Task, reports: dict[str, bytes], ref: dict) -> None:
        raise NotImplementedError


class ErAnalysis(Workload):
    """solve -> verify -> certify on one Erdos-Renyi game (n=100, p0=1)."""

    name = "er-analysis"
    POOL = 8  # task time differs between games; a wide pool keeps the draw from moving the median
    N = 100

    def _task(self, number):
        return Task(key=str(number), number=number, game=f"er{number}.json")

    def cycle(self, seed):
        return [self._task(k) for k in _draw(self.name, seed, range(CATALOGUE), self.POOL)]

    def catalogue(self):
        return [self._task(k) for k in range(CATALOGUE)]

    def setup(self, tasks, workdir):
        from netgoods.casestudy import random_er_game
        from netgoods.gamefile import save_game

        for t in tasks:
            game = random_er_game(self.N, 1.0, 3.0, 1.0, 1.0, seed=t.number)
            save_game(game, os.path.join(workdir, t.game))

    def run(self, task, workdir):
        game = os.path.join(workdir, task.game)
        out = os.path.join(workdir, "report.json")
        solve = run_cli(["solve", "--game", game], out)
        x_star = json.loads(solve)["x_star"]
        verify = run_cli(["verify", "--game", game, "--x", _csv(x_star), "--eps", "1e-8"], out)
        certify = run_cli(["certify", "--game", game, "--theorem", "any"], out)
        return {"solve": solve, "verify": verify, "certify": certify}

    def reference(self, task, reports, workdir):
        cert = json.loads(reports["certify"])
        return {"x_star": json.loads(reports["solve"])["x_star"],
                "theorem": cert["theorem"], "verdict": cert["verdict"]}

    def check(self, task, reports, ref):
        solve = json.loads(reports["solve"])
        if solve["status"] != "converged" or not solve["final_gap"] <= 1e-8:
            raise TaskFailure(f"solve: status {solve['status']}, final_gap {solve['final_gap']}")
        if not json.loads(reports["verify"])["is_ne"]:
            raise TaskFailure("verify: x_star is not an 1e-8-NE")
        diff = _max_abs_diff(solve["x_star"], ref["x_star"])
        if not diff <= 1e-8:
            raise TaskFailure(f"solve: x_star is {diff:g} from the reference")
        cert = json.loads(reports["certify"])
        got, want = (cert["theorem"], cert["verdict"]), (ref["theorem"], ref["verdict"])
        if got != want:
            raise TaskFailure(f"certify: {got} differs from the reference {want}")


class FlowRk4(Workload):
    """200 RK4 steps on weakly coupled n=20 games; odd catalogue numbers are re-parameterized twice."""

    name = "flow-rk4"
    N = 20
    # games per pool, each run under both fields in turn.  Every game does the
    # same work per step (``fixed_work_game``), but nested tasks take about 3x
    # longer, so task times have two modes; at 3:1 the median stays inside the
    # plain mode instead of jumping between the two.
    PLAIN, NESTED = 3, 1
    FIELDS = ("pseudo", "sw")

    @staticmethod
    def nested(key: int) -> bool:
        return key % 2 == 1

    def _task(self, number, field):
        return Task(key=f"{number}:{field}", number=number, game=f"flow{number}.json", field=field)

    def cycle(self, seed):
        plain = _draw(self.name + ":plain", seed, range(0, CATALOGUE, 2), self.PLAIN)
        nested = _draw(self.name + ":nested", seed, range(1, CATALOGUE, 2), self.NESTED)
        return [self._task(g, f) for g in plain + nested for f in self.FIELDS]

    def catalogue(self):
        return [self._task(k, f) for k in range(CATALOGUE) for f in self.FIELDS]

    def setup(self, tasks, workdir):
        from netgoods.gamefile import save_game

        for t in {t.number: t for t in tasks}.values():
            rng = np.random.default_rng([2, t.number])
            game = fixed_work_game(rng, self.N)
            full = os.path.join(workdir, t.game)
            if not self.nested(t.number):
                save_game(game, full)
                continue
            src = os.path.join(workdir, f"flow{t.number}.base.json")
            save_game(game, src)
            for step in range(2):
                dst = full if step == 1 else os.path.join(workdir, f"flow{t.number}.once.json")
                d, b = rng.uniform(0.5, 2.0, self.N), rng.uniform(-0.5, 0.5, self.N)
                run_cli(["transform", "--game", src, f"--d={_csv(d)}", f"--b={_csv(b)}",
                         "--out-game", dst], os.path.join(workdir, "transform.json"))
                src = dst

    def run(self, task, workdir):
        report = run_cli(["dynamics", "--game", os.path.join(workdir, task.game),
                          "--field", task.field, "--step", "1e-2", "--horizon", "2",
                          "--csv", os.path.join(workdir, "trajectory.csv")],
                         os.path.join(workdir, "report.json"))
        return {"dynamics": report}

    def reference(self, task, reports, workdir):
        rep = json.loads(reports["dynamics"])
        return {"final_state": rep["final_state"], "final_br_gap": rep["final_br_gap"],
                "steps": rep["steps"]}

    def check(self, task, reports, ref):
        rep = json.loads(reports["dynamics"])
        if rep["steps"] != ref["steps"]:
            raise TaskFailure(f"dynamics: {rep['steps']} steps, reference {ref['steps']}")
        diff = max(_max_abs_diff(rep["final_state"], ref["final_state"]),
                   abs(rep["final_br_gap"] - ref["final_br_gap"]))
        if not diff <= 1e-9:
            raise TaskFailure(f"dynamics: final state/br_gap {diff:g} from the reference")


class Case1Mc(Workload):
    """The case-1 Monte Carlo: 1000 sampled n=50 ER games per task."""

    name = "case1-mc"
    POOL = 4
    MOMENTS = ("emp_delta_mean", "emp_delta_var", "se_delta_mean", "se_delta_var",
               "closed_delta_mean", "closed_delta_var", "bound")
    FRACS = ("frac_inf_norm_within", "frac_certificate")

    def cycle(self, seed):
        return [Task(key=str(k), number=k) for k in _draw(self.name, seed, range(CATALOGUE), self.POOL)]

    def catalogue(self):
        return [Task(key=str(k), number=k) for k in range(CATALOGUE)]

    def run(self, task, workdir):
        report = run_cli(["casestudy", "case1", "--n", "50", "--p0", "1", "--samples", "1000",
                          "--seed", str(task.number)], os.path.join(workdir, "report.json"))
        return {"casestudy": report}

    def reference(self, task, reports, workdir):
        rep = json.loads(reports["casestudy"])
        return {k: rep[k] for k in self.MOMENTS + self.FRACS}

    def check(self, task, reports, ref):
        rep = json.loads(reports["casestudy"])
        for k in self.FRACS:
            if rep[k] != ref[k]:
                raise TaskFailure(f"case1: {k} = {rep[k]}, reference {ref[k]}")
        for k in self.MOMENTS:
            if not math.isclose(rep[k], ref[k], rel_tol=1e-9, abs_tol=1e-12):
                raise TaskFailure(f"case1: {k} = {rep[k]!r}, reference {ref[k]!r}")
        if not abs(rep["emp_delta_mean"] - rep["closed_delta_mean"]) <= 4 * rep["se_delta_mean"]:
            raise TaskFailure("case1: empirical delta mean is beyond 4 standard errors")


class SmallExhaustive(Workload):
    """Grid oracle (m=29) plus a 1000-start multistart on fig1a or a weakly coupled n=4 game."""

    name = "small-exhaustive"
    POOL = 2  # seeded games per pool, after fig1a

    def _task(self, number):
        key = "fig1a" if number is None else str(number)
        return Task(key=key, number=number, game=f"small{key}.json")

    def cycle(self, seed):
        return [self._task(k) for k in [None, *_draw(self.name, seed, range(CATALOGUE), self.POOL)]]

    def catalogue(self):
        return [self._task(k) for k in [None, *range(CATALOGUE)]]

    def setup(self, tasks, workdir):
        from netgoods.gamefile import save_game

        for t in tasks:
            if t.number is None:
                game = fig1a_game()
            else:
                game = weakly_coupled_game(np.random.default_rng([4, t.number]), 4)
            save_game(game, os.path.join(workdir, t.game))

    def run(self, task, workdir):
        game = os.path.join(workdir, task.game)
        out = os.path.join(workdir, "report.json")
        oracle = run_cli(["oracle", "--game", game, "--m", "29"], out)
        multistart = run_cli(["solve", "--game", game, "--method", "multistart",
                              "--n-starts", "1000", "--seed", "0"], out)
        return {"oracle": oracle, "multistart": multistart}

    def reference(self, task, reports, workdir):
        cert = json.loads(run_cli(["certify", "--game", os.path.join(workdir, task.game),
                                   "--theorem", "any"], os.path.join(workdir, "certify.json")))
        return {"oracle_points": json.loads(reports["oracle"])["count"],
                "clusters": len(json.loads(reports["multistart"])["clusters"]),
                "certified": cert["verdict"] == "pass"}

    def check(self, task, reports, ref):
        points = json.loads(reports["oracle"])["count"]
        clusters = len(json.loads(reports["multistart"])["clusters"])
        if task.number is None and points != 3:
            raise TaskFailure(f"oracle: fig1a has {points} grid NEs, expected 3")
        if (points, clusters) != (ref["oracle_points"], ref["clusters"]):
            raise TaskFailure(f"oracle/multistart: {points} points, {clusters} clusters; "
                              f"reference {ref['oracle_points']}, {ref['clusters']}")
        if ref["certified"] and (points > 1 or clusters != 1):
            raise TaskFailure(f"certified game: {points} oracle points, {clusters} clusters")


WORKLOADS = {w.name: w for w in (ErAnalysis(), FlowRk4(), Case1Mc(), SmallExhaustive())}
