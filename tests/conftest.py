import json

import numpy as np
import pytest
from hypothesis import strategies as st

from netgoods.functions import (
    AffineReparam,
    LinearCost,
    LogValue,
    QuadraticClippedValue,
    QuadraticCost,
)
from netgoods.game import Game


def strict_loads(text: str):
    """Parse JSON as RFC 8259 has it: NaN, Infinity and -Infinity raise."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def make_n1_game():
    """Single player, f(k)=3k-k^2 clipped, c(x)=x^2/2 on [0, 2]; NE at x=1."""
    return Game(
        w=np.eye(1),
        lower=np.array([0.0]),
        upper=np.array([2.0]),
        values=(QuadraticClippedValue(a=3.0, b=1.0),),
        costs=(QuadraticCost(c0=1.0),),
    )


def make_fig1a_game():
    """Four players on two sides; unit weight across sides, zero within."""
    w = np.array(
        [
            [1.0, 0.0, 1.0, 1.0],
            [0.0, 1.0, 1.0, 1.0],
            [1.0, 1.0, 1.0, 0.0],
            [1.0, 1.0, 0.0, 1.0],
        ]
    )
    return Game(
        w=w,
        lower=np.zeros(4),
        upper=np.ones(4),
        values=tuple(QuadraticClippedValue(a=3.0, b=1.0) for _ in range(4)),
        costs=tuple(QuadraticCost(c0=1.0) for _ in range(4)),
    )


def make_two_player_triangular():
    """W=[[1,1],[0,1]], homogeneous a=3,b=1,c0=1 on [0,1.5]; NE (1/3, 1)."""
    return Game(
        w=np.array([[1.0, 1.0], [0.0, 1.0]]),
        lower=np.zeros(2),
        upper=np.full(2, 1.5),
        values=tuple(QuadraticClippedValue(a=3.0, b=1.0) for _ in range(2)),
        costs=tuple(QuadraticCost(c0=1.0) for _ in range(2)),
    )


def make_two_player_symmetric():
    """Symmetric w=0.5 coupling, homogeneous a=3,b=1,c0=1; interior NE at 0.75."""
    return Game(
        w=np.array([[1.0, 0.5], [0.5, 1.0]]),
        lower=np.zeros(2),
        upper=np.full(2, 1.2),
        values=tuple(QuadraticClippedValue(a=3.0, b=1.0) for _ in range(2)),
        costs=tuple(QuadraticCost(c0=1.0) for _ in range(2)),
    )


@pytest.fixture
def n1_game():
    return make_n1_game()


@pytest.fixture
def fig1a_game():
    return make_fig1a_game()


@pytest.fixture
def two_player_triangular():
    return make_two_player_triangular()


@pytest.fixture
def two_player_symmetric():
    return make_two_player_symmetric()


def max_iter_result(game, **kwargs):
    """A stand-in for ``solve_ne`` whose solve ran out of iterations."""
    from netgoods.equilibrium import SolveResult

    return SolveResult(np.array(game.lower), "max_iter", 1, 0.0, 1.0)


def patch_run_field(monkeypatch, module, wrap):
    """Make every run that ``module`` starts step on wrap(field), field the one ``_run_field`` builds it.

    ``_run_field`` builds each run's field once, before its first step, so
    this is where a test records or replaces the field of a step loop.
    """
    build = module._run_field
    monkeypatch.setattr(module, "_run_field", lambda game, *args, **kwargs: wrap(build(game, *args, **kwargs)))


@pytest.fixture
def solver_iterates(monkeypatch):
    """The list the projected solver's iterates land in: its field runs once per iteration, at the iterate.

    Each entry is a copy of the point the run's field (``equilibrium._run_field``)
    is called at, so a solve's list holds x0 and every later iterate but the
    last, which is its ``x_star``.
    """
    from netgoods import equilibrium

    iterates = []

    def recording(field):
        def record(y):
            iterates.append(y.copy())
            return field(y)
        return record

    patch_run_field(monkeypatch, equilibrium, recording)
    return iterates


def random_small_interaction_game(rng, n=None, coupling=0.25):
    """Random game with weak coupling; most draws pass the near-individual certificate.

    Values are quadratics whose peak lies beyond any reachable gain, or logs;
    costs quadratic or linear.
    """
    if n is None:
        n = int(rng.integers(2, 9))
    r = coupling / n
    w = rng.uniform(-r, r, size=(n, n))
    np.fill_diagonal(w, 1.0)
    lower = np.zeros(n)
    upper = rng.uniform(0.5, 1.0, size=n)
    values = []
    costs = []
    for i in range(n):
        if rng.random() < 0.5:
            # peak a/(2b) beyond any reachable gain (row sums < 1 + 0.5 = 1.5 < 2)
            values.append(QuadraticClippedValue(a=float(rng.uniform(4.0, 6.0)), b=1.0))
        else:
            values.append(LogValue(a=float(rng.uniform(1.0, 3.0)), s=2.0))
        if rng.random() < 0.5:
            costs.append(QuadraticCost(c0=float(rng.uniform(0.5, 2.0))))
        else:
            costs.append(LinearCost(c1=float(rng.uniform(0.3, 1.0))))
    return Game(w=w, lower=lower, upper=upper, values=tuple(values), costs=tuple(costs))


def nested_spec(families):
    @st.composite
    def build(draw):
        spec = draw(families)
        for _ in range(draw(st.integers(0, 2))):
            spec = AffineReparam(spec, scale=draw(st.floats(0.5, 2.0)), shift=draw(st.floats(-1.0, 1.0)))
        return spec
    return build()


# parameters keep the own-utility slope's condition number moderate, so that the
# rounding of the folded parameters moves a root by well under the tolerance
PLAYER = st.tuples(
    nested_spec(st.one_of(st.builds(QuadraticClippedValue, a=st.floats(1.0, 5.0), b=st.floats(0.5, 2.0)),
                          st.builds(LogValue, a=st.floats(0.5, 3.0), s=st.floats(0.1, 3.0)))),
    nested_spec(st.one_of(st.builds(QuadraticCost, c0=st.floats(0.5, 2.0)),
                          st.builds(LinearCost, c1=st.floats(0.1, 2.0)))),
    st.floats(0.05, 1.0),  # offset of the box above the floors
    st.floats(0.1, 3.0),  # box width
)


@st.composite
def games_and_profiles(draw):
    """A game of 1-4 players whose reachable gains stay clear of any log pole, and a profile."""
    players = draw(st.lists(PLAYER, min_size=1, max_size=4))
    n = len(players)
    # at or above 0, the cost floor and any log pole
    floors = [max(0.0, c.domain()[0], v.domain()[0]) for v, c, _, _ in players]
    lower = np.array([f + off for f, (_, _, off, _) in zip(floors, players)])
    upper = lower + np.array([width for *_, width in players])
    raw = np.array(draw(st.lists(st.floats(-0.3, 0.3), min_size=n * n, max_size=n * n))).reshape(n, n)
    np.fill_diagonal(raw, 0.0)
    # lower >= 0, so only negative weights pull a gain below its own lower bound:
    # shrink each row until they take at most half the offset
    pull = np.maximum(-raw, 0.0) @ upper
    offsets = np.array([off for _, _, off, _ in players])
    w = raw * (0.5 * offsets / np.maximum(pull, 0.5 * offsets))[:, None] + np.eye(n)
    game = Game(w=w, lower=lower, upper=upper, values=tuple(v for v, *_ in players),
                costs=tuple(c for _, c, *_ in players))
    where = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    return game, lower + where * (upper - lower)
