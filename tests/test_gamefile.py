import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import games_and_profiles, make_fig1a_game, random_small_interaction_game, strict_loads
from netgoods import gamefile
from netgoods.casestudy import random_er_game
from netgoods.cli import _certificate_doc
from netgoods.errors import InputError
from netgoods.functions import spec_from_dict
from netgoods.game import Evaluator, Game
from netgoods.gamefile import (
    dumps_canonical,
    game_from_dict,
    game_to_dict,
    load_game,
    save_game,
)


def minimal_n1_doc():
    return {
        "n": 1,
        "W": [1.0],
        "lower": [0.0],
        "upper": [2.0],
        "players": [
            {
                "value": {"family": "quadratic_clipped_value", "params": {"a": 3.0, "b": 1.0}},
                "cost": {"family": "quadratic_cost", "params": {"c0": 1.0}},
            }
        ],
    }


def test_minimal_file_loads(tmp_path, n1_game):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(minimal_n1_doc()))
    g = load_game(path)
    assert g.n == 1
    assert g.values == n1_game.values
    assert g.costs == n1_game.costs
    assert np.array_equal(g.upper, n1_game.upper)


def test_bad_diagonal_rejected():
    doc = minimal_n1_doc()
    doc["W"] = [2.0]
    with pytest.raises(InputError, match="diagonal must be 1"):
        game_from_dict(doc)


def test_schema_errors_name_fields():
    doc = minimal_n1_doc()
    del doc["players"][0]["cost"]
    with pytest.raises(InputError, match=r"players\[0\].*cost"):
        game_from_dict(doc)
    doc = minimal_n1_doc()
    doc["W"] = [1.0, 0.0]
    with pytest.raises(InputError, match=r"\.W"):
        game_from_dict(doc)
    doc = minimal_n1_doc()
    doc["n"] = "one"
    with pytest.raises(InputError, match=r"\.n"):
        game_from_dict(doc)
    doc = minimal_n1_doc()
    doc["players"][0]["value"]["family"] = "mystery"
    with pytest.raises(InputError, match=r"players\[0\]\.value\.family"):
        game_from_dict(doc)


def _with(**fields):
    """The minimal one-player document with some top-level fields replaced, or dropped when None."""
    doc = {**minimal_n1_doc(), **fields}
    return {k: v for k, v in doc.items() if v is not None}


@pytest.mark.parametrize("doc, where, message", [
    ([minimal_n1_doc()], "game", "game: expected an object, got list"),
    ("g", "g.json", "g.json: expected an object, got str"),
    (_with(n=0), "game", "game.n: expected a positive integer, got 0"),
    (_with(n=True), "game", "game.n: expected a positive integer, got True"),
    (_with(upper=None), "game", "game: missing required field 'upper'"),
    (_with(players={"0": {}}), "game", "game.players: expected a list of 1 objects"),
    (_with(players=[]), "game", "game.players: expected a list of 1 objects"),
    (_with(players=[["value", "cost"]]), "game", "game.players[0]: expected an object"),
    (_with(n=2, W=[1.0, 0.0, 0.0, 1.0], lower=[0.0, 0.0], upper=[2.0, 2.0],
           players=[minimal_n1_doc()["players"][0], 7]), "game", "game.players[1]: expected an object"),
    (_with(players=[{"value": minimal_n1_doc()["players"][0]["value"]}]), "game",
     "game.players[0]: missing required field 'cost'"),
], ids=["list", "string", "n-zero", "n-bool", "no-upper", "players-object", "players-short", "player-list",
        "second-player-int", "player-no-cost"])
def test_document_refusals(doc, where, message):
    with pytest.raises(InputError) as exc:
        game_from_dict(doc, where=where)
    assert str(exc.value) == message


def test_inverted_bounds_rejected():
    doc = minimal_n1_doc()
    doc["lower"], doc["upper"] = [2.0], [0.0]
    with pytest.raises(InputError, match="lower < upper"):
        game_from_dict(doc)


def test_roundtrip_field_exact(tmp_path, fig1a_game):
    path = tmp_path / "fig1a.json"
    save_game(fig1a_game, path)
    back = load_game(path)
    assert np.array_equal(back.w, fig1a_game.w)
    assert np.array_equal(back.lower, fig1a_game.lower)
    assert np.array_equal(back.upper, fig1a_game.upper)
    assert back.values == fig1a_game.values
    assert back.costs == fig1a_game.costs


def test_roundtrip_byte_identical(tmp_path):
    rng = np.random.default_rng(123)
    g = random_small_interaction_game(rng, n=8)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_game(g, p1)
    save_game(load_game(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_canonical_serialization_deterministic():
    doc = game_to_dict(make_fig1a_game())
    assert dumps_canonical(doc) == dumps_canonical(json.loads(dumps_canonical(doc)))


def test_unreadable_path():
    with pytest.raises(InputError, match="cannot read"):
        load_game("/nonexistent/path/game.json")


def test_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(InputError, match="not valid JSON"):
        load_game(path)


@pytest.mark.parametrize("bad, shown", [(True, "True"), ("2.0", "'2.0'"), (None, "None"),
                                        ([1.0], "[1.0]")])
def test_number_list_names_first_bad_entry(bad, shown):
    doc = minimal_n1_doc()
    doc["n"], doc["players"] = 2, doc["players"] * 2
    doc["W"], doc["lower"], doc["upper"] = [1.0, 0.0, bad, True], [0.0, 0], [2.0, 2.0]
    with pytest.raises(InputError) as exc:
        game_from_dict(doc)
    assert str(exc.value) == f"game.W[2]: expected a number, got {shown}"


def test_number_list_accepts_number_subclasses():
    doc = minimal_n1_doc()
    doc["lower"] = [np.float64(0.0)]
    assert game_from_dict(doc).lower[0] == 0.0


def _docs(floats, leaves=st.nothing()):
    """JSON-like documents of these floats, plus the extra leaves given."""
    scalars = (st.none() | st.booleans() | st.integers(min_value=-10**40, max_value=10**40) | floats
               | st.text(alphabet=st.characters(codec="utf-8"), max_size=8))
    return st.recursive(
        scalars | st.lists(floats, max_size=6) | leaves,
        lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                       | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
        max_leaves=25,
    )


_any_floats = st.floats(allow_nan=True, allow_infinity=True)
_arrays = hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=4), elements=_any_floats)


def _as_written(o):
    """The document the encoder promises to write: arrays as lists, non-finite floats as None."""
    if isinstance(o, np.ndarray):
        return _as_written(o.tolist())
    if isinstance(o, (list, tuple)):
        return [_as_written(v) for v in o]
    if isinstance(o, dict):
        return {k: _as_written(v) for k, v in o.items()}
    return None if isinstance(o, float) and not math.isfinite(o) else o


@settings(max_examples=200, deadline=None)
@given(_docs(st.floats(allow_nan=False, allow_infinity=False)))
def test_dumps_canonical_is_json_dumps(doc):
    assert dumps_canonical(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


@settings(max_examples=200, deadline=None)
@given(_docs(_any_floats, _arrays))
def test_dumps_canonical_writes_arrays_as_lists_and_non_finite_floats_as_null(doc):
    text = dumps_canonical(doc)
    want = _as_written(doc)
    assert strict_loads(text) == want
    assert text == json.dumps(want, sort_keys=True, indent=2) + "\n"


def test_dumps_canonical_rejects_what_json_rejects():
    for doc in ({"a": {1, 2}}, {("k",): 1}):
        with pytest.raises(TypeError) as want:
            json.dumps(doc, sort_keys=True, indent=2)
        with pytest.raises(TypeError) as got:
            dumps_canonical(doc)
        assert str(got.value) == str(want.value)


# --- players equal to the one before reuse its specs ---------------------------------------

def _quad(a=3.0):
    return {"value": {"family": "quadratic_clipped_value", "params": {"a": a, "b": 1.0}},
            "cost": {"family": "quadratic_cost", "params": {"c0": 1.0}}}


def _log():
    return {"value": {"family": "log_value", "params": {"a": 1.0, "s": 1.0}},
            "cost": {"family": "linear_cost", "params": {"c1": 0.5}}}


def _nested(shift=0.0):
    inner = {"family": "affine_reparam",
             "params": {"inner": _quad()["value"], "scale": 2.0, "shift": shift}}
    return {"value": {"family": "affine_reparam",
                      "params": {"inner": inner, "scale": 0.5, "shift": -0.25}},
            "cost": {"family": "affine_reparam",
                     "params": {"inner": _quad()["cost"], "scale": 1.5, "shift": shift}}}


_PLAYER_PATTERNS = {
    "all_equal": [_quad] * 8,
    "runs": [_quad] * 3 + [_log] * 2 + [lambda: _quad(4.0)] * 3,
    "alternating": [_quad, _log] * 4,
    "all_distinct": [lambda i=i: _quad(3.0 + i) for i in range(8)],
    # the shifts 0.0 and -0.0 compare equal but are different parameters
    "nested": [_nested] * 2 + [lambda: _nested(-0.0)] * 2 + [_nested, _log, _nested, _nested],
}


def _doc(players):
    n = len(players)
    w = np.eye(n) + 0.1 * (np.ones((n, n)) - np.eye(n))
    return {"n": n, "W": w.ravel().tolist(), "lower": [0.0] * n, "upper": [1.0] * n,
            "players": players}


@pytest.mark.parametrize("pattern", _PLAYER_PATTERNS)
def test_equal_players_load_as_a_per_player_parse(tmp_path, pattern):
    path = tmp_path / "g.json"
    path.write_text(dumps_canonical(_doc([make() for make in _PLAYER_PATTERNS[pattern]])))
    game = load_game(path)
    players = json.loads(path.read_text())["players"]
    values = tuple(spec_from_dict(p["value"]) for p in players)
    costs = tuple(spec_from_dict(p["cost"]) for p in players)
    assert repr(game.values) == repr(values) and repr(game.costs) == repr(costs)  # -0.0 too
    runs = 1 + sum(json.dumps(a) != json.dumps(b) for a, b in zip(players, players[1:]))
    assert len(set(map(id, game.values))) == len(set(map(id, game.costs))) == runs  # parsed once
    per_player = np.hstack([Evaluator.of([v], [c]).cols for v, c in zip(values, costs)])
    assert game.evaluator.cols.tobytes() == per_player.tobytes()
    again = tmp_path / "again.json"
    save_game(game, again)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("player, path", [(_quad(), ("cost", "params")),
                                          (_nested(), ("cost", "params", "inner", "params"))],
                         ids=["plain", "nested"])
def test_true_after_an_equal_number_is_rejected_with_its_index(player, path):
    doc = _doc([player, json.loads(json.dumps(player))])
    params = doc["players"][1]
    for key in path:
        params = params[key]
    params["c0"] = True
    assert doc["players"][1] == doc["players"][0]  # True == 1.0
    field = r"players\[1\]\." + r"\.".join(path) + r"\.c0"
    with pytest.raises(InputError, match=field + ": expected a number, got True"):
        game_from_dict(doc)


def test_bad_entry_after_a_run_reports_its_own_index():
    doc = _doc([_quad() for _ in range(4)] + [_log()])
    doc["players"][3]["value"]["family"] = "mystery"
    with pytest.raises(InputError, match=r"game\.players\[3\]\.value\.family: unknown family"):
        game_from_dict(doc)


@pytest.mark.parametrize("field", ["W", "lower", "upper"])
def test_integer_beyond_the_float_range_is_an_input_error(field):
    doc = minimal_n1_doc()
    doc[field] = [10**400]
    with pytest.raises(InputError, match=rf"^game\.{field}\[0\]: integer too large for a float$"):
        game_from_dict(doc)


def test_integer_past_the_digit_limit_is_an_input_error(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(minimal_n1_doc()).replace('"W": [1.0]', '"W": [' + "1" * 5000 + "]"))
    with pytest.raises(InputError, match="cannot parse game file .*digits"):
        load_game(path)


# --- round trips over every family, and range errors that name their field ------------------

@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(games_and_profiles())
def test_game_files_round_trip(tmp_path, game_and_profile):
    game, _ = game_and_profile
    path, again = tmp_path / "g.json", tmp_path / "again.json"
    save_game(game, path)
    save_game(load_game(path), again)
    assert again.read_bytes() == path.read_bytes()
    back = game_from_dict(game_to_dict(game))
    assert repr(back.values) == repr(game.values) and repr(back.costs) == repr(game.costs)  # -0.0 too
    assert back.evaluator.cols.tobytes() == game.evaluator.cols.tobytes()


@pytest.mark.parametrize("field, spec, message", [
    ("value", {"family": "quadratic_clipped_value", "params": {"a": 3.0, "b": 0.0}},
     "QuadraticClippedValue needs finite a>0, b>0, got a=3.0, b=0.0"),
    ("value", {"family": "log_value", "params": {"a": -1.0, "s": 1.0}},
     "LogValue needs finite a>0, s>0, got a=-1.0, s=1.0"),
    ("cost", {"family": "quadratic_cost", "params": {"c0": float("nan")}},
     "QuadraticCost needs finite c0>0, got nan"),
    ("cost", {"family": "linear_cost", "params": {"c1": float("inf")}},
     "LinearCost needs finite c1>0, got inf"),
    ("cost", {"family": "affine_reparam",
              "params": {"inner": {"family": "quadratic_cost", "params": {"c0": 1.0}},
                         "scale": 0.0, "shift": 0.0}},
     "AffineReparam needs finite scale>0 and shift, got scale=0.0, shift=0.0"),
], ids=["clipped", "log", "quadratic", "linear", "affine"])
def test_range_error_names_its_field(field, spec, message):
    doc = _doc([_quad() for _ in range(5)])
    doc["players"][3][field] = spec
    with pytest.raises(InputError) as exc:
        game_from_dict(doc)
    assert str(exc.value) == f"game.players[3].{field}: {message}"


def test_nested_range_error_is_prefixed_once():
    doc = _doc([_nested() for _ in range(5)])
    doc["players"][3]["value"]["params"]["inner"]["params"]["inner"]["params"]["b"] = -1.0
    with pytest.raises(InputError) as exc:
        game_from_dict(doc)
    assert str(exc.value) == ("game.players[3].value.params.inner.params.inner: "
                              "QuadraticClippedValue needs finite a>0, b>0, got a=3.0, b=-1.0")


# --- W as a sparse {"cols", "rows", "vals"} object ------------------------------------------

def _er_game():
    # float parameters: a game built with the int 3 writes 3, which loads and re-saves as 3.0
    return random_er_game(100, 1.0, 3.0, 1.0, 1.0, seed=2)


def _game(w):
    n = len(w)
    spec = _quad()
    return Game(w=w, lower=np.zeros(n), upper=np.ones(n),
                values=(spec_from_dict(spec["value"]),) * n, costs=(spec_from_dict(spec["cost"]),) * n)


def test_er_game_is_written_sparse_and_re_saved_byte_identically(tmp_path):
    game = _er_game()
    path, again = tmp_path / "g.json", tmp_path / "again.json"
    save_game(game, path)
    w = json.loads(path.read_text())["W"]
    rows, cols = np.nonzero(game.w)
    assert w == {"cols": cols.tolist(), "rows": rows.tolist(), "vals": game.w[rows, cols].tolist()}
    save_game(load_game(path), again)
    assert again.read_bytes() == path.read_bytes()


def test_game_built_with_int_parameters_re_saves_byte_identically(tmp_path):
    # the families keep the ints they are given; the file writes every parameter as a float
    game = random_er_game(5, 1, 3, 1, 1, seed=2)
    path, again = tmp_path / "g.json", tmp_path / "again.json"
    save_game(game, path)
    players = json.loads(path.read_text())["players"]
    assert players[0]["value"]["params"] == {"a": 3.0, "b": 1.0}
    assert all(type(v) is float for p in players for spec in p.values() for v in spec["params"].values())
    save_game(load_game(path), again)
    assert again.read_bytes() == path.read_bytes()
    assert path.read_bytes() == dumps_canonical(game_to_dict(random_er_game(5, 1.0, 3.0, 1.0, 1.0, seed=2))).encode()


def test_negative_zero_entry_round_trips(tmp_path):
    w = np.eye(4)
    w[1, 2] = -0.0
    game = _game(w)
    path, again = tmp_path / "g.json", tmp_path / "again.json"
    save_game(game, path)
    doc = json.loads(path.read_text())["W"]
    assert doc["rows"] == [0, 1, 1, 2, 3] and doc["cols"] == [0, 1, 2, 2, 3]
    back = load_game(path)
    assert back.w.tobytes() == game.w.tobytes() and np.signbit(back.w[1, 2])
    save_game(back, again)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("make", [make_fig1a_game, lambda: random_small_interaction_game(
    np.random.default_rng(123), n=8)], ids=["fig1a", "weakly-coupled"])
def test_dense_game_file_keeps_the_json_dumps_layout(tmp_path, make):
    game = make()
    path = tmp_path / "g.json"
    save_game(game, path)
    doc = {**game_to_dict(game), "W": [float(v) for v in game.w.ravel()]}
    assert path.read_text() == json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("edges, form", [(6, list), (5, dict)])
def test_dense_list_from_a_third_of_the_entries(edges, form):
    n = 6  # 3 * (6 diagonal + 6 edges) == n * n: the boundary writes the list
    w = np.eye(n)
    for k in range(edges):
        w[k, (k + 1) % n] = 0.1
    doc = game_to_dict(_game(w))
    assert type(doc["W"]) is form
    assert game_from_dict(doc).w.tobytes() == w.tobytes()
    assert type(_report_matrix(w)) is form  # a report's matrix by the same rule, dense as n rows


def test_unsorted_sparse_file_is_refused(tmp_path):
    doc = json.loads(dumps_canonical(game_to_dict(_game(np.eye(4)))))
    doc["W"]["rows"][1:3] = [2, 1]
    doc["W"]["cols"][1:3] = [2, 1]
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError, match=r"\.W: entry 2 at \(1, 1\) does not follow entry 1 at \(2, 2\)"):
        load_game(path)


def test_dense_layout_of_an_er_game_loads_as_its_sparse_file(tmp_path):
    game = _er_game()
    sparse, dense = tmp_path / "sparse.json", tmp_path / "dense.json"
    save_game(game, sparse)
    doc = {**game_to_dict(game), "W": [float(v) for v in game.w.ravel()]}
    dense.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")  # the layout before sparse W
    a, b = load_game(sparse), load_game(dense)
    for field in ("w", "lower", "upper"):
        assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
    assert a.evaluator.cols.tobytes() == b.evaluator.cols.tobytes()


# --- one sparse rule for a game file's W and a report's matrix -------------------------------

#: entries other than +0.0: a signed zero, subnormals, the edge of the float range and plain values
_STORED = np.array([-0.0, 5e-324, -2.5e-310, 1e300, -1e300, 1.0, -0.3])


@st.composite
def _square_matrices(draw):
    """An (n, n) matrix with about a third of its entries stored, and how many are."""
    n = draw(st.integers(1, 40))
    third = n * n // 3
    stored = draw(st.integers(max(0, third - 2), min(n * n, third + 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = np.zeros(n * n)
    m[rng.choice(n * n, stored, replace=False)] = rng.choice(_STORED, stored)
    return m.reshape(n, n), stored


def _report_matrix(m):
    """A certificate report's matrix as the CLI writes it, parsed back."""
    return strict_loads(dumps_canonical(_certificate_doc(SimpleNamespace(matrix=m))))["matrix"]


@settings(max_examples=300, deadline=None)
@given(_square_matrices())
def test_report_matrix_takes_the_game_file_form_and_reads_back_bit_for_bit(case):
    m, stored = case
    n = len(m)
    got, w = _report_matrix(m), gamefile._w_doc(m)
    assert type(got) is type(w) is (dict if 3 * stored < n * n else list)
    if isinstance(got, dict):
        assert got == w and len(got["vals"]) == stored
        assert gamefile._matrix(got, n, "matrix").tobytes() == m.tobytes()
    else:
        assert np.array(got).shape == (n, n) and np.array(got).tobytes() == m.tobytes()


def _sparse_doc(**w):
    doc = minimal_n1_doc()
    doc["n"], doc["players"] = 2, doc["players"] * 2
    doc["lower"], doc["upper"] = [0.0, 0.0], [2.0, 2.0]
    doc["W"] = {"rows": [0, 1], "cols": [0, 1], "vals": [1.0, 1.0], **w}
    return doc


def test_sparse_doc_loads():
    assert np.array_equal(game_from_dict(_sparse_doc()).w, np.eye(2))


@pytest.mark.parametrize("w, message", [
    ({"vals": None}, "game.W.vals: expected a list of numbers"),
    ({"rows": "01"}, "game.W.rows: expected a list of integers"),
    ({"cols": {"0": 0}}, "game.W.cols: expected a list of integers"),
    ({"rows": [0, True]}, "game.W.rows[1]: expected an integer, got True"),
    ({"cols": [0, 1.0]}, "game.W.cols[1]: expected an integer, got 1.0"),
    ({"rows": [-1, 1]}, "game.W.rows[0]: index -1 outside [0, 2)"),
    ({"cols": [0, 2]}, "game.W.cols[1]: index 2 outside [0, 2)"),
    ({"rows": [0, 10**30]}, "game.W.rows[1]: index 1000000000000000000000000000000 outside [0, 2)"),
    ({"vals": [1.0]}, "game.W: rows, cols and vals must have equal lengths, got 2, 2 and 1"),
    ({"rows": [0], "cols": [0, 1]}, "game.W: rows, cols and vals must have equal lengths, got 1, 2 and 2"),
    ({"rows": [1, 1], "cols": [1, 1]},
     "game.W: entry 1 at (1, 1) does not follow entry 0 at (1, 1) in strictly increasing row-major order"),
    ({"rows": [1, 0], "cols": [0, 1]},
     "game.W: entry 1 at (0, 1) does not follow entry 0 at (1, 0) in strictly increasing row-major order"),
    ({"vals": [1.0, "1"]}, "game.W.vals[1]: expected a number, got '1'"),
    ({"vals": [1.0, True]}, "game.W.vals[1]: expected a number, got True"),
    ({"vals": [1.0, 10**400]}, "game.W.vals[1]: integer too large for a float"),
], ids=["vals-missing-list", "rows-string", "cols-object", "bool-index", "float-index", "negative",
        "past-n", "huge", "short-vals", "short-rows", "duplicate", "out-of-order", "string-val",
        "true-val", "huge-val"])
def test_malformed_sparse_w_names_its_field(w, message):
    with pytest.raises(InputError) as exc:
        game_from_dict(_sparse_doc(**w))
    assert str(exc.value) == message


@pytest.mark.parametrize("key", ["rows", "cols", "vals"])
def test_sparse_w_missing_key(key):
    doc = _sparse_doc()
    del doc["W"][key]
    with pytest.raises(InputError) as exc:
        game_from_dict(doc)
    assert str(exc.value) == f"game.W: missing required field '{key}'"


def test_sparse_w_entries_default_to_zero_and_keep_the_diagonal_check():
    doc = _sparse_doc(rows=[0], cols=[0], vals=[1.0])
    with pytest.raises(InputError, match=r"diagonal must be 1 \(w\[1,1\]=0.0\)"):
        game_from_dict(doc)


def test_small_file_asking_for_a_huge_w_is_refused_before_expanding_it(monkeypatch):
    doc = _sparse_doc()
    doc["n"] = 10**9
    monkeypatch.setattr(gamefile, "_matrix", _no_expansion)
    with pytest.raises(InputError) as exc:
        game_from_dict(doc)
    assert str(exc.value) == "game.lower: expected a list of 1000000000 numbers"


@pytest.mark.parametrize("field, message", [
    ("lower", "game.lower: expected a list of 2 numbers"),
    ("upper", "game.upper: expected a list of 2 numbers"),
    ("players", "game.players: expected a list of 2 objects"),
])
def test_n_long_fields_are_checked_before_w_is_expanded(monkeypatch, field, message):
    doc = _sparse_doc()
    doc[field] = doc[field][:1]
    monkeypatch.setattr(gamefile, "_matrix", _no_expansion)
    with pytest.raises(InputError) as exc:
        game_from_dict(doc)
    assert str(exc.value) == message


def _no_expansion(*args):
    raise AssertionError("W expanded before the n-long fields were checked")


def test_memory_error_expanding_w_names_n(monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(gamefile.np, "zeros", no_memory)
    with pytest.raises(InputError) as exc:
        game_from_dict(_sparse_doc())
    assert str(exc.value) == "game.W: not enough memory to expand W to 2x2 (n = 2)"
