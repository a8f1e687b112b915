import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_fig1a_game, random_small_interaction_game
from netgoods.errors import InputError
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


_json_scalars = (st.none() | st.booleans() | st.integers(min_value=-10**40, max_value=10**40)
                 | st.floats(allow_nan=True, allow_infinity=True)
                 | st.text(alphabet=st.characters(codec="utf-8"), max_size=8))
_json_docs = st.recursive(
    _json_scalars | st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=6),
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None)
@given(_json_docs)
def test_dumps_canonical_is_json_dumps(doc):
    assert dumps_canonical(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_dumps_canonical_rejects_what_json_rejects():
    for doc in ({"a": {1, 2}}, [np.arange(2)], {("k",): 1}):
        with pytest.raises(TypeError) as want:
            json.dumps(doc, sort_keys=True, indent=2)
        with pytest.raises(TypeError) as got:
            dumps_canonical(doc)
        assert str(got.value) == str(want.value)
