"""Game file I/O.

Schema: {"n": int, "W": matrix, "lower": [n reals], "upper": [n reals],
"players": [{"value": spec, "cost": spec}, ...]} where a spec is
{"family": tag, "params": {...}} and a matrix is either the row-major list of
its n*n reals or the object {"cols": [ints], "rows": [ints], "vals": [reals]}
listing its entries in strictly increasing row-major order (indices in
[0, n), no repeats); entries it does not list are +0.0.  Loading enforces
every game invariant and reports field-precise errors; saving is canonical
(sorted keys, fixed layout, and W as the object exactly when fewer than a
third of its entries are other than +0.0, so -0.0 entries are kept), so
load/save round-trips are byte-identical.  ``dumps_canonical``, which writes
game files and every CLI report, is the one place that decides how a number
is written: a numpy array as its list, a non-finite float as null.

Every spec parameter, and every entry of W, lower and upper, must be a finite
number.  A player entry identical to the one before it (same JSON, telling
true from 1, 1 from 1.0 and -0.0 from 0.0) is not parsed again: it shares that
player's value and cost specs, so a homogeneous game parses one player.
"""

from __future__ import annotations

import json
import marshal
import math
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .errors import InputError
from .functions import spec_from_dict, spec_to_dict
from .game import Game


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise InputError(f"{where}: missing required field '{key}'")
    return doc[key]


def _number_list(value, count: int | None, where: str) -> np.ndarray:
    """A JSON list of numbers (booleans rejected) as floats; ``count`` None for any length."""
    if not isinstance(value, list) or count is not None and len(value) != count:
        size = "" if count is None else f"{count} "
        raise InputError(f"{where}: expected a list of {size}numbers")
    if not set(map(type, value)) <= {int, float}:  # at C speed; the loop finds the first bad entry
        for idx, v in enumerate(value):
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise InputError(f"{where}[{idx}]: expected a number, got {v!r}")
    try:
        return np.asarray(value, dtype=float)
    except OverflowError:  # an int beyond the float range; name the first
        for idx, v in enumerate(value):
            try:
                float(v)
            except OverflowError:
                raise InputError(f"{where}[{idx}]: integer too large for a float") from None
        raise


def _index_list(value, n: int, where: str) -> np.ndarray:
    """A JSON list of integers in [0, n) (booleans and floats rejected) as an index array."""
    if not isinstance(value, list):
        raise InputError(f"{where}: expected a list of integers")
    if not set(map(type, value)) <= {int}:  # at C speed; the loop finds the first bad entry
        for idx, v in enumerate(value):
            if not isinstance(v, int) or isinstance(v, bool):
                raise InputError(f"{where}[{idx}]: expected an integer, got {v!r}")
    if value and not 0 <= min(value) <= max(value) < n:
        idx = next(idx for idx, v in enumerate(value) if not 0 <= v < n)
        raise InputError(f"{where}[{idx}]: index {value[idx]} outside [0, {n})")
    return np.asarray(value, dtype=np.intp)


def _matrix(value, n: int, where: str) -> np.ndarray:
    """An (n, n) matrix from its row-major list of n*n numbers or its {"cols", "rows", "vals"} object.

    Any other value, and an object with none of those keys, gets the list's
    error.
    """
    if not isinstance(value, dict) or not value.keys() & {"cols", "rows", "vals"}:
        return _number_list(value, n * n, where).reshape(n, n)
    rows = _index_list(_require(value, "rows", where), n, f"{where}.rows")
    cols = _index_list(_require(value, "cols", where), n, f"{where}.cols")
    vals = _number_list(_require(value, "vals", where), None, f"{where}.vals")
    if not len(rows) == len(cols) == len(vals):
        raise InputError(f"{where}: rows, cols and vals must have equal lengths, "
                         f"got {len(rows)}, {len(cols)} and {len(vals)}")
    d_row, d_col = np.diff(rows), np.diff(cols)
    bad = np.flatnonzero((d_row < 0) | (d_row == 0) & (d_col <= 0))
    if bad.size:
        k = int(bad[0]) + 1
        raise InputError(f"{where}: entry {k} at ({rows[k]}, {cols[k]}) does not follow entry {k - 1} "
                         f"at ({rows[k - 1]}, {cols[k - 1]}) in strictly increasing row-major order")
    try:
        w = np.zeros((n, n))
    except MemoryError:
        raise InputError(f"{where}: not enough memory to expand W to {n}x{n} (n = {n})") from None
    w[rows, cols] = vals
    return w


def _sparse_doc(m: np.ndarray) -> dict | None:
    """An (n, n) matrix's entries other than +0.0 (-0.0, nan and inf included) as the {"cols",
    "rows", "vals"} object when they are fewer than a third of n*n, else None: the one rule for
    W in a game file and for a matrix in a report."""
    flat = m.ravel()
    stored = np.flatnonzero(flat.view(np.uint64))  # +0.0 is the one float whose bits are all 0
    if 3 * stored.size >= flat.size:
        return None
    rows, cols = np.divmod(stored, m.shape[1])
    return {"cols": cols.tolist(), "rows": rows.tolist(), "vals": flat[stored].tolist()}


def _w_doc(w: np.ndarray):
    """W as a game file writes it: the sparse object, else the row-major list."""
    doc = _sparse_doc(w)
    return w.ravel().tolist() if doc is None else doc


def _exact_key(value) -> bytes | None:
    """Bytes equal for two JSON values only when the values are the same, key order included.

    == does not tell true from 1, 1 from 1.0 or -0.0 from 0.0; marshal's
    format 2 does, and unlike later formats it writes no back-references,
    whose use depends on reference counts.  None for values marshal cannot
    write (objects a caller built).
    """
    try:
        return marshal.dumps(value, 2)
    except ValueError:
        return None


def game_from_dict(doc: dict, where: str = "game") -> Game:
    """Parse and validate a game document.

    A player entry identical to the previous one (equal ``_exact_key``) reuses
    that player's specs; the first entry of every run is parsed and checked,
    so errors and their indices are those of a per-player parse.
    """
    if not isinstance(doc, dict):
        raise InputError(f"{where}: expected an object, got {type(doc).__name__}")
    n = _require(doc, "n", where)
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InputError(f"{where}.n: expected a positive integer, got {n!r}")
    # the n-long fields first: a sparse W does not vouch for n, and expanding it costs n*n
    lower = _number_list(_require(doc, "lower", where), n, f"{where}.lower")
    upper = _number_list(_require(doc, "upper", where), n, f"{where}.upper")
    players = _require(doc, "players", where)
    if not isinstance(players, list) or len(players) != n:
        raise InputError(f"{where}.players: expected a list of {n} objects")
    w = _matrix(_require(doc, "W", where), n, f"{where}.W")
    values = []
    costs = []
    prev_key = None
    for i, entry in enumerate(players):
        key = _exact_key(entry)
        if key is not None and key == prev_key:
            values.append(values[-1])
            costs.append(costs[-1])
            continue
        prev_key = key
        if not isinstance(entry, dict):
            raise InputError(f"{where}.players[{i}]: expected an object")
        values.append(
            spec_from_dict(_require(entry, "value", f"{where}.players[{i}]"),
                           where=f"{where}.players[{i}].value")
        )
        costs.append(
            spec_from_dict(_require(entry, "cost", f"{where}.players[{i}]"),
                           where=f"{where}.players[{i}].cost")
        )
    return Game(w=w, lower=lower, upper=upper, values=tuple(values), costs=tuple(costs))


def game_to_dict(game: Game) -> dict:
    return {
        "n": game.n,
        "W": _w_doc(game.w),
        "lower": [float(v) for v in game.lower],
        "upper": [float(v) for v in game.upper],
        "players": [
            {"value": spec_to_dict(game.values[i]), "cost": spec_to_dict(game.costs[i])}
            for i in range(game.n)
        ],
    }


def dumps_canonical(doc) -> str:
    """Deterministic, strict JSON: sorted keys, fixed indentation, trailing newline.

    This is the one place that decides how a number enters a report or a game
    file: a numpy array is written as its ``tolist()``, and every non-finite
    float, at any depth, as null (RFC 8259 has no NaN or Infinity), so no
    caller converts either.  On a document of finite numbers and no arrays
    the bytes are those of ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``,
    written directly: with an indent, json falls back to its pure-Python encoder.
    """
    return _encode(doc, "") + "\n"


def _encode(o, indent: str) -> str:
    if isinstance(o, str):
        return _quote(o)
    if isinstance(o, np.ndarray):
        o = o.tolist()
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = indent + "  "
        types = set(map(type, o))
        if types == {float} and all(map(math.isfinite, o)):  # vectors and matrices
            items = map(float.__repr__, o)
        elif types == {int}:  # sparse indices
            items = map(int.__repr__, o)
        else:
            items = (_encode(v, inner) for v in o)
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = indent + "  "
        items = (_quote(_key(k)) + ": " + _encode(v, inner) for k, v in sorted(o.items()))
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    return _scalar(o)


def _scalar(o) -> str:
    if o is None or isinstance(o, bool):
        return {None: "null", True: "true", False: "false"}[o]
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return float.__repr__(o) if math.isfinite(o) else "null"
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _key(k) -> str:
    if isinstance(k, str):
        return k
    if k is None or isinstance(k, (int, float)):  # spelled as json spells such keys
        return _scalar(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _read_json(path, what: str):
    """The JSON document in a file; an unreadable or malformed file is an InputError naming what it is."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{what} {path} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # an integer past the interpreter's digit limit, or undecodable text
        raise InputError(f"cannot parse {what} {path}: {exc}") from exc


def load_game(path) -> Game:
    return game_from_dict(_read_json(path, "game file"), where=str(path))


def save_game(game: Game, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_canonical(game_to_dict(game)))
