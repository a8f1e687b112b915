"""Outside-in tracer: wraps netgoods' public functions without touching its source.

Two independent instruments, each installed and removed as a whole:

* ``SpanTracer`` replaces every ``netgoods.*`` module attribute that is a
  public function of one of the traced layer modules (a function bound in
  several modules, such as ``br_gap``, is replaced everywhere), plus
  ``Game.__post_init__``.  Each call records a span ``(name, start, end,
  parent, error)`` in memory; a few spans also keep a number read from their
  arguments or result (solver iterations, RK4 steps, report bytes).
* ``FamilyCounter`` wraps the ``value``/``d1``/``d2`` methods of the scalar
  function families and only counts calls and evaluated elements.  It runs in
  a pass of its own so its per-call cost never lands in span self times.

Functions that no longer exist are simply not wrapped, so their metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

#: modules whose public functions are traced, in the order of the layer table
LAYER_MODULES = (
    "functions", "game", "equilibrium", "certificates", "dynamics",
    "casestudy", "equivalence", "gamefile", "cli",
)


def _bound(fn, args, kwargs, name):
    try:
        return inspect.signature(fn).bind(*args, **kwargs).arguments.get(name)
    except TypeError:
        return None


def _extractors():
    """Per-span numbers read from a call's arguments or result, by span name."""

    def steps(fn, args, kwargs, out):
        times = getattr(out, "times", None)
        return None if times is None else int(np.size(times)) - 1

    def multistart(fn, args, kwargs, out):
        starts = _bound(fn, args, kwargs, "n_starts")
        return None if starts is None else (len(out), int(starts))

    def oracle(fn, args, kwargs, out):
        game, m = _bound(fn, args, kwargs, "game"), _bound(fn, args, kwargs, "m")
        return None if game is None or m is None else int(m) ** int(game.n)

    return {
        "equilibrium.solve_ne": lambda fn, a, k, out: getattr(out, "iterations", None),
        "equilibrium.multi_start_probe": multistart,
        "equilibrium.grid_oracle": oracle,
        "dynamics.integrate_pseudo_gradient": steps,
        "dynamics.integrate_sw_flow": steps,
        "casestudy.monte_carlo_case1": lambda fn, a, k, out: getattr(out, "samples", None),
        "gamefile.dumps_canonical": lambda fn, a, k, out: len(out.encode()),
    }


class SpanTracer:
    """Records one span per call of every wrapped function while installed."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1, error type or None)
        self.values: dict[int, object] = {}  # span index -> extracted number
        self._stack: list[int] = []
        self._patches: list = []

    def _wrap(self, name, fn, extract):
        spans, values, stack, clock = self.spans, self.values, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                spans[idx] = (name, start, clock(), parent, type(exc).__name__)
                raise
            finally:
                stack.pop()
            spans[idx] = (name, start, clock(), parent, None)
            if extract is not None:
                try:
                    values[idx] = extract(fn, args, kwargs, out)
                except (AttributeError, TypeError, ValueError):
                    pass
            return out

        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("span tracer already installed")
        extract = _extractors()
        wrappers: dict[int, tuple[object, object]] = {}
        for short in LAYER_MODULES:
            mod = importlib.import_module(f"netgoods.{short}")
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    name = f"{short}.{attr}"
                    wrappers[id(obj)] = (obj, self._wrap(name, obj, extract.get(name)))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "netgoods" or modname.startswith("netgoods.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        game_cls = importlib.import_module("netgoods.game").Game
        init = game_cls.__dict__.get("__post_init__")
        if init is not None:
            self._patches.append((game_cls, "__post_init__", init))
            game_cls.__post_init__ = self._wrap("game.Game_init", init, None)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def mark(self) -> int:
        """Index of the next span, to slice the spans of one phase."""
        return len(self.spans)


class FamilyCounter:
    """Counts value/d1/d2 calls and evaluated elements on every scalar family."""

    METHODS = ("value", "d1", "d2")

    def __init__(self):
        self.calls = 0
        self.elems = 0
        self.reparam_calls = 0
        self._patches: list = []

    def _wrap(self, fn, is_reparam):
        counter = self

        @functools.wraps(fn)
        def wrapper(spec, x, *args, **kwargs):
            counter.calls += 1
            counter.elems += int(np.size(x))
            if is_reparam:
                counter.reparam_calls += 1
            return fn(spec, x, *args, **kwargs)

        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("family counter already installed")
        functions = importlib.import_module("netgoods.functions")
        base = functions.ScalarFunction
        reparam = getattr(functions, "AffineReparam", None)
        for cls in vars(functions).values():
            if not (isinstance(cls, type) and issubclass(cls, base) and cls is not base):
                continue
            for meth in self.METHODS:
                fn = cls.__dict__.get(meth)
                if inspect.isfunction(fn):
                    self._patches.append((cls, meth, fn))
                    setattr(cls, meth, self._wrap(fn, cls is reparam))

    def uninstall(self):
        for cls, meth, fn in reversed(self._patches):
            setattr(cls, meth, fn)
        self._patches.clear()
