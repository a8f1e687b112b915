"""Per-layer metrics computed from recorded spans and family counts.

Counts are totals over one trace cycle (the workload's fixed task list) and
must repeat exactly; times are seconds of self time per task, where self time
is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

from collections import defaultdict

GAME_FNS = ("pseudo_gradient", "sw_gradient", "utility_profile", "best_response", "br_gap",
            "Game_init")
CERTS = ("cert_near_individual", "cert_near_potential", "cert_near_symmetric")
INTEGRATORS = ("dynamics.integrate_pseudo_gradient", "dynamics.integrate_sw_flow")

COUNT, PER_TASK, RATIO = "count", "s/task", "ratio"

#: spans whose self time per task is reported under their own name
SELF_TIMED = (
    *(f"game.{fn}" for fn in GAME_FNS),
    "equilibrium.solve_ne", "equilibrium.verify_ne", "equilibrium.multi_start_probe",
    "equilibrium.grid_oracle", "certificates.certify_any", *(f"certificates.{c}" for c in CERTS),
    "certificates.spectral_bounds", "certificates.jacobi_eigenvalues",
    "casestudy.monte_carlo_case1", "casestudy.random_er_game", "casestudy.delta_row_stats",
    "gamefile.load_game", "gamefile.dumps_canonical", "cli.main",
)

#: every per-layer metric, with its unit, in reporting order
UNITS: dict[str, str] = {
    "functions.calls": COUNT,
    "functions.elems": COUNT,
    "functions.elems_per_call": "elems/call",
    "functions.reparam_calls": COUNT,
    **{f"game.{fn}.{m}": u for fn in GAME_FNS for m, u in (("calls", COUNT), ("self_s", PER_TASK))},
    "game.best_response_per_br_gap": RATIO,
    "equilibrium.solve_ne.calls": COUNT,
    "equilibrium.solve_ne.self_s": PER_TASK,
    "equilibrium.solve_ne.iterations": COUNT,
    "equilibrium.field_evals_per_iter": RATIO,
    "equilibrium.verify_ne.self_s": PER_TASK,
    "equilibrium.multi_start_probe.self_s": PER_TASK,
    "equilibrium.multistart.clusters_per_start": RATIO,
    "equilibrium.grid_oracle.self_s": PER_TASK,
    "equilibrium.grid_oracle.points_per_s": "1/s",
    "certificates.certify_any.calls": COUNT,
    "certificates.certify_any.self_s": PER_TASK,
    **{f"certificates.{c}.self_s": PER_TASK for c in CERTS},
    "certificates.reports_per_certify": RATIO,
    "certificates.inapplicable": COUNT,
    "certificates.spectral_bounds.calls": COUNT,
    "certificates.spectral_bounds.self_s": PER_TASK,
    "certificates.jacobi_eigenvalues.calls": COUNT,
    "certificates.jacobi_eigenvalues.self_s": PER_TASK,
    "dynamics.integrate.calls": COUNT,
    "dynamics.integrate.self_s": PER_TASK,
    "dynamics.steps": COUNT,
    "dynamics.step_s": "s/step",
    "dynamics.field_evals_per_step": RATIO,
    "dynamics.diag_share": RATIO,
    "casestudy.monte_carlo_case1.self_s": PER_TASK,
    "casestudy.random_er_game.self_s": PER_TASK,
    "casestudy.delta_row_stats.self_s": PER_TASK,
    "casestudy.samples": COUNT,
    "equivalence.transform_game.calls": COUNT,
    "equivalence.transform_game.self_s": "s",
    "gamefile.load_game.self_s": PER_TASK,
    "gamefile.dumps_canonical.self_s": PER_TASK,
    "cli.main.self_s": PER_TASK,
    "cli.report_bytes": "bytes",
    "trace.spans": COUNT,
    "trace.cycle_tasks": COUNT,
    "trace.tasks_per_s": "1/s",
    "trace.untraced_tasks_per_s": "1/s",
    "trace.overhead": RATIO,
}

#: counts that must repeat exactly between passes and between runs of one seed
EXACT = tuple(k for k, u in UNITS.items() if u in (COUNT, "bytes"))


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class SpanStats:
    """Per-name call counts, inclusive and self time over a slice of spans."""

    def __init__(self, spans, values, lo: int, hi: int):
        self.spans, self.values, self.lo, self.hi = spans, values, lo, hi
        child = defaultdict(float)
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        for i in range(lo, hi):
            name, start, end, parent, _ = spans[i]
            if parent >= lo:
                child[parent] += end - start
        for i in range(lo, hi):
            name, start, end, _, _ = spans[i]
            self.calls[name] += 1
            self.incl[name] += end - start
            self.self_s[name] += end - start - child[i]

    def where(self, names, parents=None, error=None):
        """Indices of spans named in ``names`` (whose parent is named in ``parents``)."""
        out = []
        for i in range(self.lo, self.hi):
            name, _, _, parent, err = self.spans[i]
            if name not in names or (error is not None and err != error):
                continue
            if parents is not None and (parent < 0 or self.spans[parent][0] not in parents):
                continue
            out.append(i)
        return out

    def total(self, name) -> float:
        """Sum of the numbers extracted from the spans of ``name``."""
        return sum(v for i in self.where((name,)) if isinstance(v := self.values.get(i), (int, float)))

    def duration(self, indices) -> float:
        return sum(self.spans[i][2] - self.spans[i][1] for i in indices)


def counts(st: SpanStats) -> dict[str, float]:
    """The span counts of one cycle (everything in EXACT except family counts)."""
    out = {f"game.{fn}.calls": st.calls[f"game.{fn}"] for fn in GAME_FNS}
    for name in ("equilibrium.solve_ne", "certificates.certify_any",
                 "certificates.spectral_bounds", "certificates.jacobi_eigenvalues"):
        out[f"{name}.calls"] = st.calls[name]
    out["equilibrium.solve_ne.iterations"] = st.total("equilibrium.solve_ne")
    out["certificates.inapplicable"] = len(
        st.where(tuple(f"certificates.{c}" for c in CERTS), error="InputError"))
    out["dynamics.integrate.calls"] = sum(st.calls[n] for n in INTEGRATORS)
    out["dynamics.steps"] = sum(st.total(n) for n in INTEGRATORS)
    out["casestudy.samples"] = st.total("casestudy.monte_carlo_case1")
    out["cli.report_bytes"] = sum(
        st.values.get(i, 0) for i in st.where(("gamefile.dumps_canonical",), parents=("cli.main",)))
    out["trace.spans"] = st.hi - st.lo
    return out


def timings(st: SpanStats, tasks: int) -> dict[str, float]:
    """Self times per task and the ratios that need span durations."""
    out = {f"{name}.self_s": st.self_s[name] / tasks for name in SELF_TIMED}
    out["dynamics.integrate.self_s"] = sum(st.self_s[n] for n in INTEGRATORS) / tasks

    br = st.calls["game.br_gap"]
    out["game.best_response_per_br_gap"] = _ratio(
        len(st.where(("game.best_response",), parents=("game.br_gap",))), br)
    out["equilibrium.field_evals_per_iter"] = _ratio(
        len(st.where(("game.pseudo_gradient",), parents=("equilibrium.solve_ne",))),
        st.total("equilibrium.solve_ne"))
    starts = clusters = 0
    for i in st.where(("equilibrium.multi_start_probe",)):
        got = st.values.get(i)
        if isinstance(got, tuple):
            clusters, starts = clusters + got[0], starts + got[1]
    out["equilibrium.multistart.clusters_per_start"] = _ratio(clusters, starts)
    out["equilibrium.grid_oracle.points_per_s"] = _ratio(
        st.total("equilibrium.grid_oracle"), st.incl["equilibrium.grid_oracle"])

    certs = st.where(tuple(f"certificates.{c}" for c in CERTS),
                     parents=("certificates.certify_any",))
    returned = [i for i in certs if st.spans[i][4] is None]
    out["certificates.reports_per_certify"] = _ratio(len(returned),
                                                     st.calls["certificates.certify_any"])

    steps = sum(st.total(n) for n in INTEGRATORS)
    integrate_s = sum(st.incl[n] for n in INTEGRATORS)
    out["dynamics.step_s"] = _ratio(integrate_s, steps)
    out["dynamics.field_evals_per_step"] = _ratio(
        len(st.where(("game.pseudo_gradient", "game.sw_gradient"), parents=INTEGRATORS)), steps)
    diag = st.where(("game.br_gap", "game.utility_profile"), parents=INTEGRATORS)
    out["dynamics.diag_share"] = _ratio(st.duration(diag), integrate_s)
    return out


def setup_metrics(st: SpanStats) -> dict[str, float]:
    """Layers whose work happens at set-up: the equivalence transforms."""
    return {"equivalence.transform_game.calls": st.calls["equivalence.transform_game"],
            "equivalence.transform_game.self_s": st.self_s["equivalence.transform_game"]}


def family_metrics(calls: int, elems: int, reparam_calls: int) -> dict[str, float]:
    return {"functions.calls": calls, "functions.elems": elems,
            "functions.elems_per_call": _ratio(elems, calls),
            "functions.reparam_calls": reparam_calls}
