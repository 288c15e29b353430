"""Spans at the boundaries between infocost's modules, installed from outside.

The tracer replaces module attributes that callers look up at call time
(``infocost.ri_solver.eval_cost`` is what the solver calls), so no file under
``src/`` changes.  Layer calls become spans (name, start, end, parent, op id)
kept in memory.  Hot leaf calls, tens of thousands per op, are aggregated as
count and total time under their enclosing span instead, which keeps the
trace bounded.  A span's self time is its duration minus the time of the
spans and leaves it encloses.  The tracer assumes one thread: the benchmark
runs the CLI with its default single-threaded settings.
"""

from __future__ import annotations

import importlib
from time import perf_counter

# attribute -> span label
SPANS = {
    "infocost.ri_solver.solve": "ri_solver.solve",
    "infocost.ri_solver.claim1_region": "ri_solver.claim1_region",
    "infocost.axioms.run_suite": "axioms.run_suite",
    "infocost.axioms.check_axiom": "axioms.check_axiom",
    "infocost.blackwell.pairwise_dominates": "blackwell.pairwise_dominates",
    "infocost.blackwell.dominates": "blackwell.dominates",
    "infocost.blackwell.linprog": "blackwell.linprog",
    "infocost.approx.sandwich_report": "approx.sandwich_report",
    "infocost.approx.coarsen": "approx.coarsen",
}

# attribute -> leaf label; the experiment operators are the ones axioms calls
LEAVES = {
    "infocost.ri_solver.eval_cost": "cost.eval_cost",
    "infocost.axioms.eval_cost": "cost.eval_cost",
    "infocost.cost.unified_divergence": "divergence.unified",
    "infocost.cost.extended_divergence": "divergence.extended",
    "infocost.cost.posteriors": "experiment.posteriors",
    "infocost.approx.posterior_divergence": "divergence.posterior",
    "infocost.axioms._residual": "axioms.sample",
    **{
        f"infocost.axioms.{name}": f"experiment.{name}"
        for name in (
            "mixture",
            "product",
            "power",
            "dilute",
            "uninformative",
            "new_experiment",
            "random_experiment",
            "garble",
            "random_kernel",
        )
    },
}

COST_FAMILIES = {
    "KLCost": "kl",
    "MaxKLCost": "max_kl",
    "RenyiCost": "renyi",
    "MaxRenyiCost": "max_renyi",
    "PosteriorSeparableCost": "posterior_separable",
    "ConvexPSCost": "convex_ps",
}
BRANCHES = {"InteriorParam": "interior", "WeightedKLParam": "kl", "SupParam": "sup"}


def _lp_cells(args, kwargs) -> int:
    return sum(int(kwargs[k].size) for k in ("A_ub", "A_eq") if kwargs.get(k) is not None)


def _class_keys(module_name: str, names: dict, label: str) -> dict:
    """Leaf keys per argument class, so the hot wrapper does one dict lookup."""
    module = importlib.import_module(module_name)
    return {getattr(module, cls): f"{label}.{sub}" for cls, sub in names.items() if hasattr(module, cls)}


class Tracer:
    """Span recorder; ``install`` patches the module attributes, ``remove`` restores them."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []
        self._frames: list[float] = [0.0]  # time spent in children of each open span or leaf
        self._open: list[dict] = []
        self._aggs: list[dict] = [{}]  # leaf aggregates of the innermost open span
        self._patched: list[tuple] = []
        self.op_id = -1

    # -- spans ----------------------------------------------------------------

    def begin(self, name: str) -> dict:
        rec = {
            "name": name,
            "start": None,
            "end": None,
            "parent": self._open[-1]["id"] if self._open else None,
            "op": self.op_id,
            "id": len(self.spans),
            "child": 0.0,
            "leaves": {},  # leaf key -> [count, total_s, self_s, extra]
        }
        self.spans.append(rec)
        self._open.append(rec)
        self._aggs.append(rec["leaves"])
        self._frames.append(0.0)
        rec["start"] = perf_counter()
        return rec

    def end(self, rec: dict) -> None:
        rec["end"] = perf_counter()
        rec["child"] = self._frames.pop()
        self._frames[-1] += rec["end"] - rec["start"]
        self._open.pop()
        self._aggs.pop()

    def _span(self, fn, label, extra=None):
        def wrapper(*args, **kwargs):
            if extra is not None:
                self.counters[label] = self.counters.get(label, 0) + extra(args, kwargs)
            rec = self.begin(label)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(rec)

        return wrapper

    # -- leaves ---------------------------------------------------------------

    def _leaf(self, fn, label, keys=None, extra=None):
        frames, aggs_stack, clock = self._frames, self._aggs, perf_counter

        def wrapper(*args, **kwargs):
            frames.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = frames.pop()
                frames[-1] += dt
                key = label if keys is None else keys.get(type(args[0]), label)
                aggs = aggs_stack[-1]
                agg = aggs.get(key)
                if agg is None:
                    agg = aggs[key] = [0, 0.0, 0.0, 0]
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - child
                if extra is not None:
                    agg[3] += extra(args)

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        self.missing = []
        for path, label in {**SPANS, **LEAVES}.items():
            module_name, attr = path.rsplit(".", 1)
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.missing.append(path)
                continue
            original = getattr(module, attr)
            if path in SPANS:
                extra = _lp_cells if label == "blackwell.linprog" else None
                wrapped = self._span(original, label, extra)
            elif label == "cost.eval_cost":
                keys = _class_keys("infocost.cost", COST_FAMILIES, label)
                wrapped = self._leaf(original, label, keys, extra=lambda a: a[1].n_signals)
            elif label == "divergence.unified":
                keys = _class_keys("infocost.divergence", BRANCHES, label)
                wrapped = self._leaf(original, label, keys)
            else:
                wrapped = self._leaf(original, label)
            setattr(module, attr, wrapped)
            self._patched.append((module, attr, original))

    def remove(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def dump(self) -> dict:
        """Spans with self time, plus the leaf aggregates over all spans, ready for JSON."""
        leaves: dict[str, list] = {}
        for s in self.spans:
            for key, agg in s["leaves"].items():
                total = leaves.setdefault(key, [0, 0.0, 0.0, 0])
                for i, x in enumerate(agg):
                    total[i] += x
        spans = [
            {
                "name": s["name"],
                "start": s["start"],
                "end": s["end"],
                "parent": s["parent"],
                "op": s["op"],
                "self": s["end"] - s["start"] - s["child"],
                "leaves": s["leaves"],
            }
            for s in self.spans
        ]
        return {"spans": spans, "leaves": leaves, "counters": self.counters, "missing": self.missing}


def summarize(dump: dict, stats: dict, out_bytes_mean: float, overhead_frac: float) -> dict:
    """Per-layer metrics from one traced run, as {name: (value, unit)}.

    Counts are per op or per call of the layer that makes them, so they do not
    depend on how many traced cycles fit in the run.
    """
    by: dict[str, list] = {}
    for s in dump["spans"]:
        b = by.setdefault(s["name"], [0, 0.0, 0.0])
        b[0] += 1
        b[1] += s["end"] - s["start"]
        b[2] += s["self"]
    leaves = dump["leaves"]

    def span(name):
        return by.get(name, [0, 0.0, 0.0])

    def leaf(prefix, field):
        return sum(v[field] for k, v in leaves.items() if k == prefix or k.startswith(prefix + "."))

    def under(span_names, prefix):
        return sum(
            v[0]
            for s in dump["spans"]
            if s["name"] in span_names
            for k, v in s["leaves"].items()
            if k.startswith(prefix)
        )

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    n_ops, op_time, cli_self = span("cli.main")
    solve, claim1 = span("ri_solver.solve"), span("ri_solver.claim1_region")
    suite, axiom = span("axioms.run_suite"), span("axioms.check_axiom")
    dom, lp, pair = span("blackwell.dominates"), span("blackwell.linprog"), span("blackwell.pairwise_dominates")
    sandwich, coarsen = span("approx.sandwich_report"), span("approx.coarsen")
    evals, eval_time = leaf("cost.eval_cost", 0), leaf("cost.eval_cost", 1)
    samples = leaf("axioms.sample", 0)
    exp_time = leaf("experiment", 1)
    post_n, post_time = leaf("experiment.posteriors", 0), leaf("experiment.posteriors", 1)

    m = {
        "ri_solver.cost_evals_per_solve": (ratio(under({"ri_solver.solve"}, "cost.eval_cost"), solve[0]), "count"),
        "ri_solver.self_share": (ratio(solve[2] + claim1[2], op_time), "frac"),
        "ri_solver.solve_ms_mean": (ratio(solve[1], solve[0], 1e3), "ms"),
        "ri_solver.ref_gap_max": (stats.get("ri_solver.ref_gap_max", 0.0), "abs"),
        "cost.eval_calls": (ratio(evals, n_ops), "count"),
        "cost.eval_us_mean": (ratio(eval_time, evals, 1e6), "us"),
        "cost.eval_share": (ratio(eval_time, solve[1] + suite[1]), "frac"),
        "cost.signals_mean": (ratio(leaf("cost.eval_cost", 3), evals), "count"),
    }
    for family in COST_FAMILIES.values():
        key = f"cost.eval_cost.{family}"
        m[f"cost.eval_us.{family}"] = (ratio(leaf(key, 1), leaf(key, 0), 1e6), "us")
    for branch in BRANCHES.values():
        key = f"divergence.unified.{branch}"
        m[f"divergence.unified_us.{branch}"] = (ratio(leaf(key, 1), leaf(key, 0), 1e6), "us")
    m.update(
        {
            "divergence.extended_us_mean": (ratio(leaf("divergence.extended", 1), leaf("divergence.extended", 0), 1e6), "us"),
            "divergence.posterior_us_mean": (ratio(leaf("divergence.posterior", 1), leaf("divergence.posterior", 0), 1e6), "us"),
            "divergence.posterior_calls": (ratio(leaf("divergence.posterior", 0), n_ops), "count"),
            "experiment.op_us_mean": (ratio(exp_time - post_time, leaf("experiment", 0) - post_n, 1e6), "us"),
            "experiment.posteriors_us_mean": (ratio(post_time, post_n, 1e6), "us"),
            "experiment.share": (ratio(exp_time, op_time), "frac"),
            "axioms.samples": (ratio(samples, suite[0]), "count"),
            "axioms.evals_per_sample": (ratio(under({"axioms.run_suite", "axioms.check_axiom"}, "cost.eval_cost"), samples), "count"),
            "axioms.self_share": (ratio(suite[2] + axiom[2] + leaf("axioms.sample", 2), op_time), "frac"),
            "blackwell.dominates_ms_mean": (ratio(dom[1], dom[0], 1e3), "ms"),
            "blackwell.lp_build_ms_mean": (ratio(dom[1] - lp[1], dom[0], 1e3), "ms"),
            "blackwell.linprog_ms_mean": (ratio(lp[1], lp[0], 1e3), "ms"),
            "blackwell.linprog_share": (ratio(lp[1], dom[1]), "frac"),
            "blackwell.lp_cells_mean": (ratio(dump["counters"].get("blackwell.linprog", 0), lp[0]), "count"),
            "blackwell.pairwise_ms_mean": (ratio(pair[1], pair[0], 1e3), "ms"),
            "approx.sandwich_ms_mean": (ratio(sandwich[1], sandwich[0], 1e3), "ms"),
            "approx.coarsen_ms_mean": (ratio(coarsen[1], coarsen[0], 1e3), "ms"),
            "approx.self_share": (ratio(sandwich[2] + coarsen[2], op_time), "frac"),
            "approx.share": (ratio(sandwich[1], op_time), "frac"),
            "cli.self_ms_mean": (ratio(cli_self, n_ops, 1e3), "ms"),
            "cli.out_bytes_mean": (out_bytes_mean, "bytes"),
            "trace.overhead_frac": (overhead_frac, "frac"),
        }
    )
    return m
