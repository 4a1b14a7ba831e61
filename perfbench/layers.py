"""Per-layer tracing of lkllt from outside the package.

:func:`install` wraps every module-level function and every method of each
``lkllt`` module, public or private (dunder methods and generator functions
aside), so that each call records a span named ``<module>.<function>`` or
``<module>.<Class>.<method>``.  A function imported into several modules is
one object bound under several names; every binding is replaced, or a layer
would under-count the calls made through the other modules.  Nothing under
``src/`` changes, and :func:`install` returns the function that undoes it.

:func:`layer_metrics` turns the recorded spans into the per-layer metrics.
Busy times sum the outermost spans of a layer over all threads; work counts
come from the arguments or results of the wrapped calls.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
from math import comb
from typing import Callable

import numpy as np

from spans import Recorder, SpanIndex


def _arg(args, kwargs, i, name):
    return kwargs[name] if name in kwargs else args[i]


def _aligned_points(args, kwargs, result) -> int:
    F, G = _arg(args, kwargs, 0, "F"), _arg(args, kwargs, 1, "G")
    return max(F.support_end, G.support_end) - min(F.offset, G.offset)


def _graphs_enumerated(args, kwargs, result) -> int:
    return 2 ** comb(_arg(args, kwargs, 0, "n"), 2)


# span name -> work count of one call; calls not listed count 1
WORK: dict[str, Callable] = {
    "er._isolated_count_block": lambda a, k, r: _arg(a, k, 3, "count"),
    "er.ERPairModel.q_block": lambda a, k, r: _arg(a, k, 2, "count"),
    "er.enumerate_graphs_oracle": _graphs_enumerated,
    "er.iso_exact_pair_stats": _graphs_enumerated,
    "smoothing.pair_stats": lambda a, k, r: _arg(a, k, 2, "replicates"),
    "curie_weiss.cw_exact_pmf": lambda a, k, r: _arg(a, k, 0, "params").n + 1,
    "curie_weiss._q_arrays": lambda a, k, r: int(np.size(_arg(a, k, 0, "w"))),
    "tp.tp_dist": lambda a, k, r: len(r.pmf),
    "metrics.distance": _aligned_points,
    "lk.lk_fuzz": lambda a, k, r: _arg(a, k, 0, "trials"),
    "rgg._ppp": lambda a, k, r: len(r),
}


class _JsonProxy:
    """Stands in for the ``json`` module where lkllt serializes by hand."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


def lkllt_modules() -> list:
    import lkllt

    return [lkllt] + [
        importlib.import_module(f"lkllt.{m.name}") for m in pkgutil.iter_modules(lkllt.__path__)
    ]


def _traced_map_blocks(rec: Recorder, original: Callable) -> Callable:
    """map_blocks whose blocks become child spans of the map_blocks span,
    on whichever thread runs them, with their thread CPU time."""

    def map_blocks(fn, master_seed, replicates):
        parent = rec.current()

        def block(start, count, rng):
            return rec.call("rngutil.block", fn, (start, count, rng), parent=parent, cpu=True)

        return original(block, master_seed, replicates)

    return rec.wrap("rngutil.map_blocks", map_blocks)


def install(rec: Recorder) -> Callable[[], None]:
    """Wrap lkllt for tracing into ``rec``; returns the undo function."""
    modules = lkllt_modules()
    wrappers: dict[int, Callable] = {}
    saved: list[tuple[object, str, object]] = []

    def patch(owner, name, new):
        saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    for mod in modules[1:]:
        short = mod.__name__.split(".", 1)[1]
        for name, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                span = f"{short}.{name}"
                if span == "rngutil.map_blocks":
                    wrappers[id(obj)] = _traced_map_blocks(rec, obj)
                else:
                    wrappers[id(obj)] = rec.wrap(span, obj, WORK.get(span))
            elif inspect.isclass(obj):
                for meth, fn in list(vars(obj).items()):
                    if inspect.isfunction(fn) and not meth.startswith("__"):
                        span = f"{short}.{name}.{meth}"
                        patch(obj, meth, rec.wrap(span, fn, WORK.get(span)))
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and id(obj) in wrappers:
                patch(mod, name, wrappers[id(obj)])
            elif obj is json:
                short = mod.__name__.split(".", 1)[-1]
                patch(mod, name, _JsonProxy(rec.wrap(f"{short}.json.dumps", json.dumps)))
    patch(np, "triu_indices", rec.wrap("numpy.triu_indices", np.triu_indices))

    def undo():
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)

    return undo


ER_SAMPLERS = ("er._gnp", "er._isolated_count_block", "er._triangle_count_block")
ER_TWO_STEP = ("er.iso_q11_two_step", "er.tri_q11_two_step", "er._tri_qm1m1_two_step")
ER_EVALUATORS = ("er.iso_q", "er.tri_q") + ER_TWO_STEP
ER_ORACLES = ("er.enumerate_graphs_oracle", "er.iso_exact_pair_stats")
SERIALIZERS = (
    "report.RateTable.to_csv", "report.RateTable.to_json", "report.fmt", "cli.json.dumps",
)


def layer_metrics(idx: SpanIndex) -> dict[str, tuple[float, str]]:
    """Per-layer metrics computed from one traced pass's spans."""
    graphs = idx.work("er._gnp", "er._isolated_count_block")
    sample_s = idx.busy(*ER_SAMPLERS)
    return {
        "rngutil.blocks": (idx.calls("rngutil.block"), "count"),
        "rngutil.map_s": (idx.busy("rngutil.map_blocks"), "s"),
        "rngutil.wait_s": (idx.waited("rngutil.block"), "s"),
        "er.sample.graphs": (graphs, "count"),
        "er.sample_s": (sample_s, "s"),
        "er.sample.graphs_per_s": (graphs / sample_s if sample_s else 0.0, "1/s"),
        "er.eval.states": (idx.work("er.ERPairModel.q_block"), "count"),
        "er.eval_s": (idx.busy(*ER_EVALUATORS), "s"),
        "er.two_step.calls": (idx.calls(*ER_TWO_STEP), "count"),
        "er.two_step_s": (idx.busy(*ER_TWO_STEP), "s"),
        "er.triu_calls": (idx.calls("numpy.triu_indices"), "count"),
        "er.oracle.graphs": (idx.work(*ER_ORACLES), "count"),
        "er.oracle_s": (idx.busy(*ER_ORACLES), "s"),
        "smoothing.reps": (idx.work("smoothing.pair_stats"), "count"),
        "smoothing.reduce_s": (idx.own_time("smoothing.", "smoothing.pair_stats"), "s"),
        "smoothing.exact_s": (idx.busy("smoothing.exact_pair_stats"), "s"),
        "curie_weiss.law.calls": (idx.calls("curie_weiss.cw_exact_pmf"), "count"),
        "curie_weiss.law.points": (idx.work("curie_weiss.cw_exact_pmf"), "count"),
        "curie_weiss.law_s": (idx.busy("curie_weiss.cw_exact_pmf"), "s"),
        "curie_weiss.q.states": (idx.work("curie_weiss._q_arrays"), "count"),
        "curie_weiss.q_s": (idx.busy("curie_weiss._q_arrays", "curie_weiss.cw_q"), "s"),
        "tp.dist.calls": (idx.calls("tp.tp_dist"), "count"),
        "tp.dist.points": (idx.work("tp.tp_dist"), "count"),
        "tp.dist_s": (idx.busy("tp.tp_dist"), "s"),
        "tp.gaps.calls": (idx.calls("tp.tp_normal_gaps"), "count"),
        "tp.gaps_s": (
            idx.busy("tp.tp_normal_gaps")
            - idx.busy("tp.tp_dist", under=("tp.tp_normal_gaps",)),
            "s",
        ),
        "metrics.distance.calls": (idx.calls("metrics.distance"), "count"),
        "metrics.distance.points": (idx.work("metrics.distance"), "count"),
        "metrics.distance_s": (idx.busy("metrics.distance"), "s"),
        "lattice.smooth.calls": (idx.calls("lattice.smooth_uniform"), "count"),
        "lattice.smooth_s": (idx.busy("lattice.smooth_uniform"), "s"),
        "lk.trials": (idx.work("lk.lk_fuzz"), "count"),
        "lk.draw_s": (idx.busy("lk.random_dist"), "s"),
        "lk.sides_s": (idx.busy("lk.lk_sides"), "s"),
        "rgg.ppp.points": (idx.work("rgg._ppp"), "count"),
        "rgg.ppp_s": (idx.busy("rgg._ppp"), "s"),
        "rgg.conflict_s": (idx.busy("rgg._conflict_masks"), "s"),
        "rgg.mis.calls": (idx.calls("rgg._bnb_mis"), "count"),
        "rgg.mis_s": (idx.busy("rgg._bnb_mis"), "s"),
        "rgg.mis.budget_failures": (idx.errors("rgg._bnb_mis"), "count"),
        "rgg.greedy_s": (idx.busy("rgg._greedy_line"), "s"),
        "rgg.annulus_s": (idx.busy("rgg._annulus_diagnostic"), "s"),
        "report.serialize_s": (idx.busy(*SERIALIZERS), "s"),
    }
