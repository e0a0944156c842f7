"""In-memory span recorder for the benchmark's traced mode.

A span is one call into a layer: its name, start and end (perf_counter
seconds), the index of the span open when it started, the trial it belongs
to, and the work counts taken at the same boundary. Spans stay in memory
until `dump` writes them out at the end of a run.

The program is never edited: `instrument` returns (object, attribute,
wrapper) triples that `patched` installs for the traced phase only and then
puts back.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

TRIAL = "trial"

# Layers whose self time the traced mode reports, in pipeline order.
LAYERS = ("models.sample", "graphs.build", "counting.tree", "counting.cyclic",
          "counting.forest", "counting.w", "statistics.assemble")

_MISSING = object()


class Recorder:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    def current(self) -> dict | None:
        return self.spans[self._open[-1]] if self._open else None

    @contextmanager
    def span(self, name: str, trial=None):
        parent = self._open[-1] if self._open else -1
        if trial is None and parent >= 0:
            trial = self.spans[parent]["trial"]
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": parent, "trial": trial, "counts": {}}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, count=None, only_inside: str | None = None):
        """`fn` inside a span; `count(result)` gives the span's work counts.

        With `only_inside`, calls made outside a span of that name pass
        straight through, unrecorded."""
        def wrapper(*args, **kwargs):
            if only_inside is not None:
                cur = self.current()
                if cur is None or cur["name"] != only_inside:
                    return fn(*args, **kwargs)
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
                if count is not None:
                    rec["counts"].update(count(out))
            return out
        return wrapper

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] >= 0:
                covered[s["parent"]] += s["end"] - s["start"]
        return [s["end"] - s["start"] - c for s, c in zip(self.spans, covered)]

    def trial_summary(self) -> list[dict]:
        """Per trial: wall, self time per layer, summed counts, and the share
        of the wall that no layer span accounts for."""
        self_t = self.self_times()
        trials: dict = {}
        for s, st in zip(self.spans, self_t):
            if s["trial"] is None:
                continue
            row = trials.setdefault(repr(s["trial"]), {
                "trial": s["trial"], "wall": 0.0, "self": {}, "counts": {}})
            if s["name"] == TRIAL:
                row["wall"] = s["end"] - s["start"]
                row["unattributed"] = st
            else:
                row["self"][s["name"]] = row["self"].get(s["name"], 0.0) + st
            for key, value in s["counts"].items():
                row["counts"][key] = row["counts"].get(key, 0) + value
        out = list(trials.values())
        for row in out:
            row["unattributed_frac"] = row["unattributed"] / row["wall"]
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh, default=repr)
            fh.write("\n")


@contextmanager
def patched(triples):
    """Set each (obj, attr, value) for the duration, then restore."""
    saved = []
    try:
        for obj, attr, value in triples:
            saved.append((obj, attr, vars(obj).get(attr, _MISSING)))
            setattr(obj, attr, value)
        yield
    finally:
        for obj, attr, old in reversed(saved):
            if old is _MISSING:
                delattr(obj, attr)
            else:
                setattr(obj, attr, old)


def _pair_edges(out) -> dict:
    pair = (out.a, out.b) if hasattr(out, "a") else out
    return {"edges": sum(g.n_edges for g in pair)}


def instrument(rec: Recorder, engine, csbmlab, on_stat=None) -> list[tuple]:
    """Wrappers around the public layer callables one trial goes through.

    `csbmlab` is the imported package; `engine` the CountingEngine in use;
    `on_stat(trial_id, result)` sees every f_tree_stat result.
    Names that `experiments` imported from other modules are patched there
    too, so a sweep's trials are traced as well as the benchmark's own."""
    models, graphs = csbmlab.models, csbmlab.graphs
    counting, statistics, experiments = (
        csbmlab.counting, csbmlab.statistics, csbmlab.experiments)
    correlated = rec.wrap("models.sample", models.sample_correlated, _pair_edges)
    null = rec.wrap("models.sample", models.sample_null, _pair_edges)

    def stat_counts(result) -> dict:
        if on_stat is not None:
            on_stat(rec.current()["trial"], result)
        return {}

    f_stat = rec.wrap("statistics.assemble", statistics.f_tree_stat, stat_counts)
    build = rec.wrap("graphs.build", graphs.Graph.build,
                     only_inside="models.sample")
    host: list = [None]
    pattern_counts = engine.pattern_counts
    two_core = counting.two_core

    def counted_pattern_counts(graph):
        host[0] = graph
        with rec.span("counting.cyclic") as span:
            out = pattern_counts(graph)
            span["counts"]["cyclic_embeddings"] = sum(
                out[k] for k in engine.cyclic_keys)
        host[0] = None
        return out

    def counted_two_core(g):
        core = two_core(g)
        if g is host[0]:
            rec.current()["counts"]["core_vertices"] = core.n_vertices
        return core

    def trial(args):
        with rec.span(TRIAL, trial=tuple(args[:3])):
            return one_trial(args)
    one_trial = experiments._one_trial

    return [
        (models, "sample_correlated", correlated),
        (models, "sample_null", null),
        (experiments, "sample_correlated", correlated),
        (experiments, "sample_null", null),
        (experiments, "_one_trial", trial),
        (statistics, "f_tree_stat", f_stat),
        (experiments, "f_tree_stat", f_stat),
        (graphs.Graph, "build", staticmethod(build)),
        (counting, "two_core", counted_two_core),
        (engine.plan, "count_embeddings", rec.wrap(
            "counting.tree", engine.plan.count_embeddings,
            lambda out: {"tree_embeddings": sum(out.values())})),
        (engine, "pattern_counts", counted_pattern_counts),
        (engine, "forest_counts", rec.wrap("counting.forest", engine.forest_counts)),
        (engine, "w_all_shapes", rec.wrap("counting.w", engine.w_all_shapes)),
    ]
