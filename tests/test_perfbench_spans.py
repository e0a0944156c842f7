"""The benchmark's traced mode still finds every layer of the program.

`perfbench/spans.py` wraps the program's public layer callables at run time;
a renamed or bypassed callable would silently drop its span or counter. This
installs the wrappers on an ℵ=4 engine, runs one toy trial through them, and
checks that every layer and counter the benchmark reports was recorded.
"""

import importlib.util
import os

import csbmlab
from csbmlab.counting import counting_engine
from csbmlab.experiments import trial_generator
from csbmlab.models import ModelParams

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrument_records_every_layer_and_counter():
    spans = load_spans()
    rec = spans.Recorder()
    stats = []
    engine = counting_engine(4)
    wrappers = spans.instrument(rec, engine, csbmlab,
                                lambda trial, result: stats.append(result))
    params = ModelParams(n=60, lam=3.0, k=2, eps=0.3, s=0.9)
    with spans.patched(wrappers):
        with rec.span(spans.TRIAL, trial=(0, 0, 0)):
            rng = trial_generator(5, 0, 0, 0)
            pair = csbmlab.models.sample_correlated(params, rng)
            csbmlab.statistics.f_tree_stat(pair.a, pair.b, params, 4,
                                           method="sparse", rng=rng)
    [trial] = rec.trial_summary()
    assert set(spans.LAYERS) <= set(trial["self"])
    assert {"tree_embeddings", "core_vertices", "cyclic_embeddings"} <= set(trial["counts"])
    assert trial["counts"]["core_vertices"] > 0
    assert len(stats) == 1
    # the wrappers are gone again
    assert "pattern_counts" not in vars(engine)
