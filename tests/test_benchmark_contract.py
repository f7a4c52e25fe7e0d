"""The benchmark tracer (perfbench/spans.py) patches program functions by
name; renaming or deleting one breaks the benchmark, so it fails here."""

import importlib.util
from pathlib import Path

from coldbundle import moe
from test_moe import _tiny

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _recorder():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.Recorder()


def test_tracer_patches_every_named_function():
    split, x = _tiny()
    original = moe.train_stage3
    rec = _recorder()
    rec.start("t")
    try:
        assert moe.train_stage3 is not original
        moe.train_stage3(split, x, moe.Stage3Config(eta=0.5, epochs=1, batch_size=16))
    finally:
        rec.stop()
    assert moe.train_stage3 is original
    layer = rec.per_layer()
    assert layer["moe.train_stage3_calls"]["value"] == 1
    assert layer["moe.pseudo_triples"]["value"] == round(0.5 * len(split.train_x))
