"""The benchmark's per-layer tracer (bench/spans.py) still fits the program.

``spans.install`` wraps milfusion functions by module attribute, so a renamed
binding, or a caller that stops going through the patched one, breaks
``bench/run.py --trace 1`` or makes its per-layer numbers read 0.
"""

import importlib.util
import json
from pathlib import Path

from milfusion import cli

from test_cli import TINY_DATASET, TINY_RUN

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_the_training_step(tmp_path):
    data_cfg = tmp_path / "dataset.json"
    data_cfg.write_text(json.dumps({"dataset": TINY_DATASET}))
    run_cfg = tmp_path / "run.json"
    run_cfg.write_text(json.dumps(TINY_RUN))
    assert cli.main(["gen-data", "--config", str(data_cfg), "--seed", "7",
                     "--out", str(tmp_path / "data")]) == 0

    spans = load_spans()
    tracer = spans.Tracer()
    patches = []
    try:
        spans.install(tracer)  # raises AttributeError on a binding that is gone
        patches = list(tracer._patches)
        assert patches
        for owner, attr, original in patches:
            assert getattr(owner, attr) is not original, f"{owner.__name__}.{attr}"
        with tracer.span("cli.main"):
            assert cli.main(["train", "--config", str(run_cfg), "--data", str(tmp_path / "data"),
                             "--seed", "3", "--out", str(tmp_path / "run")]) == 0
    finally:
        tracer.restore()
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original

    # training steps run through training.bag_step, which the tracer does not
    # wrap yet: the step spans read 0 and the step's time is the trainer's self time
    assert callable(getattr(spans.training, "bag_step"))
    metrics = spans.layer_metrics(tracer)
    for name in ("training.epochs", "training.validation_s", "training.inference_bags",
                 "training.step_self_s"):
        assert metrics[name][0] > 0, name
