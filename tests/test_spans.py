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


def tiny_data(tmp_path):
    """The run config file of a tiny dataset generated under ``tmp_path / "data"``."""
    data_cfg = tmp_path / "dataset.json"
    data_cfg.write_text(json.dumps({"dataset": TINY_DATASET}))
    run_cfg = tmp_path / "run.json"
    run_cfg.write_text(json.dumps(TINY_RUN))
    assert cli.main(["gen-data", "--config", str(data_cfg), "--seed", "7",
                     "--out", str(tmp_path / "data")]) == 0
    return run_cfg


def test_tracer_sees_the_training_step(tmp_path):
    run_cfg = tiny_data(tmp_path)

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

    # training steps run through training.prepared_step, which the tracer does not
    # wrap yet: the step spans read 0 and the step's time is the trainer's self time
    metrics = spans.layer_metrics(tracer)
    for name in ("training.epochs", "training.validation_s", "training.inference_bags",
                 "training.step_self_s"):
        assert metrics[name][0] > 0, name


def test_traced_predict_writes_the_untraced_predictions(tmp_path):
    # predict streams its split (data.read_split): it calls no data.load, and the
    # traced predictions_for scores the same bags into the same bytes
    run_cfg = tiny_data(tmp_path)
    data = str(tmp_path / "data")
    assert cli.main(["train", "--config", str(run_cfg), "--data", data, "--seed", "3",
                     "--out", str(tmp_path / "run")]) == 0

    def predict(out):
        assert cli.main(["predict", "--checkpoint", str(tmp_path / "run" / "checkpoint"),
                         "--data", data, "--split", "test", "--seed", "3",
                         "--out", str(tmp_path / out)]) == 0
        return (tmp_path / out / "predictions.csv").read_bytes()

    untraced = predict("untraced")
    spans = load_spans()
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        with tracer.span("cli.main"):
            traced = predict("traced")
    finally:
        tracer.restore()
    assert traced == untraced
    assert tracer.calls["data.load"] == 0
    assert tracer.calls["training.predictions_for"] == 1
    assert tracer.counts["training.skipped_bags"] == 0
