"""Per-layer tracing for the benchmark, from outside the program.

``Tracer`` replaces module attributes of milfusion with wrappers that record a
span per call: its duration, and the part of it that child spans cover, so a
layer's self time is its duration minus its children. Spans are aggregated in
memory as they close (totals, self times, call counts and, for the functions
whose latency distribution is reported, every duration) and read out once the
traced pass ends.

The wrappers go on the binding each caller uses. ``cli`` and ``training``
import functions with ``from ... import``, so patching ``milfusion.model.forward``
alone would record nothing for a forward made by the trainer; every such copy
is patched as well.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from milfusion import autodiff, cli, data, encoders, metrics, model, pooling, training
from milfusion.errors import MetricError


class Tracer:
    """Open-span stack plus per-name aggregates; patches are undone by ``restore``."""

    def __init__(self):
        self.stack = []  # open spans: [name, seconds covered by children]
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.samples = defaultdict(list)
        self.counts = defaultdict(int)
        self._patches = []

    @property
    def parent(self):
        return self.stack[-1][0] if self.stack else None

    def _close(self, name, duration):
        _, child_s = self.stack.pop()
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child_s
        if self.stack:
            self.stack[-1][1] += duration

    @contextmanager
    def span(self, name):
        self.stack.append([name, 0.0])
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, time.perf_counter() - start)

    def traced(self, fn, name, on_result=None, on_error=None):
        """``fn`` wrapped in a span; ``on_result(parent, duration, args, result)``
        and ``on_error(exc)`` see each call's outcome."""
        def wrapper(*args, **kwargs):
            parent = self.parent
            self.stack.append([name, 0.0])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close(name, time.perf_counter() - start)
                if on_error is not None:
                    on_error(exc)
                raise
            duration = time.perf_counter() - start
            self._close(name, duration)
            if on_result is not None:
                on_result(parent, duration, args, result)
            return result
        return wrapper

    def replace(self, owner, attr, fn):
        """Set ``owner.attr`` to ``fn`` until ``restore``."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, fn)

    def patch(self, owners, attr, name, on_result=None, on_error=None):
        """Wrap ``attr`` on every owner (module or class) that binds it."""
        for owner in owners:
            self.replace(owner, attr, self.traced(getattr(owner, attr), name,
                                                  on_result, on_error))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def install(tracer):
    """Wrap the public functions of every layer the CLI reaches."""
    counts, samples = tracer.counts, tracer.samples

    def instances(dataset):
        return sum(len(b.cine_instances) + len(b.doppler_instances) for b in dataset.bags)

    def on_save(parent, duration, args, result):
        hidden_truth = args[2] if len(args) > 2 else None
        counts["data.files_written"] += instances(args[0]) + 1 + (hidden_truth is not None)

    def on_load(parent, duration, args, result):
        counts["data.files_read"] += instances(result) + 1

    # A bag's tape is read once its caller is done recording on it: after the
    # loss for a training step, after the forward pass for inference.
    def on_forward(parent, duration, args, result):
        if parent != "model.total_loss":  # training forwards are inside total_loss_ms
            samples["model.forward"].append(duration)
            samples["autodiff.tape_nodes"].append(len(result.tape.nodes))

    def on_total_loss(parent, duration, args, result):
        samples["model.total_loss"].append(duration)
        samples["autodiff.tape_nodes"].append(len(result[1].tape.nodes))

    def on_backward(parent, duration, args, result):
        samples["autodiff.backward"].append(duration)

    def on_train(parent, duration, args, result):
        counts["training.epochs"] += len(result[1]["epochs"])

    def on_curriculum(parent, duration, args, result):
        counts["training.rounds"] += len(result[1])

    def on_inference(parent, duration, args, result):
        counts["training.inference_bags"] += len(args[1])

    def on_scored(parent, duration, args, result):
        counts["training.skipped_bags"] += len(args[1]) - len(result)

    def on_pseudo_label(parent, duration, args, result):
        on_inference(parent, duration, args, result)
        on_scored(parent, duration, args, result)

    def on_metric_error(exc):
        if isinstance(exc, MetricError):
            counts["metrics.metric_fn_undefined"] += 1

    tracer.patch([cli, data], "generate_synthetic", "data.generate")
    tracer.patch([cli, data], "save", "data.save", on_save)
    tracer.patch([cli, data], "load", "data.load", on_load)
    tracer.patch([model, encoders], "preprocess", "encoders.preprocess")
    tracer.patch([model, encoders], "encode_rows", "encoders.encode_rows")
    tracer.patch([model, pooling], "attention_pool", "pooling.attention_pool")
    tracer.patch([model, pooling], "supervised_attention_pool",
                 "pooling.supervised_attention_pool")
    tracer.patch([model, pooling], "sa_loss", "pooling.sa_loss")
    tracer.patch([model], "fuse", "model.fuse")
    tracer.patch([model, training], "forward", "model.forward", on_forward)
    tracer.patch([model, training], "total_loss", "model.total_loss", on_total_loss)
    tracer.patch([autodiff, training], "backward", "autodiff.backward", on_backward)
    tracer.patch([model, cli], "save_model", "model.save_model")
    tracer.patch([model, cli], "load_model", "model.load_model")
    tracer.patch([training, cli], "train_supervised", "training.train_supervised", on_train)
    tracer.patch([training, cli], "run_curriculum", "training.run_curriculum", on_curriculum)
    tracer.patch([training, cli], "predictions_for", "training.predictions_for", on_scored)
    tracer.patch([training], "validation_balanced_accuracy", "training.validation",
                 on_inference)
    tracer.patch([training], "pseudo_label", "training.pseudo_label", on_pseudo_label)
    tracer.patch([training], "select_confident", "training.select_confident")
    tracer.patch([metrics.PredictionSet], "subset", "metrics.subset")
    tracer.patch([metrics.SplitMix64], "indices", "metrics.indices")

    # bootstrap_ci receives its metric function as an argument: wrap that too.
    bootstrap_ci = metrics.bootstrap_ci
    signature = inspect.signature(bootstrap_ci)

    def bootstrap_with_traced_metric(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.arguments["metric_fn"] = tracer.traced(
            bound.arguments["metric_fn"], "metrics.metric_fn", on_error=on_metric_error)
        return bootstrap_ci(*bound.args, **bound.kwargs)

    tracer.replace(metrics, "bootstrap_ci",
                   tracer.traced(bootstrap_with_traced_metric, "metrics.bootstrap_ci"))


def _percentile_ms(values, q):
    return float(np.percentile(values, q)) * 1e3 if values else 0.0


def layer_metrics(tracer):
    """Per-layer numbers of one traced pass, as {name: (value, unit)}.

    A layer the workload does not reach reads 0.
    """
    total, self_s, calls = tracer.total_s, tracer.self_s, tracer.calls
    counts, samples = tracer.counts, tracer.samples
    bootstraps = calls["metrics.bootstrap_ci"]
    # every bootstrap_ci call evaluates the point estimate once, then one
    # defined value per resample; the rest of the metric calls were undefined
    defined = calls["metrics.metric_fn"] - counts["metrics.metric_fn_undefined"] - bootstraps
    attempted = calls["metrics.subset"]
    nodes = samples["autodiff.tape_nodes"]
    return {
        "data.generate_s": (total["data.generate"], "s"),
        "data.save_s": (total["data.save"], "s"),
        "data.files_written": (counts["data.files_written"], "count"),
        "data.load_s": (total["data.load"], "s"),
        "data.files_read": (counts["data.files_read"], "count"),
        "encoders.preprocess_calls": (calls["encoders.preprocess"], "count"),
        "encoders.preprocess_s": (total["encoders.preprocess"], "s"),
        "encoders.encode_rows_s": (total["encoders.encode_rows"], "s"),
        "pooling.attention_pool_s": (total["pooling.attention_pool"], "s"),
        "pooling.supervised_attention_pool_s": (total["pooling.supervised_attention_pool"], "s"),
        "pooling.sa_loss_s": (total["pooling.sa_loss"], "s"),
        "model.fuse_s": (total["model.fuse"], "s"),
        "model.forward_calls": (len(samples["model.forward"]), "count"),
        "model.forward_ms.p50": (_percentile_ms(samples["model.forward"], 50), "ms"),
        "model.forward_ms.p99": (_percentile_ms(samples["model.forward"], 99), "ms"),
        "model.total_loss_ms.p50": (_percentile_ms(samples["model.total_loss"], 50), "ms"),
        "model.total_loss_ms.p99": (_percentile_ms(samples["model.total_loss"], 99), "ms"),
        "autodiff.backward_calls": (calls["autodiff.backward"], "count"),
        "autodiff.backward_ms.p50": (_percentile_ms(samples["autodiff.backward"], 50), "ms"),
        "autodiff.backward_ms.p99": (_percentile_ms(samples["autodiff.backward"], 99), "ms"),
        "autodiff.tape_nodes_per_bag": (float(np.median(nodes)) if nodes else 0.0, "count"),
        "model.save_model_s": (total["model.save_model"], "s"),
        "model.load_model_s": (total["model.load_model"], "s"),
        "training.bag_steps": (calls["model.total_loss"], "count"),
        "training.epochs": (counts["training.epochs"], "count"),
        "training.rounds": (counts["training.rounds"], "count"),
        "training.step_self_s": (self_s["training.train_supervised"], "s"),
        "training.validation_s": (total["training.validation"], "s"),
        "training.pseudo_label_s": (total["training.pseudo_label"], "s"),
        "training.inference_bags": (counts["training.inference_bags"], "count"),
        "training.select_confident_s": (total["training.select_confident"], "s"),
        "training.skipped_bags": (counts["training.skipped_bags"], "count"),
        "metrics.bootstrap_ci_s": (total["metrics.bootstrap_ci"], "s"),
        "metrics.subset_s": (total["metrics.subset"], "s"),
        "metrics.indices_s": (total["metrics.indices"], "s"),
        "metrics.metric_fn_s": (total["metrics.metric_fn"], "s"),
        "metrics.resamples_attempted": (attempted, "count"),
        "metrics.resample_yield": (defined / attempted if attempted else 0.0, "ratio"),
        "cli.self_s": (self_s["cli.main"], "s"),
    }
