#!/usr/bin/env python3
"""Benchmark of the milfusion command-line pipeline.

    python3 bench/run.py --workload curriculum --seed 7 --seconds 22 --trace 0
    python3 bench/run.py --workload all

Each workload sets up its inputs from ``--seed`` (the dataset seed, also passed
to every command), then runs its timed CLI commands in-process, one after the
other (closed loop, one caller), for about ``--seconds`` seconds of command
time and at least once. Every command's artifacts are checked. The last line
of standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``). See bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".bench_work"

WORKLOADS = ("curriculum", "bootstrap_eval", "scoring")
DEFAULT_SEED = 7
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 150
# patience == max_epochs turns early stopping off: every round trains exactly
# this many epochs, so the work of a run does not depend on the epoch at which
# the seed's dataset happens to saturate validation accuracy.
TRAIN_EPOCHS = 6
TRAIN_CONFIG = {"train": {"max_epochs": TRAIN_EPOCHS, "patience": TRAIN_EPOCHS}}
# Sized so that a run of --seconds 22 holds three or more passes of eval and
# of predict + eval: the median of several passes spreads less from run to
# run than a single pass on a machine whose speed drifts.
BOOTSTRAP_N_BOOT = 2000
SCORING_BAGS = 800
SCORING_N_BOOT = 100
# The generator draws the splits in the order train, val, test, unlabeled,
# so every config below has the default dataset's train, val and test bags,
# and every checkpoint trained in a set-up is the default one.
DATASET_CONFIGS = {
    "curriculum": {"dataset": {}},
    "bootstrap_eval": {"dataset": {"n_unlabeled": 0}},
    "scoring": {"dataset": {"n_test": SCORING_BAGS, "n_unlabeled": 0}},
}


class SetupError(Exception):
    """A workload's set-up did not complete."""


def import_program():
    """Put the checkout's ``src`` on the path and import the CLI and the checks."""
    sys.path.insert(0, str(ROOT / "src"))
    global checks, cli, spans
    import checks
    import spans
    from milfusion import cli


# ---------------------------------------------------------------------------
# set-up


def setup_commands(workload, seed, setup_dir):
    data = str(setup_dir / "data")
    gen_data = ["gen-data", "--config", str(setup_dir / "dataset.json"),
                "--seed", str(seed), "--out", data]
    if workload == "curriculum":
        return [gen_data]
    # the other two workloads score a checkpoint trained in their set-up
    return [gen_data, ["train", "--config", str(setup_dir / "train.json"),
                       "--seed", str(seed), "--data", data,
                       "--out", str(setup_dir / "train")]]


def setup(workload, seed, setup_dir, tracer=None):
    """Run the workload's set-up commands in this process.

    Returns the seconds ``gen-data`` took and the number of bags it wrote.
    """
    setup_dir.mkdir(parents=True, exist_ok=True)
    (setup_dir / "train.json").write_text(json.dumps(TRAIN_CONFIG))
    (setup_dir / "dataset.json").write_text(json.dumps(DATASET_CONFIGS[workload]))
    gen_data_s = None
    for argv in setup_commands(workload, seed, setup_dir):
        seconds, rc, _ = timed_command(argv, tracer)
        if rc != 0:
            raise SetupError(f"set-up command {argv[0]} exited with {rc}")
        if argv[0] == "gen-data":
            gen_data_s = seconds
    manifest = json.loads((setup_dir / "data" / "manifest.json").read_text())
    return {"gen_data_s": gen_data_s, "bags": len(manifest["bags"])}


def setup_child(workload, seed, setup_dir):
    """Body of a set-up process; prints its timings as JSON.

    ``setup_s`` runs from before the program is imported to the end of set-up.
    """
    start = time.perf_counter()
    import_program()
    result = setup(workload, seed, setup_dir)
    result["setup_s"] = time.perf_counter() - start
    print(json.dumps(result))
    return 0


def run_setup(workload, seed, setup_dir):
    """One set-up in a fresh process, so its memory stays out of this one's peak."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-into", str(setup_dir),
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SetupError(f"set-up of {workload} failed ({proc.returncode}):\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# timed commands


def timed_command(argv, tracer=None):
    """Run one CLI command in-process; returns (seconds, exit status, warnings).

    With a tracer, the program's layers are wrapped for this command only.
    """
    warnings = checks.WarningCapture()
    program_logger = logging.getLogger("milfusion")
    program_logger.addHandler(warnings)
    if tracer is not None:
        spans.install(tracer)
    gc.collect()  # so that the garbage of the last command is not collected in this one
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            try:
                if tracer is None:
                    rc = cli.main(argv)
                else:
                    with tracer.span("cli.main"):
                        rc = cli.main(argv)
            except Exception:  # a crash counts as a failed operation
                traceback.print_exc()
                rc = "exception"
            seconds = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.restore()
        program_logger.removeHandler(warnings)
    return seconds, rc, warnings


def split_ids(data_dir, split):
    manifest = json.loads((Path(data_dir) / "manifest.json").read_text())
    return [b["id"] for b in manifest["bags"] if b["split"] == split]


def pass_steps(workload, seed, setup_dir, pass_dir):
    """The workload's timed commands, each with the check of its artifacts.

    A check takes the command's ``checks.WarningCapture`` and returns (result
    fields, balanced accuracy or None, units of work done or None); it raises
    ``checks.CheckError``. The unit of work is the workload's: a bag's pass
    through the model for ``curriculum`` (a training step counts two, its
    forward and its backward pass), a bootstrap resample for
    ``bootstrap_eval``, a scored bag for ``scoring``.
    """
    s = str(seed)
    data = setup_dir / "data"
    checkpoint = setup_dir / "train" / "checkpoint"

    if workload == "curriculum":
        out = pass_dir / "ssl"

        def check_ssl(warnings):
            from milfusion.data import iterate_split, load
            from milfusion.metrics import balanced_accuracy
            from milfusion.training import predictions_for

            rounds = checks.check_rounds(out / "rounds.jsonl", warnings.early_abort_logged())
            model, digest = checks.check_checkpoint(out / "checkpoint")
            dataset = load(data)
            bacc = balanced_accuracy(predictions_for(model, iterate_split(dataset, "test")))
            checks.check_accuracy(bacc)
            # Each round trains TRAIN_EPOCHS epochs over the labeled bags plus the
            # ones it selected, validating after every epoch; every round after
            # the first pseudo-labels all unlabeled bags first. An early abort
            # makes fewer rounds.
            n = {split: len(iterate_split(dataset, split))
                 for split in ("train", "val", "unlabeled")}
            passes = sum(TRAIN_EPOCHS * (2 * (n["train"] + r["selected_count"]) + n["val"])
                         for r in rounds) + (len(rounds) - 1) * n["unlabeled"]
            return {"rounds": rounds, "params_digest": digest}, bacc, passes

        return [("ssl", ["ssl", "--config", str(setup_dir / "train.json"), "--seed", s,
                         "--data", str(data), "--out", str(out)], check_ssl)]

    if workload == "bootstrap_eval":
        out = pass_dir / "eval"

        def check_eval(warnings):
            bacc, digest = checks.check_report(out / "report.json", len(split_ids(data, "test")))
            checks.check_accuracy(bacc)
            return {"report_sha256": digest}, bacc, len(checks.REPORT_BLOCKS) * BOOTSTRAP_N_BOOT

        return [("eval", ["eval", "--checkpoint", str(checkpoint), "--data", str(data),
                          "--split", "test", "--seed", s, "--n-boot", str(BOOTSTRAP_N_BOOT),
                          "--out", str(out)], check_eval)]

    # scoring: the test split was drawn with the checkpoint's dataset seed, so
    # its planted class directions are the ones the checkpoint learned
    predictions = pass_dir / "predict" / "predictions.csv"
    out = pass_dir / "eval"

    def check_predict(warnings):
        ids = split_ids(data, "test")
        return ({"predictions_sha256": checks.check_predictions(predictions, ids)}, None,
                SCORING_BAGS)

    def check_eval(warnings):
        bacc, digest = checks.check_report(out / "report.json", SCORING_BAGS)
        checks.check_accuracy(bacc)
        return {"report_sha256": digest}, bacc, None

    return [
        ("predict", ["predict", "--checkpoint", str(checkpoint), "--data", str(data),
                     "--split", "test", "--seed", s, "--out", str(predictions.parent)],
         check_predict),
        ("eval", ["eval", "--predictions", str(predictions), "--seed", s,
                  "--n-boot", str(SCORING_N_BOOT), "--out", str(out)], check_eval),
    ]


def run_pass(workload, seed, setup_dir, pass_dir, tracer=None):
    """One closed-loop pass over the workload's commands.

    Returns a dict: per-command seconds, result fields, balanced accuracy,
    units of work, attempted and failed operation counts. An operation is one command plus
    the check of its output; after a failure the remaining commands of the
    pass depend on missing artifacts and count as failed without running.
    """
    steps = pass_steps(workload, seed, setup_dir, pass_dir)
    result = {"seconds": {}, "fields": {}, "accuracy": None, "work": 0,
              "attempted": len(steps), "failed": 0}
    for index, (name, argv, check) in enumerate(steps):
        seconds, rc, warnings = timed_command(argv, tracer)
        result["seconds"][name] = seconds
        try:
            if rc != 0:
                raise checks.CheckError(f"exit status {rc}")
            fields, accuracy, work = check(warnings)
        except checks.CheckError as exc:
            print(f"{workload}: {name} failed its check: {exc}", file=sys.stderr)
            result["failed"] = len(steps) - index
            break
        result["fields"][name] = fields
        if accuracy is not None:
            result["accuracy"] = accuracy
        if work is not None:
            result["work"] += work
    return result


# ---------------------------------------------------------------------------
# environment


def blas_threads():
    """Thread count of the OpenBLAS that numpy bundles, or None if not found."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(lib_path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(workload, seed, seconds, trace):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": workload,
        "seed": seed,
        "run_seconds": seconds,
        "trace": trace,
    }


# ---------------------------------------------------------------------------
# one workload


def median(values):
    return statistics.median(values) if values else 0.0


def command_metrics(passes, setups):
    """The per-command numbers named in bench/README.md, medians over the run.

    A command the workload does not run reads 0.
    """
    per = {name: median([p["seconds"][name] for p in passes if name in p["seconds"]])
           for name in ("ssl", "eval", "predict")}
    gen_data_s = median([s["gen_data_s"] for s in setups])
    return {
        "ssl_s": (per["ssl"], "s"),
        "eval_s": (per["eval"], "s"),
        "predict_bags_per_s": (SCORING_BAGS / per["predict"] if per["predict"] else 0.0, "1/s"),
        "gen_data_bags_per_s": (setups[0]["bags"] / gen_data_s, "1/s"),
    }


def run_workload(workload, seed, seconds, trace):
    """Set up, run passes of the timed commands, check them; returns the result."""
    work_dir = WORK_ROOT / f"{workload}-{seed}-{os.getpid()}"
    setup_dir = work_dir / "setup"
    passes = []
    try:
        if trace:  # one set-up, in-process, traced for the data layer's writes
            setup_tracer = spans.Tracer()
            setups = [setup(workload, seed, setup_dir, setup_tracer)]
        else:
            setups = []
            for _ in range(SETUP_REPEATS):
                shutil.rmtree(setup_dir, ignore_errors=True)
                setups.append(run_setup(workload, seed, setup_dir))

        tracer = spans.Tracer() if trace else None
        while True:
            pass_dir = work_dir / f"pass{len(passes)}"
            # a traced run brackets its traced pass between two untraced ones
            traced = trace and len(passes) == 1
            passes.append(run_pass(workload, seed, setup_dir, pass_dir,
                                   tracer if traced else None))
            shutil.rmtree(pass_dir, ignore_errors=True)
            walls = [sum(p["seconds"].values()) for p in passes]
            if passes[-1]["failed"] or len(passes) == 3 and trace:
                break
            if not trace and sum(walls) + median(walls) > seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    accuracies = [p["accuracy"] for p in passes if p["accuracy"] is not None]
    rates = [p["work"] / wall for p, wall in zip(passes, walls) if not p["failed"]]
    print("results: " + json.dumps([p["fields"] for p in passes]))

    if trace:
        metrics = spans.layer_metrics(tracer)
        written = spans.layer_metrics(setup_tracer)
        for name in ("data.generate_s", "data.save_s", "data.files_written"):
            metrics[name] = written[name]
        overhead = walls[1] - (walls[0] + walls[2]) / 2 if len(walls) == 3 else 0.0
        metrics["trace_overhead_s"] = (overhead, "s")
    else:
        metrics = {
            "setup_s": (median([s["setup_s"] for s in setups]), "s"),
            "work_per_s": (median(rates), "1/s"),
            "test_balanced_accuracy": (median(accuracies), "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        ran = {"command_s": (median(walls), "s")}
        ran.update({name: metric for name, metric in command_metrics(passes, setups).items()
                    if metric[0]})
        ran["error_rate"] = (failed / attempted, "ratio")
        for name, (value, unit) in {**metrics, **ran}.items():
            print(f"{workload:<15} {name:<24} {value:.6g} {unit}")
        print(f"{workload:<15} set-ups {[round(s['setup_s'], 3) for s in setups]}, "
              f"passes {[round(w, 3) for w in walls]}, operations {attempted}, failed {failed}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_all(seed, seconds, trace):
    """Every workload in turn, each in a fresh process; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: benchmark exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"dataset seed, also passed to every command (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=22,
                        help="command time to measure per run; at least one pass runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: a traced pass between two untraced ones, per-layer metrics")
    parser.add_argument("--setup-into", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.setup_into is not None:
        return setup_child(args.workload, args.seed, args.setup_into)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    try:
        import_program()
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    print("environment: " + json.dumps(environment(args.workload, args.seed,
                                                   args.seconds, args.trace)))
    try:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except (SetupError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
