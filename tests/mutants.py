"""Named one-line mutants of the program, each with the tests expected to kill it.

A gate that no broken program can fail shows nothing. Each mutant replaces one
exact text in a file under ``src/milfusion`` and names the tests that should
fail once it does. ``tests/test_mutants.py`` checks that every old text occurs
exactly once, so the list fails loudly when the code it names moves.

Run from the repository root:

    python tests/mutants.py                     # every mutant
    python tests/mutants.py early_abort_off     # only the named ones

For each mutant the script copies ``src/``, ``tests/`` and ``pyproject.toml``
into a temporary directory, applies the mutant there and runs only the
mutant's tests. It first runs the union of those tests on the unmutated copy
and stops if any fails. It prints one JSON list: per mutant its name, its
tests and its status, ``killed`` (some test failed), ``survived`` (every test
passed) or ``error`` (pytest could not run them; its exit code is included).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "milfusion"


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/milfusion
    old: str  # occurs exactly once in ``file``
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS = (
    Mutant("kl_term_dropped", "model.py",
           "    r = bag.r", "    r = None",
           ("tests/test_step.py::test_step_is_bitwise_the_taped_step",)),
    Mutant("encoder_tanh_derivative_dropped", "model.py",
           "G = _tanh_backward(y, G)", "G = G",
           ("tests/test_step.py::test_step_is_bitwise_the_taped_step",
            "tests/test_step.py::test_step_on_hand_built_bags")),
    Mutant("selection_reversed", "training.py",
           "key=lambda r: (-r.confidence, r.bag_id)", "key=lambda r: (r.confidence, r.bag_id)",
           ("tests/test_training.py::test_select_confident_matches_brute_force",
            "tests/test_acceptance.py::test_acceptance_4_curriculum_mechanics")),
    Mutant("inference_gate_frozen", "model.py",
           "alpha[both] = ad.logistic(", "alpha[both] = 0.5 + 0 * ad.logistic(",
           ("tests/test_inference.py::test_chunked_inference_matches_taped_forward",)),
    Mutant("pseudo_labels_shifted", "training.py",
           "by_id[b.id].predicted_class)", "(by_id[b.id].predicted_class + 1) % 3)",
           ("tests/test_training.py::test_each_round_trains_on_the_previous_rounds_pseudo_labels",
            "tests/test_training.py::test_curriculum_not_worse_than_supervised",
            "tests/test_acceptance.py::test_acceptance_4_curriculum_mechanics",
            "tests/test_acceptance.py::test_acceptance_5_end_to_end")),
    Mutant("unlabeled_bags_prepared_when_selected", "training.py",
           "    prepared = {bag.id: prepare_bag(model_config, bag) for bag in unlabeled\n"
           "                if bag_branches(model_config, bag) is not None}\n",
           "    class Selected(dict):  # prepares a bag each time a round selects it\n"
           "        def __missing__(self, bag_id):\n"
           "            return prepare_bag(model_config,\n"
           "                               next(b for b in unlabeled if b.id == bag_id))\n"
           "    prepared = Selected()\n",
           ("tests/test_cli.py::test_unlabeled_bag_without_relevance_is_refused_before_any_model",
            "tests/test_training.py::test_curriculum_prepares_each_bag_once")),
    Mutant("early_abort_off", "training.py",
           "elif early_abort_drop is not None and bacc < best[0] - early_abort_drop:",
           "elif False:",
           ("tests/test_training.py::test_early_abort_fires_on_a_drop_beyond_its_threshold",)),
    Mutant("dataset_digest_unchecked", "data.py",
           "if trailer.tobytes().hex() != digest:", "if False:",
           ("tests/test_data.py::"
            "test_save_killed_before_its_manifest_leaves_a_pair_that_load_refuses",)),
    Mutant("checkpoint_digest_unchecked", "model.py",
           "if params_digest(params) != digest:", "if False:",
           ("tests/test_model.py::test_checkpoint_digest_is_checked",
            "tests/test_cli.py::test_corrupt_checkpoint_tensor_exits_2")),
    Mutant("bootstrap_seed_offset_dropped", "metrics.py",
           "seed + block)", "seed)",
           ("tests/test_metrics.py::test_compute_report_matches_oracle_bitwise",)),
    Mutant("aupr_sum_pairwise", "metrics.py",
           "values = np.cumsum(terms, axis=1, out=terms)[:, -1]",
           "values = np.sum(terms, axis=1)",
           ("tests/test_metrics.py::test_one_resample_over_many_thresholds_is_the_point_estimate",
            "tests/test_metrics.py::test_compute_report_matches_oracle_bitwise")),
    Mutant("resample_offset_dropped", "metrics.py",
           "    q -= np.arange(attempts, dtype=np.uint64)[:, None]\n", "",
           ("tests/test_metrics.py::test_bootstrap_matches_two_loop_oracle_bitwise",
            "tests/test_metrics.py::test_compute_report_matches_oracle_bitwise")),
    Mutant("undefined_run_not_carried", "metrics.py",
           "        last = -1  # a run at position 0 continues the carried one\n",
           "        last, run = -1, 0\n",
           ("tests/test_metrics.py::test_bootstrap_redraws_exactly_100_times",)),
    Mutant("duplicate_ids_unchecked", "metrics.py",
           "        ok[0] = False  # then True at each id's first row\n", "",
           ("tests/test_metrics.py::test_prediction_set_validation",
            "tests/test_metrics.py::test_prediction_set_names_the_first_offending_row")),
    Mutant("split_read_one_bag_late", "data.py",
           "spans.append([rec.start, rec.stop])",
           "spans.append([rec.stop, 2 * rec.stop - rec.start])",
           ("tests/test_data.py::test_load_reads_the_bags_of_the_wanted_splits",)),
    Mutant("split_read_not_seeked", "data.py",
           "        f.seek(8 * start)\n", "",
           ("tests/test_data.py::test_load_reads_the_bags_of_the_wanted_splits",)),
    Mutant("split_chunk_finite_check_skipped", "data.py",
           "_finite(_read_values(f, chunk), chunk)",
           "(_read_values(f, chunk) if start else _finite(_read_values(f, chunk), chunk))",
           ("tests/test_streaming.py::test_nan_in_the_last_chunk_is_refused_naming_its_bag",
            "tests/test_streaming.py::test_a_stream_that_stops_early_closes_its_file")),
    Mutant("streamed_bags_retained", "model.py",
           "scored += [ScoredBag(bag.id, bag.label) for bag, _, _ in chunk]",
           "scored += [bag for bag, _, _ in chunk]",
           ("tests/test_streaming.py::test_predict_holds_a_chunk_of_bags_not_the_split",)),
    Mutant("loaded_relevance_one_late", "data.py",
           "relevance[rec.cine_start:rec.cine_stop]))",
           "relevance[rec.cine_start + 1:rec.cine_stop + 1]))",
           ("tests/test_loaded_bags.py::test_loaded_bags_prepare_bitwise_as_rebuilt",
            "tests/test_loaded_bags.py::test_loaded_bag_steps_bitwise_as_rebuilt")),
    Mutant("block_rows_wrong_frame_count", "encoders.py",
           "view /= frames", "view /= len(arrays)",
           ("tests/test_loaded_bags.py::test_loaded_bags_predict_bitwise_as_rebuilt",
            "tests/test_loaded_bags.py::test_loaded_bags_prepare_bitwise_as_rebuilt")),
    Mutant("frame_runs_merged", "encoders.py",
           "key=lambda block: block[1][0])", "key=lambda block: blocks[0][1][0])",
           ("tests/test_encoders.py::test_batched_rows_of_instances_with_different_frame_counts",
            "tests/test_encoders.py::test_rows_of_multi_row_blocks_equal_the_per_instance_rows")),
    Mutant("init_draw_order_reversed", "model.py",
           "    for name, shape in param_specs(config):\n        if name.endswith(\".b\"):",
           "    for name, shape in reversed(param_specs(config)):\n"
           "        if name.endswith(\".b\"):",
           ("tests/test_model.py::test_init_model_values_are_pinned",)),
    Mutant("hand_built_relevance_zero", "data.py",
           "math.nan if inst.relevance is None else inst.relevance",
           "0.0 if inst.relevance is None else inst.relevance",
           ("tests/test_loaded_bags.py::test_loaded_bags_prepare_bitwise_as_rebuilt",
            "tests/test_step.py::test_step_raises_what_the_tape_raises[missing_relevance]")),
    Mutant("val_class_unchecked", "training.py",
           "    if missing:\n", "    if False:\n",
           ("tests/test_training.py::"
            "test_val_split_that_cannot_score_every_class_is_refused_before_any_step",
            "tests/test_cli.py::test_val_split_missing_a_class_is_refused_before_training")),
    Mutant("contained_file_swallows_os_errors", "data.py",
           "    except (FileNotFoundError, NotADirectoryError):\n", "    except OSError:\n",
           ("tests/test_cli.py::"
            "test_a_path_the_os_refuses_is_not_a_missing_dataset_or_checkpoint",)),
    Mutant("dual_attention_gradients_summed_out_of_order", "model.py",
           "        gH += _attention_backward(plan.att_b, H, Tb, b, gp * a)\n"
           "        gH += _attention_backward(plan.att_a, H, Ta, a, ga)\n",
           "        gH += _attention_backward(plan.att_a, H, Ta, a, ga)\n"
           "        gH += _attention_backward(plan.att_b, H, Tb, b, gp * a)\n",
           ("tests/test_step.py::test_step_is_bitwise_the_taped_step",)),
    Mutant("step_writes_into_the_relevance_target", "model.py",
           "ga = (r * -lam) / a", "ga = np.multiply(r, -lam, out=r) / a",
           ("tests/test_step.py::test_a_step_repeated_on_one_bag_gives_the_same_bytes",
            "tests/test_loaded_bags.py::"
            "test_training_writes_into_no_array_of_the_loaded_bags")),
    Mutant("out_path_unchecked", "cli.py",
           "        except (FileNotFoundError, NotADirectoryError):\n", "        except OSError:\n",
           ("tests/test_cli.py::test_out_path_the_os_refuses_is_refused_before_any_work",)),
    Mutant("config_keys_unchecked", "cli.py",
           "unknown = sorted(cfg.keys() - _CONFIG_KEYS)", "unknown = []",
           ("tests/test_cli.py::test_unknown_config_keys_are_refused_before_any_work",)),
    Mutant("cine_fallback_unreported", "model.py",
           '            logger.info("bag %s: cine empty, falling back to doppler only", bag.id)\n',
           "            pass\n",
           ("tests/test_cli.py::test_each_degenerate_bag_is_logged_once_per_command",
            "tests/test_inference.py::test_degenerate_bags_over_several_chunks")),
)


def _copy_tree(dest):
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(tree, tests):
    """pytest's exit code for ``tests`` run against the copy in ``tree``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def run(mutants):
    results = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        union = list(dict.fromkeys(t for m in mutants for t in m.tests))
        code = _pytest(tree, union)
        if code != 0:
            raise SystemExit(f"the mutants' tests fail without a mutant (pytest exit {code})")
        for m in mutants:
            path = tree / "src" / "milfusion" / m.file
            original = path.read_text(encoding="utf-8")
            if original.count(m.old) != 1:
                raise SystemExit(f"{m.name}: the old text does not occur exactly once in {m.file}")
            path.write_text(original.replace(m.old, m.new), encoding="utf-8")
            try:
                code = _pytest(tree, m.tests)
            finally:
                path.write_text(original, encoding="utf-8")
            status = {0: "survived", 1: "killed"}.get(code, "error")
            row = {"name": m.name, "tests": list(m.tests), "status": status}
            if status == "error":
                row["pytest_exit"] = code
            results.append(row)
    return results


def main(argv):
    known = {m.name: m for m in MUTANTS}
    unknown = [name for name in argv if name not in known]
    if unknown:
        raise SystemExit(f"unknown mutants: {unknown}; known: {sorted(known)}")
    chosen = [known[name] for name in argv] if argv else list(MUTANTS)
    print(json.dumps(run(chosen), indent=1))


if __name__ == "__main__":
    main(sys.argv[1:])
