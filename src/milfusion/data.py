"""Multimodal bag data model, the on-disk dataset format, and a synthetic generator.

On-disk layout of a dataset directory:

    manifest.json        {"bags": [{"id", "label", "split",
                          "instances": [{"modality", "shape", "relevance", "file"}]}],
                          "format_version": 1}
    features/*.bin       raw little-endian float64, row-major, one file per instance
    hidden_truth.json    diagnostics only: true labels of unlabeled bags; never read
                         by any training path

The generator plants a class-conditional mean shift along per-class unit
directions: into a random fraction of each bag's cine instances (identical
shift on every frame, so frame averaging preserves it) and into all doppler
instances. Relevance scores emulate a confident external relevance scorer:
clamp(N(0.95, 0.02)) on planted cine instances, clamp(N(0.05, 0.02)) otherwise.
Labels, bag sizes, noise, relevance values and class directions are drawn from
independent seeded streams, so changing class priors cannot change bag-size
statistics.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, UsageError

SPLITS = ("train", "val", "test", "unlabeled")
MODALITIES = ("cine", "doppler")
FORMAT_VERSION = 1


@dataclass
class Instance:
    """One modality-tagged observation inside a bag.

    ``features`` is flat float64 in row-major order; ``shape`` gives the
    dimensions (cine: frames x height x width; doppler: height x width).
    ``relevance`` is an external view-relevance score in [0, 1], cine only.
    """

    modality: str
    features: np.ndarray
    shape: tuple
    relevance: float | None = None

    def __post_init__(self):
        if self.modality not in MODALITIES:
            raise FormatError(f"unknown modality {self.modality!r}")
        self.features = np.asarray(self.features, dtype=np.float64).reshape(-1)
        self.shape = tuple(int(d) for d in self.shape)
        n = math.prod(self.shape)
        if n != self.features.size:
            raise FormatError(
                f"instance shape {list(self.shape)} does not match "
                f"{self.features.size} feature values"
            )
        if self.relevance is not None and self.modality != "cine":
            raise FormatError("relevance is only allowed on cine instances")

    def __eq__(self, other):
        if not isinstance(other, Instance):
            return NotImplemented
        return (
            self.modality == other.modality
            and self.shape == other.shape
            and self.relevance == other.relevance
            and np.array_equal(self.features, other.features)
        )


@dataclass(eq=True)
class Bag:
    """One study: unordered multimodal instances plus an optional 3-class label."""

    id: str
    cine_instances: list = field(default_factory=list)
    doppler_instances: list = field(default_factory=list)
    label: int | None = None

    def __post_init__(self):
        if len(self.cine_instances) + len(self.doppler_instances) < 1:
            raise FormatError(f"bag {self.id!r} has no instances")
        if self.label is not None and (
                isinstance(self.label, bool) or not isinstance(self.label, (int, np.integer))
                or self.label not in (0, 1, 2)):
            raise FormatError(f"bag {self.id!r} has invalid label {self.label!r}")


@dataclass(eq=True)
class Dataset:
    bags: list
    split_assignment: dict

    def __post_init__(self):
        ids = [b.id for b in self.bags]
        if len(set(ids)) != len(ids):
            raise FormatError("duplicate bag ids")
        if set(ids) != set(self.split_assignment):
            raise FormatError("split assignment does not cover the bags exactly")
        for bag in self.bags:
            split = self.split_assignment[bag.id]
            if split not in SPLITS:
                raise FormatError(f"bag {bag.id!r}: unknown split {split!r}")
            if split == "unlabeled" and bag.label is not None:
                raise FormatError(f"unlabeled bag {bag.id!r} carries a label")
            if split != "unlabeled" and bag.label is None:
                raise FormatError(f"bag {bag.id!r} in split {split!r} has no label")


def iterate_split(dataset, split):
    """Bags of one split in deterministic order (sorted by bag id)."""
    if split not in SPLITS:
        raise UsageError(f"unknown split {split!r}; expected one of {list(SPLITS)}")
    chosen = [b for b in dataset.bags if dataset.split_assignment[b.id] == split]
    return sorted(chosen, key=lambda b: b.id)


# ---------------------------------------------------------------------------
# synthetic generator


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs of the synthetic bag generator. ``seed`` is mandatory.

    ``signal_strength`` may be a single float (both modalities) or a
    {"cine": x, "doppler": y} mapping, e.g. to build datasets where only one
    modality carries the class signal.
    """

    seed: int
    n_labeled: int = 60
    n_val: int = 60
    n_test: int = 60
    n_unlabeled: int = 500
    class_priors: tuple[float, ...] = (1 / 3, 1 / 3, 1 / 3)
    cine_bag_size: tuple[int, ...] = (5, 15)
    doppler_bag_size: tuple[int, ...] = (2, 6)
    cine_shape: tuple[int, ...] = (4, 8, 8)
    doppler_shape: tuple[int, ...] = (12, 16)
    signal_strength: object = 3.0
    relevant_fraction: float = 0.5
    noise_std: float = 1.0

    def signal(self, modality):
        s = self.signal_strength
        if isinstance(s, dict):
            if modality not in s:
                raise ConfigError(f"signal_strength mapping lacks {modality!r}")
            s = s[modality]
        if isinstance(s, bool) or not isinstance(s, (int, float)):
            raise ConfigError(f"signal_strength for {modality} must be a number, got {s!r}")
        return float(s)

    def __post_init__(self):
        if self.seed is None:
            raise ConfigError("seed is required")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for name in ("n_labeled", "n_val", "n_test"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.n_unlabeled < 0:
            raise ConfigError("n_unlabeled must be >= 0")
        priors = np.asarray(self.class_priors, dtype=np.float64)
        if priors.shape != (3,) or np.any(priors < 0) or abs(priors.sum() - 1.0) > 1e-9:
            raise ConfigError(f"class_priors must be 3 nonnegative values summing to 1, got {self.class_priors}")
        for name in ("cine_bag_size", "doppler_bag_size"):
            size = getattr(self, name)
            if len(size) != 2 or size[0] < 0 or size[1] < size[0]:
                raise ConfigError(f"{name} must be a range [lo, hi] with 0 <= lo <= hi, got {size}")
        if self.cine_bag_size[0] + self.doppler_bag_size[0] < 1:
            raise ConfigError("bags could come out empty: both size ranges start at 0")
        if len(self.cine_shape) != 3 or len(self.doppler_shape) != 2:
            raise ConfigError("cine_shape must be 3-D and doppler_shape 2-D")
        if min(self.cine_shape) < 1 or min(self.doppler_shape) < 1:
            raise ConfigError("instance dimensions must be positive")
        if not 0.0 <= self.relevant_fraction <= 1.0:
            raise ConfigError("relevant_fraction must be in [0, 1]")
        if self.noise_std < 0:
            raise ConfigError("noise_std must be >= 0")
        self.signal("cine")
        self.signal("doppler")


def _unit_directions(rng, dim):
    dirs = rng.standard_normal((3, dim))
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def _clamp01(x):
    return float(min(1.0, max(0.0, x)))


def generate_synthetic(config):
    """Build a Dataset plus the hidden-truth side table for unlabeled bags.

    Returns ``(dataset, hidden_truth)`` where ``hidden_truth`` maps unlabeled
    bag ids to their withheld labels (diagnostics only).
    """
    ss = np.random.SeedSequence(config.seed)
    rng_dirs, rng_labels, rng_sizes, rng_select, rng_noise, rng_rel = (
        np.random.default_rng(child) for child in ss.spawn(6)
    )

    frame_dim = config.cine_shape[1] * config.cine_shape[2]
    cine_dirs = _unit_directions(rng_dirs, frame_dim) * config.signal("cine")
    dop_dirs = _unit_directions(rng_dirs, math.prod(config.doppler_shape)) * config.signal("doppler")
    priors = np.asarray(config.class_priors, dtype=np.float64)
    priors = priors / priors.sum()

    counts = {
        "train": config.n_labeled,
        "val": config.n_val,
        "test": config.n_test,
        "unlabeled": config.n_unlabeled,
    }
    bags, assignment, hidden_truth = [], {}, {}
    for split in SPLITS:
        width = max(3, len(str(max(counts[split] - 1, 0))))
        for i in range(counts[split]):
            bag_id = f"{split}_{i:0{width}d}"
            label = int(rng_labels.choice(3, p=priors))
            k_cine = int(rng_sizes.integers(config.cine_bag_size[0], config.cine_bag_size[1] + 1))
            k_dop = int(rng_sizes.integers(config.doppler_bag_size[0], config.doppler_bag_size[1] + 1))
            if k_cine + k_dop == 0:
                k_dop = 1

            n_rel = int(round(config.relevant_fraction * k_cine))
            planted = set(rng_select.choice(k_cine, size=n_rel, replace=False).tolist()) if k_cine else set()

            cine = []
            for k in range(k_cine):
                frames = rng_noise.standard_normal(config.cine_shape) * config.noise_std
                if k in planted:
                    frames += cine_dirs[label].reshape(config.cine_shape[1:])
                    rel = _clamp01(rng_rel.normal(0.95, 0.02))
                else:
                    rel = _clamp01(rng_rel.normal(0.05, 0.02))
                cine.append(Instance("cine", frames.reshape(-1), config.cine_shape, rel))
            doppler = []
            for _ in range(k_dop):
                img = rng_noise.standard_normal(config.doppler_shape) * config.noise_std
                img += dop_dirs[label].reshape(config.doppler_shape)
                doppler.append(Instance("doppler", img.reshape(-1), config.doppler_shape))

            if split == "unlabeled":
                hidden_truth[bag_id] = label
                bags.append(Bag(bag_id, cine, doppler, label=None))
            else:
                bags.append(Bag(bag_id, cine, doppler, label=label))
            assignment[bag_id] = split

    return Dataset(bags, assignment), hidden_truth


# ---------------------------------------------------------------------------
# on-disk format


def save(dataset, dir_path, hidden_truth=None):
    """Write a dataset directory; see the module docstring for the layout."""
    root = Path(dir_path)
    (root / "features").mkdir(parents=True, exist_ok=True)
    records = []
    for bag in dataset.bags:
        inst_records = []
        for j, inst in enumerate(bag.cine_instances + bag.doppler_instances):
            rel_path = f"features/{bag.id}_{j:03d}.bin"
            (root / rel_path).write_bytes(inst.features.astype("<f8").tobytes())
            inst_records.append(
                {
                    "modality": inst.modality,
                    "shape": list(inst.shape),
                    "relevance": inst.relevance,
                    "file": rel_path,
                }
            )
        records.append(
            {
                "id": bag.id,
                "label": bag.label,
                "split": dataset.split_assignment[bag.id],
                "instances": inst_records,
            }
        )
    manifest = {"bags": records, "format_version": FORMAT_VERSION}
    (root / "manifest.json").write_text(json.dumps(manifest, indent=1))
    if hidden_truth is not None:
        (root / "hidden_truth.json").write_text(json.dumps(hidden_truth, indent=1))


def checked_json(value, kind, owner):
    """A manifest entry, checked to be a JSON object (``kind=dict``) or list (``kind=list``)."""
    if not isinstance(value, kind):
        raise FormatError(f"{owner} must be a JSON {'object' if kind is dict else 'list'}, "
                          f"got {type(value).__name__}")
    return value


def checked_shape(shape, owner):
    """A manifest ``shape`` entry, checked to be a list of positive integers."""
    if not (isinstance(shape, list) and all(type(d) is int and d >= 1 for d in shape)):
        raise FormatError(f"{owner}: shape must be a list of positive integers, got {shape!r}")
    return tuple(shape)


def checked_relative_path(rel, owner):
    """A manifest ``file`` entry, checked to name a path inside the manifest's directory.

    A string check (not absolute, no ``..`` component) rather than a
    filesystem ``resolve()``, so loading thousands of files stays cheap.
    """
    if not isinstance(rel, str) or not rel:
        raise FormatError(f"{owner}: file entry must be a non-empty string, got {rel!r}")
    parts = rel.replace("\\", "/").split("/")
    if rel.startswith(("/", "\\")) or ".." in parts:
        raise FormatError(f"{owner}: file {rel!r} points outside the directory")
    return rel


def load(dir_path):
    """Read a dataset directory written by :func:`save`."""
    root = Path(dir_path)
    manifest_path = root / "manifest.json"
    if not manifest_path.is_file():
        raise FormatError(f"no manifest.json under {root}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"manifest.json is not valid JSON: {exc}") from exc
    checked_json(manifest, dict, "manifest.json")
    if manifest.get("format_version") != FORMAT_VERSION:
        raise FormatError(f"unsupported format_version {manifest.get('format_version')!r}")

    bags, assignment = [], {}
    for index, rec in enumerate(checked_json(manifest.get("bags", []), list, "manifest bags")):
        bag_id = checked_json(rec, dict, f"manifest bags[{index}]").get("id")
        if not isinstance(bag_id, str):
            raise FormatError(f"bag record without a string id: {rec!r}")
        owner = f"bag {bag_id!r}"
        entries, offset = [], 0  # (modality, shape, relevance, file, path, start, end)
        for inst in checked_json(rec.get("instances", []), list, f"{owner} instances"):
            modality = checked_json(inst, dict, f"{owner} instance").get("modality")
            if modality not in MODALITIES:
                raise FormatError(f"{owner}: unknown modality {modality!r}")
            shape = checked_shape(inst.get("shape"), owner)
            fpath = root / checked_relative_path(inst.get("file"), owner)
            if not fpath.is_file():
                raise FormatError(f"{owner}: missing feature file {inst.get('file')!r}")
            relevance = inst.get("relevance")
            if relevance is not None and not (type(relevance) in (int, float)
                                              and 0 <= relevance <= 1):
                raise FormatError(f"{owner}: relevance must be null or a number in [0, 1], "
                                  f"got {relevance!r}")
            size = math.prod(shape)
            entries.append((modality, shape, relevance, inst.get("file"), fpath,
                            offset, offset + size))
            offset += size
        # the bag's files read straight into one array, checked finite at once;
        # its instances view slices of it
        values = np.empty(offset, dtype="<f8")
        for *_, file, fpath, start, end in entries:
            with open(fpath, "rb") as f:
                complete = f.readinto(values[start:end]) == 8 * (end - start) and not f.read(1)
            if not complete:
                raise FormatError(f"{owner}: file {file!r} holds {fpath.stat().st_size} bytes "
                                  f"but its shape needs {8 * (end - start)} (float64 values)")
        if not np.isfinite(values).all():
            bad = next(file for *_, file, _, start, end in entries
                       if not np.isfinite(values[start:end]).all())
            raise FormatError(f"{owner}: file {bad!r} holds non-finite feature values")
        cine, doppler = [], []
        for modality, shape, relevance, _, _, start, end in entries:
            instance = Instance(modality, values[start:end], shape, relevance)
            (cine if modality == "cine" else doppler).append(instance)
        bags.append(Bag(bag_id, cine, doppler, label=rec.get("label")))
        assignment[bag_id] = rec.get("split")
    return Dataset(bags, assignment)


def load_hidden_truth(dir_path):
    """Diagnostics-only side table of true labels for unlabeled bags, or None."""
    path = Path(dir_path) / "hidden_truth.json"
    if not path.is_file():
        return None
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"hidden_truth.json is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict) or any(
            isinstance(v, bool) or not isinstance(v, int) for v in raw.values()):
        raise FormatError("hidden_truth.json must map bag ids to integer labels")
    return raw


def with_label(bag, label):
    """Copy of a bag with a (pseudo-)label attached."""
    return replace(bag, label=int(label))
