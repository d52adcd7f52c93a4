"""Multimodal bag data model, the on-disk dataset format, and a synthetic generator.

On-disk layout of a dataset directory:

    manifest.json        {"format_version": 3, "bags": [{"id", "label", "split",
                          "cine_shapes", "relevance", "doppler_shapes"}]}, one bag
                          record per line; "relevance" has one entry (null or a
                          number in [0, 1]) per cine shape
    features.bin         every bag's instance values as raw little-endian float64,
                         row-major, back to back in manifest order (per bag: its
                         cine instances, then its doppler instances); offsets
                         follow from the shapes
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

A bag id is a plain file name (no ``/``, ``\\`` or NUL; not empty, ``.`` or
``..``). Every file a loader opens has a fixed name, and ``contained_file``
resolves it once, so a symlink that leads out of the directory is refused.
``load`` checks each distinct shape once per load, reads ``features.bin`` into
one array with one size check and one finite check, and makes every instance a
view of that array.
"""

from __future__ import annotations

import gc
import json
import math
import os
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, UsageError
from .metrics import atomic_file

SPLITS = ("train", "val", "test", "unlabeled")
MODALITIES = ("cine", "doppler")
FORMAT_VERSION = 3
FEATURES = "features.bin"
BAG_FIELDS = frozenset({"id", "label", "split", "cine_shapes", "relevance", "doppler_shapes"})
_LIST, _INT = frozenset({list}), frozenset({int})


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
        features = self.features
        if not (type(features) is np.ndarray and features.dtype == np.float64
                and features.ndim == 1):
            self.features = features = np.asarray(features, dtype=np.float64).reshape(-1)
        self.shape = tuple(map(int, self.shape))
        if math.prod(self.shape) != features.size:
            raise FormatError(
                f"instance shape {list(self.shape)} does not match "
                f"{features.size} feature values"
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
        if (not isinstance(self.id, str) or self.id in ("", ".", "..")
                or "/" in self.id or "\\" in self.id or "\0" in self.id):
            raise FormatError(f"bag id {self.id!r} is not a plain file name")
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
    """Write a dataset directory; see the module docstring for the layout.

    The manifest and the hidden-truth text are built first, so a dataset they
    cannot describe fails before any file is replaced. Then each file
    replaces its previous version atomically, and the manifest goes last, so
    an interrupted save leaves the previous manifest in place.
    """
    records = [{
        "id": bag.id,
        "label": bag.label,
        "split": dataset.split_assignment[bag.id],
        "cine_shapes": [list(inst.shape) for inst in bag.cine_instances],
        "relevance": [inst.relevance for inst in bag.cine_instances],
        "doppler_shapes": [list(inst.shape) for inst in bag.doppler_instances],
    } for bag in dataset.bags]
    lines = ",\n".join(map(json.dumps, records))  # one bag record per line
    manifest = f'{{"format_version": {FORMAT_VERSION}, "bags": [\n{lines}\n]}}\n'
    hidden = None if hidden_truth is None else json.dumps(hidden_truth, indent=1)
    root = Path(dir_path)
    root.mkdir(parents=True, exist_ok=True)
    with atomic_file(root / FEATURES, binary=True) as f:
        for bag in dataset.bags:
            f.write(np.concatenate([inst.features for inst in
                                    bag.cine_instances + bag.doppler_instances], dtype="<f8"))
    if hidden is not None:
        with atomic_file(root / "hidden_truth.json") as f:
            f.write(hidden)
    with atomic_file(root / "manifest.json") as f:
        f.write(manifest)


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


def read_json(path, name):
    """The parsed content of a JSON file; FormatError if it does not parse."""
    try:
        with open(path, "rb") as f:
            return json.loads(f.read())
    except ValueError as exc:  # invalid JSON or invalid UTF-8
        raise FormatError(f"{name} is not valid JSON: {exc}") from exc


def contained_file(root, name, owner, missing=None):
    """``root/name`` as a resolved path string, if it names a regular file.

    ``root`` must be resolved already. The path is resolved in full (symlinks
    followed), so a link to the file, or to a directory on the way, that
    leads out of ``root`` is refused with a FormatError. If the path names
    no regular file (nothing there, a dangling link, a directory), the
    result is None, or with a ``missing`` text the FormatError
    ``"{owner}: {missing} {name!r}"``.
    """
    root = os.fspath(root)
    path = os.path.realpath(os.path.join(root, name))
    if not path.startswith(os.path.join(root, "")):
        raise FormatError(f"{owner}: file {name!r} points outside the directory")
    if os.path.isfile(path):
        return path
    if missing is not None:
        raise FormatError(f"{owner}: {missing} {name!r}")
    return None


def _shape_sizes(entries, owner, field, known):
    """``(shape, value count)`` for each entry of one of a bag's shape lists.

    The types of all dimensions in the list are checked at once, since a
    dimension ``4.0`` or ``true`` would hash like ``4`` or ``1``; then each
    distinct shape is checked once per load and kept in ``known``.
    """
    if not (type(entries) is list and set(map(type, entries)) <= _LIST
            and set(map(type, chain.from_iterable(entries))) <= _INT):
        for entry in checked_json(entries, list, f"{owner} {field}"):
            checked_shape(entry, owner)  # raises for the first entry at fault
    try:
        return [known[shape] for shape in map(tuple, entries)]
    except KeyError:  # a shape not seen before in this load
        for shape in map(tuple, entries):
            if shape not in known:
                known[shape] = (checked_shape(list(shape), owner), math.prod(shape))
        return [known[shape] for shape in map(tuple, entries)]


def _views(modality, values, start, sizes, relevance):
    """Instances of ``modality`` that view consecutive slices of ``values`` from
    ``start`` on, one per ``(shape, size)``, and the index after the last.

    ``load`` has made ``Instance.__post_init__``'s checks for the whole
    dataset already, so the instances are built without it.
    """
    views = []
    for (shape, size), value in zip(sizes, relevance):
        view = object.__new__(Instance)
        view.modality, view.features = modality, values[start:start + size]
        view.shape, view.relevance = shape, value
        views.append(view)
        start += size
    return views, start


def load(dir_path):
    """Read a dataset directory written by :func:`save`.

    Cyclic garbage collection is paused meanwhile (and left as it was after):
    parsing the manifest and building the bags allocate tens of thousands of
    containers but no cycles, so the dozens of collections they would set off
    free nothing.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _load(Path(dir_path).resolve())
    finally:
        if enabled:
            gc.enable()


def _load(root):
    manifest_path = contained_file(root, "manifest.json", "dataset")
    if manifest_path is None:
        raise FormatError(f"no manifest.json under {root}")
    manifest = checked_json(read_json(manifest_path, "manifest.json"), dict, "manifest.json")
    if manifest.get("format_version") != FORMAT_VERSION:
        raise FormatError(f"unsupported format_version {manifest.get('format_version')!r}")

    # the manifest first: every bag's shapes, hence its place in the feature file
    known = {}  # shape tuple -> (shape, value count)
    layout, ends, end = [], [], 0  # per bag: its fields, and where its values end
    for index, rec in enumerate(checked_json(manifest.get("bags", []), list, "manifest bags")):
        bag_id = checked_json(rec, dict, f"manifest bags[{index}]").get("id")
        if not isinstance(bag_id, str):
            raise FormatError(f"bag record without a string id: {rec!r}")
        owner = f"bag {bag_id!r}"
        if not rec.keys() <= BAG_FIELDS:
            raise FormatError(f"{owner}: unknown fields {sorted(rec.keys() - BAG_FIELDS)}")
        cine = _shape_sizes(rec.get("cine_shapes", []), owner, "cine_shapes", known)
        doppler = _shape_sizes(rec.get("doppler_shapes", []), owner, "doppler_shapes", known)
        relevance = rec.get("relevance", [])
        if type(relevance) is not list or len(relevance) != len(cine):
            raise FormatError(f"{owner}: relevance must be a list with one entry per cine "
                              f"shape ({len(cine)}), got {relevance!r}")
        for value in relevance:
            if value is not None and not (type(value) in (int, float) and 0 <= value <= 1):
                raise FormatError(f"{owner}: relevance must be null or a number in [0, 1], "
                                  f"got {value!r}")
        end += sum(map(itemgetter(1), cine)) + sum(map(itemgetter(1), doppler))
        layout.append((bag_id, rec.get("label"), rec.get("split"), cine, relevance, doppler))
        ends.append(end)

    # then the feature file, read straight into one array, which every instance views
    def at_fault(value_index):  # the owner of the bag whose values hold this index
        return f"bag {layout[bisect_right(ends, value_index)][0]!r}"

    first = at_fault(0) if layout else "dataset"
    fpath = contained_file(root, FEATURES, first, "missing feature file")
    values = np.empty(end, dtype="<f8")
    with open(fpath, "rb") as f:
        got, size = f.readinto(values), os.fstat(f.fileno()).st_size
    if got < values.nbytes:
        need = 8 * ends[bisect_right(ends, got // 8)]
        raise FormatError(f"{at_fault(got // 8)}: file {FEATURES!r} holds {got} bytes, but the "
                          f"instance shapes up to this bag need {need} (float64 values)")
    if size > values.nbytes:
        raise FormatError(f"{first}: file {FEATURES!r} holds {size} bytes, but the instance "
                          f"shapes of the {len(layout)} bags in the manifest need "
                          f"{values.nbytes} (float64 values)")
    finite = np.isfinite(values)
    if not finite.all():
        raise FormatError(f"{at_fault(int(np.argmin(finite)))}: file {FEATURES!r} holds "
                          "non-finite feature values")

    bags, assignment, start = [], {}, 0
    for bag_id, label, split, cine, relevance, doppler in layout:
        cine, start = _views("cine", values, start, cine, relevance)
        doppler, start = _views("doppler", values, start, doppler, repeat(None))
        bags.append(Bag(bag_id, cine, doppler, label=label))
        assignment[bag_id] = split
    return Dataset(bags, assignment)


def load_hidden_truth(dir_path):
    """Diagnostics-only side table of true labels for unlabeled bags, or None."""
    path = contained_file(Path(dir_path).resolve(), "hidden_truth.json", "dataset")
    if path is None:
        return None
    raw = read_json(path, "hidden_truth.json")
    if not isinstance(raw, dict) or any(
            isinstance(v, bool) or not isinstance(v, int) for v in raw.values()):
        raise FormatError("hidden_truth.json must map bag ids to integer labels")
    for bag_id, label in raw.items():
        if label not in (0, 1, 2):
            raise FormatError(f"hidden_truth.json: bag {bag_id!r} has label {label}, "
                              "expected 0, 1 or 2")
    return raw


def with_label(bag, label):
    """Copy of a bag with a (pseudo-)label attached."""
    return replace(bag, label=int(label))
