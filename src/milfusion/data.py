"""Multimodal bag data model, the on-disk dataset format, and a synthetic generator.

On-disk layout of a dataset directory (format version 4):

    manifest.json        {"format_version": 4, "features_sha256": hex digest,
                          "bags": [{"id", "label", "split", "cine_shapes",
                          "doppler_shapes"}]}, one bag record per line; a shape
                          list holds runs [[shape, count], ...] of consecutive
                          instances of one shape
    features.bin         every bag's instance values as raw little-endian float64,
                         row-major, back to back in manifest order (per bag: its
                         cine instances, then its doppler instances; offsets
                         follow from the shapes); then one float64 relevance
                         per cine instance in the same order (NaN for none);
                         then the 32-byte sha256 of everything before it,
                         which the manifest repeats as "features_sha256"
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
A load has two steps. The index step checks the whole dataset: each run once
and each distinct shape once, the size of ``features.bin`` once, its digest
trailer against the manifest's without hashing, the relevance section as a
whole array, then each bag's id, label, instance count and split. The read
step takes a list of bags, reads their values into one array, one
``readinto`` per run of bags that lie back to back in the file, checks their
finiteness as a whole array and builds no ``Instance``: each bag's row
blocks are reshapes of that array. ``load`` reads every bag in the index
step's one ``readinto``; ``read_split`` streams one split, READ_CHUNK bags
per read. ``save`` computes the digest while it writes, so a
``features.bin`` left beside another save's manifest is refused.

A bag holds, per modality, its instances as row blocks ``(modality, shape,
rows)``: ``rows`` is a [count, prod(shape)] float64 array whose rows are the
values of ``count`` consecutive instances of that modality and shape. It also
holds each modality's instance count and one float64 relevance per cine
instance (NaN for none). Its instance lists are read-only tuples of
``Instance`` views of those rows, built on each read.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import stat
import sys
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, groupby, repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, FormatError, UsageError
from .metrics import atomic_file

SPLITS = ("train", "val", "test", "unlabeled")
MODALITIES = ("cine", "doppler")
FORMAT_VERSION = 4
FEATURES = "features.bin"
BAG_FIELDS = frozenset({"id", "label", "split", "cine_shapes", "doppler_shapes"})
DIGEST_BYTES = 32  # the sha256 trailer of features.bin
READ_CHUNK = 32  # bags per read of a streamed split: one inference chunk's worth
_INT = frozenset({int})
_REAL = (int, float, np.integer, np.floating)
_HEX = frozenset("0123456789abcdef")


@dataclass
class Instance:
    """One modality-tagged observation inside a bag.

    ``features`` is flat float64 in row-major order; ``shape`` gives the
    dimensions (cine: frames x height x width; doppler: height x width).
    ``relevance`` is an external view-relevance score in [0, 1], cine only;
    an integer score is stored as a float.
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
        relevance = self.relevance
        if relevance is not None:
            if self.modality != "cine":
                raise FormatError("relevance is only allowed on cine instances")
            if (isinstance(relevance, bool) or not isinstance(relevance, _REAL)
                    or not 0 <= relevance <= 1):  # NaN fails the range test
                raise FormatError(f"relevance must be None or a number in [0, 1], "
                                  f"got {relevance!r}")
            self.relevance = float(relevance)

    def __eq__(self, other):
        if not isinstance(other, Instance):
            return NotImplemented
        return (
            self.modality == other.modality
            and self.shape == other.shape
            and self.relevance == other.relevance
            and np.array_equal(self.features, other.features)
        )


def _stacked(instances):
    """Row blocks of ``instances``: one per run of consecutive equal (modality, shape)."""
    return [(modality, shape, np.stack([inst.features for inst in run]))
            for (modality, shape), run in groupby(instances, key=lambda i: (i.modality, i.shape))]


class Bag:
    """One study: unordered multimodal instances plus an optional 3-class label.

    ``blocks`` maps each modality to its row blocks, ``counts`` to its
    instance count, and ``relevance`` holds the cine instances' relevance
    (module docstring). ``Bag(id, cine_instances, doppler_instances, label)``
    copies the instances' values into blocks; :meth:`from_blocks` keeps the
    blocks it is given.
    """

    def __init__(self, id, cine_instances=(), doppler_instances=(), label=None):
        cine = list(cine_instances)
        relevance = np.array([math.nan if inst.relevance is None else inst.relevance
                              for inst in cine], dtype=np.float64)
        self._fill(id, label, _stacked(cine), _stacked(doppler_instances), relevance)

    @classmethod
    def from_blocks(cls, id, label, cine, doppler, relevance):
        """A bag over the given row blocks and cine relevance array, without copies.

        The blocks and relevance values are taken as valid instances' (``load``
        has checked them); the bag's id, label and size are checked here.
        """
        bag = cls.__new__(cls)
        bag._fill(id, label, cine, doppler, relevance)
        return bag

    def _fill(self, id, label, cine, doppler, relevance):
        self.id, self.label, self.relevance = id, label, relevance
        self.blocks = {"cine": cine, "doppler": doppler}
        self.counts = {modality: sum(len(rows) for _, _, rows in blocks)
                       for modality, blocks in self.blocks.items()}
        _check_bag(id, label, self.counts["cine"] + self.counts["doppler"])

    @property
    def cine_instances(self):
        return self._views("cine")

    @property
    def doppler_instances(self):
        return self._views("doppler")

    def _views(self, modality):
        """The instances of ``modality`` as ``Instance`` views of the bag's rows."""
        relevance = repeat(None)
        if modality == "cine":  # NaN: an instance without a relevance score
            relevance = iter([None if value != value else value
                              for value in self.relevance.tolist()])
        views = []
        for kind, shape, rows in self.blocks[modality]:
            for row, value in zip(rows, relevance):
                # a block's rows are valid instances: Instance.__post_init__ is skipped
                view = object.__new__(Instance)
                view.modality, view.features, view.shape, view.relevance = kind, row, shape, value
                views.append(view)
        return tuple(views)

    def __eq__(self, other):
        if not isinstance(other, Bag):
            return NotImplemented
        return (self.id == other.id and self.label == other.label
                and self.cine_instances == other.cine_instances
                and self.doppler_instances == other.doppler_instances)

    def __repr__(self):
        return (f"Bag(id={self.id!r}, label={self.label!r}, cine={self.counts['cine']}, "
                f"doppler={self.counts['doppler']})")


@dataclass(eq=True)
class Dataset:
    bags: list
    split_assignment: dict

    def __post_init__(self):
        _check_splits([(b.id, b.label) for b in self.bags], self.split_assignment)


def _check_bag(bag_id, label, n_instances):
    """A bag's own invariants: a plain file name as id, an instance, a label 0, 1, 2 or None."""
    if (not isinstance(bag_id, str) or bag_id in ("", ".", "..")
            or "/" in bag_id or "\\" in bag_id or "\0" in bag_id):
        raise FormatError(f"bag id {bag_id!r} is not a plain file name")
    if n_instances < 1:
        raise FormatError(f"bag {bag_id!r} has no instances")
    if label is not None and (
            isinstance(label, bool) or not isinstance(label, (int, np.integer))
            or label not in (0, 1, 2)):
        raise FormatError(f"bag {bag_id!r} has invalid label {label!r}")


def _check_splits(labels, assignment):
    """A dataset's invariants over its bags' ``(id, label)`` pairs and its ``assignment``
    of ids to splits: unique ids, each in one known split, labeled unless unlabeled."""
    ids = [bag_id for bag_id, _ in labels]
    if len(set(ids)) != len(ids):
        raise FormatError("duplicate bag ids")
    if set(ids) != set(assignment):
        raise FormatError("split assignment does not cover the bags exactly")
    for bag_id, label in labels:
        split = assignment[bag_id]
        if split not in SPLITS:
            raise FormatError(f"bag {bag_id!r}: unknown split {split!r}")
        if split == "unlabeled" and label is not None:
            raise FormatError(f"unlabeled bag {bag_id!r} carries a label")
        if split != "unlabeled" and label is None:
            raise FormatError(f"bag {bag_id!r} in split {split!r} has no label")


def _check_split_name(split):
    if split not in SPLITS:
        raise UsageError(f"unknown split {split!r}; expected one of {list(SPLITS)}")


def iterate_split(dataset, split):
    """Bags of one split in deterministic order (sorted by bag id)."""
    _check_split_name(split)
    chosen = [b for b in dataset.bags if dataset.split_assignment[b.id] == split]
    return sorted(chosen, key=lambda b: b.id)


# ---------------------------------------------------------------------------
# synthetic generator


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs of the synthetic bag generator. ``seed`` is mandatory.

    ``signal_strength`` may be a single finite float (both modalities) or a
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
            unknown = [key for key in s if key not in MODALITIES]
            if unknown:
                raise ConfigError(f"signal_strength mapping has unknown keys {unknown}")
            if modality not in s:
                raise ConfigError(f"signal_strength mapping lacks {modality!r}")
            s = s[modality]
        if (isinstance(s, bool) or not isinstance(s, (int, float))
                or not abs(s) <= sys.float_info.max):  # NaN, inf, 10**400
            raise ConfigError(
                f"signal_strength for {modality} must be a finite number, got {s!r}")
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

            n_rel = int(round(config.relevant_fraction * k_cine))
            planted = np.zeros(k_cine, dtype=bool)
            if k_cine:
                planted[rng_select.choice(k_cine, size=n_rel, replace=False)] = True

            # each stream yields its values in instance order, whether drawn whole or per instance
            cine = rng_noise.standard_normal((k_cine, *config.cine_shape)) * config.noise_std
            cine[planted] += cine_dirs[label].reshape(config.cine_shape[1:])
            relevance = np.clip(rng_rel.normal(np.where(planted, 0.95, 0.05), 0.02), 0.0, 1.0)
            doppler = rng_noise.standard_normal((k_dop, *config.doppler_shape)) * config.noise_std
            doppler += dop_dirs[label].reshape(config.doppler_shape)

            if split == "unlabeled":
                hidden_truth[bag_id] = label
            bags.append(Bag.from_blocks(
                bag_id, None if split == "unlabeled" else label,
                [("cine", config.cine_shape, cine.reshape(k_cine, -1))] if k_cine else [],
                [("doppler", config.doppler_shape, doppler.reshape(k_dop, -1))] if k_dop else [],
                relevance))
            assignment[bag_id] = split

    return Dataset(bags, assignment), hidden_truth


# ---------------------------------------------------------------------------
# on-disk format


def _runs(blocks):
    """A modality's instance shapes as runs ``[[shape, count], ...]`` of equal shapes."""
    return [[list(shape), sum(len(rows) for _, _, rows in group)]
            for shape, group in groupby(blocks, key=lambda block: block[1])]


def save(dataset, dir_path, hidden_truth=None):
    """Write a dataset directory; see the module docstring for the layout.

    The manifest's bag records and the hidden-truth text are built first, and
    each bag's values are checked to be finite before they are written, so a
    dataset the format cannot hold fails before any file is replaced. Then
    each file replaces its previous version atomically, and the manifest goes
    last. If the save stops before the manifest lands, the new
    ``features.bin`` sits beside the previous manifest, whose digest it does
    not match, so ``load`` refuses the pair.
    """
    lines = ",\n".join(json.dumps({  # one bag record per line
        "id": bag.id,
        "label": bag.label,
        "split": dataset.split_assignment[bag.id],
        "cine_shapes": _runs(bag.blocks["cine"]),
        "doppler_shapes": _runs(bag.blocks["doppler"]),
    }) for bag in dataset.bags)
    hidden = None if hidden_truth is None else json.dumps(hidden_truth, indent=1)
    root = Path(dir_path)
    digest = hashlib.sha256()
    with atomic_file(root / FEATURES, binary=True) as f:
        for bag in dataset.bags:
            blocks = bag.blocks["cine"] + bag.blocks["doppler"]
            values = np.concatenate([rows for _, _, rows in blocks], axis=None, dtype="<f8")
            if not np.isfinite(values).all():
                raise FormatError(f"bag {bag.id!r}: non-finite feature values; "
                                  f"{FEATURES!r} holds finite values only")
            digest.update(values)
            f.write(values)
        relevance = np.concatenate([np.empty(0), *(bag.relevance for bag in dataset.bags)],
                                   dtype="<f8")
        digest.update(relevance)
        f.write(relevance)
        f.write(digest.digest())
    if hidden is not None:
        with atomic_file(root / "hidden_truth.json") as f:
            f.write(hidden)
    with atomic_file(root / "manifest.json") as f:
        f.write(f'{{"format_version": {FORMAT_VERSION}, "features_sha256": '
                f'"{digest.hexdigest()}", "bags": [\n{lines}\n]}}\n')


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
    ``"{owner}: {missing} {name!r}"``; any other OS refusal raises its OSError.
    """
    root = os.fspath(root)
    path = os.path.realpath(os.path.join(root, name))
    if not path.startswith(os.path.join(root, "")):
        raise FormatError(f"{owner}: file {name!r} points outside the directory")
    try:
        if stat.S_ISREG(os.stat(path).st_mode):
            return path
    except (FileNotFoundError, NotADirectoryError):
        pass
    if missing is not None:
        raise FormatError(f"{owner}: {missing} {name!r}")
    return None


def _shape_runs(runs, bag_id, field, known):
    """``(shape, value count, instance count)`` for each run of one of a bag's shape lists.

    Each run must be ``[shape, count]``: a list of ints and an int count >= 1.
    The dimension types are checked on every run, since a dimension ``4.0``
    or ``true`` would hash like ``4`` or ``1``; then each distinct shape is
    checked once per load and kept in ``known``.
    """
    sized = []
    for run in checked_json(runs, list, f"bag {bag_id!r} {field}"):
        if not (type(run) is list and len(run) == 2 and type(run[0]) is list
                and set(map(type, run[0])) <= _INT and type(run[1]) is int and run[1] >= 1):
            raise FormatError(f"bag {bag_id!r}: a {field} run must be [shape, count] with a list of "
                              f"positive integers and a count >= 1, got {run!r}")
        shape, count = run
        key = tuple(shape)
        if key not in known:
            known[key] = (checked_shape(shape, f"bag {bag_id!r}"), math.prod(key))
        sized.append((*known[key], count))
    return sized


def _blocks(modality, values, start, runs):
    """The row blocks of ``modality`` for ``runs``, from ``values[start]`` on, and the
    index after the last: each run's rows are one reshape."""
    blocks = []
    for shape, size, count in runs:
        stop = start + size * count
        blocks.append((modality, shape, values[start:stop].reshape(count, size)))
        start = stop
    return blocks, start


class BagRecord(NamedTuple):
    """One bag's manifest record, checked, and where its data lie in ``features.bin``:
    its values at float64 indices ``[start, stop)``, its cine instances' relevance at
    ``[cine_start, cine_stop)`` of the relevance section. ``cine`` and ``doppler``
    hold its runs as ``(shape, value count, instance count)``."""

    id: str
    label: int | None
    split: str
    cine: list
    doppler: list
    start: int
    stop: int
    cine_start: int
    cine_stop: int
    n_doppler: int

    @property
    def counts(self):
        """Each modality's instance count, as ``Bag.counts``."""
        return {"cine": self.cine_stop - self.cine_start, "doppler": self.n_doppler}


class _Index(NamedTuple):
    """What the index step of a load found: the checked records, in manifest order,
    and the relevance section, plus every bag's values if it read them too."""

    path: str  # the resolved features.bin
    identity: tuple  # its (device, inode, size, mtime) when it was checked
    records: list
    relevance: np.ndarray
    values: np.ndarray


def _identity(st):
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


def _gc_paused(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with cyclic garbage collection paused, and left as it was after
    (see :func:`load`). Nothing is allocated between the restart and the return,
    which would set off a collection inside the load."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return fn(*args, **kwargs)
    finally:
        if enabled:
            gc.enable()


def load(dir_path):
    """Read every bag of a dataset directory written by :func:`save`, in manifest order.

    The index step checks the whole dataset (see :func:`_index`) and reads
    ``features.bin`` whole, in one ``readinto`` into one array; the read step
    checks the values finite, naming the first bag at fault, and builds each
    bag over that array.

    Cyclic garbage collection is paused meanwhile (and left as it was after):
    parsing the manifest allocates tens of thousands of containers but no
    cycles, so the dozens of collections it would set off free nothing. The
    pause only defers the work on what the load keeps: the first young
    collection after it traverses every tracked object the dataset holds.
    That is why a loaded bag holds a few row blocks and no ``Instance``: a
    920-bag dataset keeps about 6,400 tracked objects, not 15,700.
    """
    return _gc_paused(_load, Path(dir_path).resolve())


def _load(root):
    index = _index(root, with_values=True)
    records = index.records
    bags = _bags(index.relevance, records, _finite(index.values, records))
    return Dataset(bags, {rec.id: rec.split for rec in records})


def read_split(dir_path, split):
    """The bags of one split of a dataset directory, read a chunk at a time.

    The index step checks the whole dataset first, as :func:`load` does, but
    reads only the relevance section and the digest of ``features.bin``; an
    unknown ``split`` is refused after it. The result is a
    :class:`StreamedSplit`: its length and records are known at once, and each
    iteration reads the bags' values, READ_CHUNK bags at a time.
    """
    index = _gc_paused(_index, Path(dir_path).resolve(), with_values=False)
    _check_split_name(split)
    records = sorted((rec for rec in index.records if rec.split == split),
                     key=lambda rec: rec.id)
    return StreamedSplit(index, records)


class StreamedSplit:
    """The bags of one split, in :func:`iterate_split` order, read on each iteration.

    ``records`` holds each bag's :class:`BagRecord` (its ``id``, ``label`` and
    ``counts`` among them), so the split can be sized and inspected without a
    read. Iterating opens ``features.bin``, refuses it if it is not the file the
    index step checked, and reads READ_CHUNK bags at a time: one ``readinto``
    per run of bags that lie back to back in the file, then the finite check,
    which names the first bag at fault, then the bags, built over that chunk's
    array. A bag keeps only its own chunk's array alive. The file is closed
    when the iteration ends, fails or is dropped.
    """

    def __init__(self, index, records):
        self._index, self.records = index, records

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        index, records = self._index, self.records
        with open(index.path, "rb") as f:
            if _identity(os.fstat(f.fileno())) != index.identity:
                raise FormatError(f"dataset: file {FEATURES!r} changed after it was checked; "
                                  "run the command again")
            for start in range(0, len(records), READ_CHUNK):
                chunk = records[start:start + READ_CHUNK]
                yield from _bags(index.relevance, chunk, _finite(_read_values(f, chunk), chunk))


def _index(root, with_values):
    """The index step of a load: every whole-dataset check, in this order.

    The manifest (its version and digest field, then each bag record and its
    runs), the size of ``features.bin``, its digest trailer and relevance
    section, then each bag's id, label and instance count, and the split
    assignment. It reads the relevance section and the digest in one
    ``readinto``; ``with_values``, every bag's values too, in the same one.
    """
    manifest_path = contained_file(root, "manifest.json", "dataset")
    if manifest_path is None:
        raise FormatError(f"no manifest.json under {root}")
    manifest = checked_json(read_json(manifest_path, "manifest.json"), dict, "manifest.json")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format_version {version!r}: this program reads "
                          f"version {FORMAT_VERSION}, which gen-data writes from the seed")
    digest = manifest.get("features_sha256")
    if not (type(digest) is str and len(digest) == 2 * DIGEST_BYTES and set(digest) <= _HEX):
        raise FormatError(f"manifest.json: features_sha256 must be {2 * DIGEST_BYTES} "
                          f"lowercase hex digits, got {digest!r}")

    # the manifest first: every bag's runs, hence its place in the feature file
    known = {}  # shape tuple -> (shape, value count)
    records = []
    end, n_cine = 0, 0  # where the values and the relevance of the bags so far end
    for index, rec in enumerate(checked_json(manifest.get("bags", []), list, "manifest bags")):
        bag_id = checked_json(rec, dict, f"manifest bags[{index}]").get("id")
        if not isinstance(bag_id, str):
            raise FormatError(f"bag record without a string id: {rec!r}")
        if not rec.keys() <= BAG_FIELDS:
            raise FormatError(f"bag {bag_id!r}: unknown fields "
                              f"{sorted(rec.keys() - BAG_FIELDS)}")
        cine = _shape_runs(rec.get("cine_shapes", []), bag_id, "cine_shapes", known)
        doppler = _shape_runs(rec.get("doppler_shapes", []), bag_id, "doppler_shapes", known)
        start, cine_start, n_doppler = end, n_cine, 0
        for _, size, count in cine:
            end += size * count
            n_cine += count
        for _, size, count in doppler:
            end += size * count
            n_doppler += count
        records.append(BagRecord(bag_id, rec.get("label"), rec.get("split"), cine, doppler,
                                 start, end, cine_start, n_cine, n_doppler))

    def at_fault(index, stop):  # the bag whose section ends past this index
        return records[bisect_right([getattr(rec, stop) for rec in records], index)]

    # then the feature file: its size, then the relevance section and the digest
    # (and every value, with_values) read straight into one array
    first = f"bag {records[0].id!r}" if records else "dataset"
    fpath = contained_file(root, FEATURES, first, "missing feature file")
    need = 8 * (end + n_cine) + DIGEST_BYTES
    skip = 0 if with_values else end  # the float64s not read
    with open(fpath, "rb") as f:
        # sized before the array is allocated, so a manifest cannot ask for more memory
        st = os.fstat(f.fileno())
        size = st.st_size
        if size < 8 * end:
            cut = at_fault(size // 8, "stop")
            raise FormatError(f"bag {cut.id!r}: file {FEATURES!r} holds {size} bytes, but the "
                              f"instance shapes up to this bag need {8 * cut.stop} (float64 "
                              "values)")
        if size != need:
            raise FormatError(f"{first}: file {FEATURES!r} holds {size} bytes, but the "
                              f"{len(records)} bags in the manifest need {need} ({end} "
                              f"float64 values, {n_cine} relevance values and a "
                              f"{DIGEST_BYTES}-byte sha256)")
        data = np.empty(need // 8 - skip, dtype="<f8")
        f.seek(8 * skip)
        if f.readinto(data) != 8 * data.size:
            raise FormatError(f"{first}: file {FEATURES!r} shrank while it was read")
    values, relevance, trailer = np.split(data, [end - skip, end - skip + n_cine])
    if trailer.tobytes().hex() != digest:
        raise FormatError(f"dataset: the sha256 at the end of file {FEATURES!r} is not the "
                          "manifest's features_sha256, so the two come from different saves "
                          "(an interrupted one, say); gen-data writes the dataset again")
    # NaN: an instance without a relevance score
    bad = ~(np.isnan(relevance) | ((relevance >= 0) & (relevance <= 1)))
    if bad.any():
        index = int(np.argmax(bad))
        raise FormatError(f"bag {at_fault(index, 'cine_stop').id!r}: file {FEATURES!r} holds "
                          f"relevance {float(relevance[index])!r}, expected a number in [0, 1] "
                          "or NaN for none")

    # then every bag, and the split assignment
    for rec in records:
        _check_bag(rec.id, rec.label, rec.cine_stop - rec.cine_start + rec.n_doppler)
    _check_splits([(rec.id, rec.label) for rec in records],
                  {rec.id: rec.split for rec in records})
    return _Index(fpath, _identity(st), records, relevance, values)


def _read_values(f, records):
    """The values of ``records`` back to back in one array, read from the open
    ``features.bin``: one ``readinto`` per run of bags that lie back to back in it."""
    spans = []  # [start, stop) of the file's float64s to read
    for rec in records:
        if spans and spans[-1][1] == rec.start:
            spans[-1][1] = rec.stop
        else:
            spans.append([rec.start, rec.stop])
    values = np.empty(sum(stop - start for start, stop in spans), dtype="<f8")
    at = 0
    for start, stop in spans:
        f.seek(8 * start)
        if f.readinto(values[at:at + stop - start]) != 8 * (stop - start):
            raise FormatError(f"dataset: file {FEATURES!r} shrank while it was read")
        at += stop - start
    return values


def _finite(values, records):
    """``values``, the values of ``records`` back to back, once checked finite; the
    FormatError names the first bag that holds a NaN or an infinity."""
    with np.errstate(over="ignore"):  # a finite sum proves every value finite, cheaply
        total = np.add.reduce(values)
    if not math.isfinite(total) and not (finite := np.isfinite(values)).all():
        ends = list(accumulate(rec.stop - rec.start for rec in records))
        raise FormatError(f"bag {records[bisect_right(ends, int(np.argmin(finite)))].id!r}: "
                          f"file {FEATURES!r} holds non-finite feature values")
    return values


def _bags(relevance, records, values):
    """The bags of ``records`` over ``values``, their values back to back: each run's
    rows are a reshape of ``values``, each bag's relevance a slice of ``relevance``."""
    bags, start = [], 0
    for rec in records:
        cine, start = _blocks("cine", values, start, rec.cine)
        doppler, start = _blocks("doppler", values, start, rec.doppler)
        bags.append(Bag.from_blocks(rec.id, rec.label, cine, doppler,
                                    relevance[rec.cine_start:rec.cine_stop]))
    return bags


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

