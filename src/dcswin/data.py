"""Dataset manifests, stratified splits, image codecs, and synthesis.

A dataset on disk is a directory of class-named subdirectories holding
binary PPM (P6) / PGM (P5) images or raw tensor files. The manifest is a
JSON file listing classes and records; record ids are class-prefixed
(`<class>/<stem>`) and ordered lexicographically, and every path is
relative to the manifest's directory and stays inside it: `load` rejects
an absolute path or one with a `..` component.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path, PurePath
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ConfigError, FormatError, ShapeError
from .rng import stream
from .serialization import load_tensor

IMAGE_EXTENSIONS = (".ppm", ".pgm", ".dcst")
# images per float64 chunk that `ArrayDataset.fit_normalization` reads
_FIT_CHUNK = 8


@dataclass(frozen=True)
class ManifestRecord:
    id: str
    path: str
    label: str
    tag: Optional[str] = None


@dataclass
class DatasetManifest:
    classes: tuple[str, ...]
    records: tuple[ManifestRecord, ...]
    root: Path

    def __post_init__(self):
        self.classes = tuple(self.classes)
        self.records = tuple(self.records)
        self.root = Path(self.root)
        if len(set(self.classes)) != len(self.classes):
            raise FormatError(f"duplicate class names: {self.classes}")
        seen: set[str] = set()
        for rec in self.records:
            if rec.id in seen:
                raise FormatError(f"duplicate record id {rec.id!r}")
            seen.add(rec.id)
            if rec.label not in self.classes:
                raise FormatError(f"record {rec.id!r} has unknown label "
                                  f"{rec.label!r}")

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def label_index(self, label: str) -> int:
        return self.classes.index(label)

    def ids_by_class(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {name: [] for name in self.classes}
        for rec in self.records:
            out[rec.label].append(rec.id)
        return out

    def save(self, path: Union[str, Path]) -> None:
        payload = {
            "classes": list(self.classes),
            "records": [
                {"id": r.id, "path": r.path, "label": r.label,
                 **({"tag": r.tag} if r.tag is not None else {})}
                for r in self.records
            ],
        }
        Path(path).write_text(json.dumps(payload, indent=2) + "\n",
                              encoding="utf-8")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "DatasetManifest":
        path = Path(path)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as e:  # bad UTF-8 or JSON
            raise FormatError(f"manifest {path} is not valid JSON: {e}") from e
        try:
            if not isinstance(payload, dict):
                raise TypeError(f"the manifest must be an object, got "
                                f"{type(payload).__name__}")
            classes = _json_field(payload, "classes", _is_id_list,
                                  "a list of strings")
            records = tuple(_manifest_record(r, f"records[{i}]")
                            for i, r in enumerate(_json_field(
                                payload, "records", _is_list, "a list")))
        except KeyError as e:
            raise FormatError(f"manifest {path} missing field "
                              f"{e.args[0]!r}") from e
        except (TypeError, ValueError) as e:
            raise FormatError(f"manifest {path} is malformed: {e}") from e
        return cls(classes=tuple(classes), records=records, root=path.parent)


def _manifest_record(r, where: str) -> ManifestRecord:
    if not isinstance(r, dict):
        raise TypeError(f"{where} must be an object, got {type(r).__name__}")
    fields = {name: _json_field(r, name, _is_str, "a string", where)
              for name in ("id", "path", "label")}
    if r.get("tag") is not None:
        fields["tag"] = _json_field(r, "tag", _is_str, "a string", where)
    rel = PurePath(fields["path"])
    if rel.is_absolute() or ".." in rel.parts:
        raise ValueError(f"field '{where}.path' must stay inside the "
                         f"manifest's directory, got {fields['path']!r}")
    return ManifestRecord(**fields)


def scan_image_tree(root: Union[str, Path]) -> DatasetManifest:
    """Build a manifest from class subdirectories; ids are `<class>/<stem>`
    and everything is ordered lexicographically."""
    root = Path(root)
    if not root.is_dir():
        raise FormatError(f"dataset root {root} is not a directory")
    classes = sorted(p.name for p in root.iterdir() if p.is_dir())
    if not classes:
        raise FormatError(f"dataset root {root} has no class subdirectories")
    records: list[ManifestRecord] = []
    for name in classes:
        files = sorted(p for p in (root / name).iterdir()
                       if p.suffix.lower() in IMAGE_EXTENSIONS)
        if not files:
            raise FormatError(f"class directory {root / name} has no images")
        for p in files:
            records.append(ManifestRecord(id=f"{name}/{p.stem}",
                                          path=f"{name}/{p.name}", label=name))
    return DatasetManifest(classes=tuple(classes), records=tuple(records),
                           root=root)


# ---- stratified splitting ---------------------------------------------------

@dataclass
class DatasetSplit:
    labeled: tuple[str, ...]
    unlabeled: tuple[str, ...]
    test: tuple[str, ...]
    seed: int
    train_frac: float
    labeled_frac: float
    audit: dict = field(default_factory=dict)
    manifest: Optional[str] = None

    def save(self, path: Union[str, Path]) -> None:
        payload = {
            "seed": self.seed,
            "train_frac": self.train_frac,
            "labeled_frac": self.labeled_frac,
            "labeled": list(self.labeled),
            "unlabeled": list(self.unlabeled),
            "test": list(self.test),
            "audit": self.audit,
        }
        if self.manifest is not None:
            payload["manifest"] = self.manifest
        Path(path).write_text(json.dumps(payload, indent=2) + "\n",
                              encoding="utf-8")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "DatasetSplit":
        """Read a split written by `save`. The pools must be lists of
        strings, the seed an integer, the fractions numbers and the
        manifest, if there is one, a string; nothing is coerced, and a
        field of the wrong type raises `FormatError` naming it."""
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
            pools = {name: tuple(_json_field(payload, name, _is_id_list,
                                             "a list of strings"))
                     for name in ("labeled", "unlabeled", "test")}
            fracs = {name: float(_json_field(payload, name, _is_number,
                                             "a number"))
                     for name in ("train_frac", "labeled_frac")}
            return cls(**pools, **fracs,
                       seed=_json_field(payload, "seed", _is_integer,
                                        "an integer"),
                       audit=payload.get("audit", {}),
                       manifest=_json_field(payload, "manifest", _is_str,
                                            "a string")
                       if "manifest" in payload else None)
        except (KeyError, TypeError, ValueError, OverflowError,
                RecursionError) as e:
            raise FormatError(f"split file {path} is malformed: {e}") from e


def _is_str(v) -> bool:
    return isinstance(v, str)


def _is_list(v) -> bool:
    return isinstance(v, list)


def _is_id_list(v) -> bool:
    return isinstance(v, list) and all(isinstance(i, str) for i in v)


def _is_integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _json_field(payload: dict, name: str, ok, want: str, where: str = ""):
    """`payload[name]` if `ok` accepts it. A missing key raises `KeyError`
    and a wrong type `TypeError`, both naming the field (prefixed by
    `where`, such as `records[3]`)."""
    label = f"{where}.{name}" if where else name
    if name not in payload:
        raise KeyError(label)
    value = payload[name]
    if not ok(value):
        raise TypeError(f"field {label!r} must be {want}, got "
                        f"{type(value).__name__}")
    return value


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def stratified_split(manifest: DatasetManifest, train_frac: float = 0.8,
                     labeled_frac: float = 0.05, seed: int = 0) -> DatasetSplit:
    """Per-class train/test split, then labeled/unlabeled inside train.

    Every class keeps at least one labeled training sample (tiny labeled
    fractions round up rather than emptying a class). The audit records
    per-class counts for all three pools.
    """
    if not (0.0 < train_frac < 1.0):
        raise ConfigError(f"train_frac must be in (0,1), got {train_frac}")
    if not (0.0 < labeled_frac <= 1.0):
        raise ConfigError(f"labeled_frac must be in (0,1], got {labeled_frac}")
    rng = stream(seed, "split")
    labeled: list[str] = []
    unlabeled: list[str] = []
    test: list[str] = []
    audit: dict = {"per_class": {}, "seed": seed}
    for name, ids in manifest.ids_by_class().items():
        ids = sorted(ids)
        if len(ids) < 2:
            raise ConfigError(f"class {name!r} needs >= 2 samples to split, "
                              f"has {len(ids)}")
        perm = rng.permutation(len(ids))
        shuffled = [ids[i] for i in perm]
        n_train = _round_half_up(train_frac * len(ids))
        n_train = min(max(n_train, 1), len(ids) - 1)
        train_ids = shuffled[:n_train]
        test_ids = shuffled[n_train:]
        n_labeled = _round_half_up(labeled_frac * n_train)
        n_labeled = min(max(n_labeled, 1), n_train)
        labeled.extend(sorted(train_ids[:n_labeled]))
        unlabeled.extend(sorted(train_ids[n_labeled:]))
        test.extend(sorted(test_ids))
        audit["per_class"][name] = {
            "total": len(ids), "train": n_train, "test": len(test_ids),
            "labeled": n_labeled, "unlabeled": n_train - n_labeled,
        }
    audit["totals"] = {
        "labeled": len(labeled), "unlabeled": len(unlabeled), "test": len(test),
    }
    return DatasetSplit(labeled=tuple(labeled), unlabeled=tuple(unlabeled),
                        test=tuple(test), seed=seed, train_frac=train_frac,
                        labeled_frac=labeled_frac, audit=audit)


# ---- image codecs -----------------------------------------------------------

# The six bytes `bytes.isspace` accepts.
_WHITESPACE = b" \t\n\r\x0b\x0c"
# One PNM header field: whitespace and `#` comments (each running to the
# next CR or LF), then the field's token, a run of non-whitespace bytes
# that is empty only where the buffer ends. The magic is followed by three.
_FIELD = rb"(?:[" + _WHITESPACE + rb"]|#[^\n\r]*)*([^" + _WHITESPACE + rb"]*)"
_HEADER = re.compile(_FIELD * 3)


def _read_header(buf: bytes, origin: str) -> tuple[int, int, int, int]:
    """The width, height and maxval that follow the 2-byte magic, and the
    offset just past maxval's token. Errors cite byte offsets."""
    m = _HEADER.match(buf, 2)
    fields = []
    for i, what in enumerate(("width", "height", "maxval"), 1):
        token = m[i]
        if not token:
            raise FormatError(f"{origin}: truncated header: expected {what} "
                              f"at byte {m.start(i)}")
        try:
            fields.append(int(token))
        except ValueError:
            raise FormatError(f"{origin}: bad {what} {token!r} at byte "
                              f"{m.start(i)}") from None
    return (*fields, m.end(3))


def _ppm_view(buf: bytes, origin: str) -> tuple[np.ndarray, int]:
    """Binary PPM (P6) or PGM (P5) -> a read-only [3,H,W] view of the
    samples in `buf` (uint8 below maxval 256, else big-endian uint16, as
    the file stores them), and its maxval; grayscale is broadcast across
    channels. Errors name `origin` and cite byte offsets."""
    magic = buf[:2]
    if magic not in (b"P6", b"P5"):
        raise FormatError(f"{origin}: unsupported magic {magic!r} at byte 0 "
                          "(want binary P6 or P5)")
    channels = 3 if magic == b"P6" else 1
    width, height, maxval, pos = _read_header(buf, origin)
    if width < 1 or height < 1:
        raise FormatError(f"{origin}: non-positive dimensions {width}x{height}")
    if not (0 < maxval < 65536):
        raise FormatError(f"{origin}: maxval {maxval} outside [1, 65535]")
    # a token ends at whitespace or at the end of the buffer
    if pos == len(buf):
        raise FormatError(f"{origin}: missing whitespace after maxval at byte {pos}")
    pos += 1
    dtype = np.dtype(np.uint8) if maxval < 256 else np.dtype(">u2")
    count = width * height * channels
    expected = count * dtype.itemsize
    got = len(buf) - pos
    if got < expected:
        raise FormatError(f"{origin}: raster truncated at byte {pos + got}: "
                          f"wanted {expected} bytes from byte {pos}, got {got}")
    if got > expected:
        raise FormatError(f"{origin}: {got - expected} trailing bytes after "
                          f"raster at byte {pos + expected}")
    samples = np.frombuffer(buf, dtype, count, pos)
    # a sample above maxval would decode above 1; none can be at the
    # dtype's own maximum (255 or 65535), so that common case skips the scan
    if maxval < 256 ** dtype.itemsize - 1 and samples.max() > maxval:
        over = int(np.argmax(samples > maxval))
        raise FormatError(f"{origin}: sample {samples[over]} exceeds maxval "
                          f"{maxval} at byte {pos + over * dtype.itemsize}")
    if channels == 3:
        return samples.reshape(height, width, 3).transpose(2, 0, 1), maxval
    return np.broadcast_to(samples.reshape(1, height, width),
                           (3, height, width)), maxval


def decode_ppm_samples(buf: bytes, origin: str = "<bytes>"
                       ) -> tuple[np.ndarray, int]:
    """Binary PPM (P6) or PGM (P5) -> its samples as [3,H,W] native-endian
    uint8 (maxval below 256) or uint16, and its maxval; grayscale is
    replicated across channels. Errors cite byte offsets."""
    view, maxval = _ppm_view(buf, origin)
    return np.array(view, view.dtype.newbyteorder("="), order="C"), maxval


def _unit(samples: np.ndarray, maxval: int) -> np.ndarray:
    """Integer samples -> C-contiguous float64 values in [0,1]:
    `samples / maxval`. The layout matters: reductions over it sum in
    memory order."""
    out = samples.astype(np.float64, order="C")
    out /= maxval
    return out


def encode_ppm(path: Union[str, Path], img: np.ndarray) -> None:
    """float [3,H,W] in [0,1] -> binary P6 with maxval 255."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 3 or img.shape[0] != 3:
        raise ShapeError(f"encode_ppm expects [3,H,W], got {img.shape}")
    quant = np.clip(np.round(img * 255.0), 0, 255).astype(np.uint8)
    h, w = img.shape[1], img.shape[2]
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(quant.transpose(1, 2, 0).tobytes())


def decode_image(path: Union[str, Path]) -> np.ndarray:
    """Decode one dataset file to float64 [3,H,W] in [0,1]."""
    img, maxval = decode_image_samples(path)
    return img if maxval is None else _unit(img, maxval)


def decode_image_samples(path: Union[str, Path]
                         ) -> tuple[np.ndarray, Optional[int]]:
    """Decode one dataset file to the [3,H,W] values it stores: a PPM/PGM's
    integer samples and maxval, as a read-only view of the file's bytes
    (uint8 below maxval 256, else big-endian uint16), or a `.dcst`
    tensor's float64 values and None. The file is read in one call."""
    if not isinstance(path, Path):  # `Path(path)` re-parses a Path
        path = Path(path)
    suffix = path.suffix.lower()
    if suffix in (".ppm", ".pgm"):
        return _ppm_view(_read_file(path), str(path))
    if suffix == ".dcst":
        arr = np.asarray(load_tensor(path), dtype=np.float64)
        if arr.ndim == 2:
            arr = np.broadcast_to(arr[None], (3,) + arr.shape).copy()
        if arr.ndim != 3 or arr.shape[0] != 3:
            raise FormatError(f"{path}: tensor image must be [3,H,W] or [H,W], "
                              f"got {arr.shape}")
        return np.ascontiguousarray(arr), None
    raise FormatError(f"{path}: unknown image extension {suffix!r} "
                      f"(supported: {', '.join(IMAGE_EXTENSIONS)})")


def _read_file(path: Path) -> bytes:
    """The whole file in one read, sized from its `stat`."""
    with open(path, "rb", buffering=0) as f:
        return f.readall()


# ---- bilinear resize ---------------------------------------------------------

def _axis_coords(dst: int, src: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    scale = src / dst
    x = (np.arange(dst, dtype=np.float64) + 0.5) * scale - 0.5
    x = np.clip(x, 0.0, src - 1.0)
    lo = np.floor(x).astype(np.int64)
    hi = np.minimum(lo + 1, src - 1)
    return lo, hi, x - lo


def resize_bilinear(img: np.ndarray, out_hw: tuple[int, int]) -> np.ndarray:
    """Separable bilinear resize of [C,H,W] (align-corners-false sampling,
    edges clamped). A same-size call returns the input bit-identically."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 3:
        raise ShapeError(f"resize_bilinear expects [C,H,W], got {img.shape}")
    th, tw = int(out_hw[0]), int(out_hw[1])
    if th < 1 or tw < 1:
        raise ShapeError(f"target size ({th},{tw}) must be positive")
    _, h, w = img.shape
    if (th, tw) == (h, w):
        return img.copy()
    lo_y, hi_y, fy = _axis_coords(th, h)
    rows = img[:, lo_y, :] * (1.0 - fy)[None, :, None] + \
        img[:, hi_y, :] * fy[None, :, None]
    lo_x, hi_x, fx = _axis_coords(tw, w)
    out = rows[:, :, lo_x] * (1.0 - fx)[None, None, :] + \
        rows[:, :, hi_x] * fx[None, None, :]
    return np.ascontiguousarray(out)


# ---- in-memory dataset --------------------------------------------------------

class ArrayDataset:
    """Dataset held in memory with per-channel normalization.

    `images` holds the samples the files store, `[N,3,H,W]` uint8 or
    uint16, and `scale` their shared maxval; any other array is held as
    float64 values with `scale` 1.0. `pixels` reads the decoded values,
    `images / scale`. Normalization statistics are fit on an explicit id
    pool (the labeled training pool) and then applied to every sample
    served.
    """

    def __init__(self, ids: Sequence[str], images: np.ndarray,
                 labels: np.ndarray, class_names: Sequence[str],
                 scale: float = 1.0):
        self.ids = list(ids)
        images = np.asarray(images)
        if images.dtype not in (np.uint8, np.uint16):
            images = images.astype(np.float64, copy=False)
        self.images = images
        self.scale = float(scale)
        self.labels = np.asarray(labels, dtype=np.int64)
        self.class_names = tuple(class_names)
        if self.images.ndim != 4 or self.images.shape[0] != len(self.ids) \
                or self.labels.shape != (len(self.ids),):
            raise ShapeError(f"inconsistent dataset arrays: {len(self.ids)} ids, "
                             f"images {self.images.shape}, labels "
                             f"{self.labels.shape}")
        self.index = {sample_id: i for i, sample_id in enumerate(self.ids)}
        self.norm_mean: Optional[np.ndarray] = None
        self.norm_std: Optional[np.ndarray] = None

    @classmethod
    def from_manifest(cls, manifest: DatasetManifest,
                      image_size: Optional[int] = None) -> "ArrayDataset":
        """Load every record, in manifest order, into one `[N,3,H,W]` array.
        `image_size` resizes each image that is not already `image_size`
        square; without it every image must have the first one's shape.

        When every image is a PPM/PGM with one maxval and none is resized,
        the array holds the files' samples (one byte each below maxval
        256) and `scale` is that maxval. A `.dcst` record, a resized image
        or a second maxval makes it float64 values in [0,1] with `scale`
        1.0; the rows already loaded are converted once. Either way the
        array is allocated once, from the first image's shape, so loading
        holds one copy of the images and not a list of them next to a
        stacked copy.

        A PPM/PGM file is read in one call and its header scanned once;
        its raster is viewed in place, so the row assignment is the one
        copy of its samples, and it swaps 16-bit samples into native
        order. A record whose file cannot be read raises `FormatError`
        naming the record."""
        records = manifest.records
        if not records:
            raise FormatError(f"manifest in {manifest.root} has no records")
        images = maxval = None
        for row, rec in enumerate(records):
            path = manifest.root / rec.path
            try:
                img, img_maxval = decode_image_samples(path)
            except OSError as e:
                raise FormatError(f"record {rec.id!r}: cannot read {path}: "
                                  f"{e.strerror or e}") from e
            if image_size is not None and img.shape[1:] != (image_size, image_size):
                if img_maxval is not None:
                    img, img_maxval = _unit(img, img_maxval), None
                img = resize_bilinear(img, (image_size, image_size))
            if images is None:
                images = np.empty((len(records),) + img.shape,
                                  img.dtype.newbyteorder("="))
                maxval = img_maxval
            elif img.shape != images.shape[1:]:
                raise FormatError(
                    f"images disagree on shape: {rec.id!r} is {img.shape} "
                    f"but {records[0].id!r} is {images.shape[1:]}; pass "
                    "image_size to resize")
            if img_maxval != maxval:  # from here on, hold float64 values
                if maxval is not None:
                    images, maxval = _unit(images, maxval), None
                if img_maxval is not None:
                    img = _unit(img, img_maxval)
            images[row] = img
        labels = np.fromiter((manifest.label_index(rec.label)
                              for rec in records), np.int64, len(records))
        return cls((rec.id for rec in records), images, labels,
                   manifest.classes, 1.0 if maxval is None else maxval)

    def rows(self, ids: Sequence[str]) -> np.ndarray:
        try:
            return np.fromiter((self.index[i] for i in ids), dtype=np.int64,
                               count=len(ids))
        except KeyError as e:
            raise KeyError(f"id {e.args[0]!r} not in dataset") from None

    def fit_normalization(self, labeled_ids: Sequence[str]
                          ) -> tuple[np.ndarray, np.ndarray]:
        """Per-channel mean/std over the given pool only (floor std at 1e-6).

        The pool is read `_FIT_CHUNK` images at a time, so no pool-sized
        float64 array is made. NumPy sums an [N,3,H,W] array over axes
        (0, 2, 3) by adding each image's per-channel pairwise sums to zero
        in image order; adding them in that order, for the values and then
        for their squared deviations from the mean, gives the bits of
        `np.mean` and `np.std` over the whole pool."""
        ids = sorted(labeled_ids)
        count = len(ids) * self.images.shape[2] * self.images.shape[3]

        def channel_sums(mean=None):
            acc = np.zeros(3)
            for start in range(0, len(ids), _FIT_CHUNK):
                x = self.pixels(ids[start:start + _FIT_CHUNK])
                if mean is not None:
                    x -= mean
                    x *= x
                for image_sums in x.reshape(len(x), 3, -1).sum(axis=2):
                    acc += image_sums
                del x
            return acc

        mean = channel_sums() / count
        var = channel_sums(mean.reshape(1, 3, 1, 1)) / count
        std = np.maximum(np.sqrt(var), 1e-6)
        self.set_normalization(mean, std)
        return mean, std

    def set_normalization(self, mean, std) -> None:
        self.norm_mean = np.asarray(mean, dtype=np.float64).reshape(3)
        self.norm_std = np.asarray(std, dtype=np.float64).reshape(3)

    def pixels(self, ids: Sequence[str]) -> np.ndarray:
        """Decoded float64 [n,3,H,W] values in id order, `images / scale`:
        the same bits `decode_image` (and `resize_bilinear`) give."""
        out = self.images[self.rows(ids)].astype(np.float64, copy=False)
        out /= self.scale
        return out

    def batch(self, ids: Sequence[str]) -> np.ndarray:
        """Normalized [n,3,H,W] batch in id order, `(pixels - mean) / std`
        computed in place in one array."""
        if self.norm_mean is None:
            raise ConfigError("normalization has not been fit")
        out = self.pixels(ids)
        out -= self.norm_mean[:, None, None]
        out /= self.norm_std[:, None, None]
        return out

    def labels_for(self, ids: Sequence[str]) -> np.ndarray:
        return self.labels[self.rows(ids)]


# ---- synthetic band-limited textures -------------------------------------------

def class_frequencies(num_classes: int, image_size: int) -> np.ndarray:
    """Log-spaced dominant frequencies (cycles per image), well inside Nyquist."""
    fmin = max(2.0, 0.06 * image_size)
    fmax = 0.32 * image_size
    if num_classes == 1:
        return np.array([fmin])
    return fmin * (fmax / fmin) ** (np.arange(num_classes) / (num_classes - 1))


def ring_field(rng: np.random.Generator, image_size: int, freq: float,
               sigma: float) -> np.ndarray:
    """Unit-variance zero-mean random field whose spectrum is a Gaussian
    ring at `freq` cycles per image, shape [H,W]."""
    noise = rng.standard_normal((image_size, image_size))
    fy = np.fft.fftfreq(image_size) * image_size
    fx = np.fft.fftfreq(image_size) * image_size
    radius = np.sqrt(fy[:, None] ** 2 + fx[None, :] ** 2)
    ring = np.exp(-0.5 * ((radius - freq) / sigma) ** 2)
    field = np.fft.ifft2(np.fft.fft2(noise) * ring).real
    return field / max(field.std(), 1e-12)


def synth_generate(out_root: Union[str, Path], num_classes: int = 4,
                   per_class: int = 100, image_size: int = 64, seed: int = 0,
                   overlap: float = 0.0) -> DatasetManifest:
    """Write a PPM dataset of per-class band-limited textures plus its
    manifest. Each class draws one master field on a Gaussian frequency
    ring; images are cyclic shifts of that master on an 8x8 placement
    grid plus faint speckle, so classes share a dominant frequency and
    contrast while individual files stay distinct. `overlap` (0..1)
    widens the frequency bands toward their neighbors, making classes
    progressively confusable; identical seeds produce byte-identical
    trees."""
    if num_classes not in (2, 3, 4):
        raise ConfigError(f"num_classes must be 2, 3, or 4, got {num_classes}")
    if per_class < 1:
        raise ConfigError(f"per_class must be >= 1, got {per_class}")
    if image_size < 1:
        raise ConfigError(f"image_size must be >= 1, got {image_size}")
    if not (0.0 <= overlap <= 1.0):
        raise ConfigError(f"overlap must be in [0,1], got {overlap}")
    rng = stream(seed, "synth")
    out_root = Path(out_root)
    out_root.mkdir(parents=True, exist_ok=True)
    freqs = class_frequencies(num_classes, image_size)
    gaps = np.diff(freqs)
    step = max(1, image_size // 8)
    speckle = 0.01
    digits = len(str(per_class - 1))
    records: list[ManifestRecord] = []
    classes = tuple(f"class{k}" for k in range(num_classes))
    for k, name in enumerate(classes):
        (out_root / name).mkdir(exist_ok=True)
        gap = gaps.min() if gaps.size else freqs[0]
        sigma = 0.35 + overlap * 0.75 * gap
        contrast = 0.20 + 0.02 * k
        master = ring_field(rng, image_size, freqs[k], sigma)
        for j in range(per_class):
            dy, dx = rng.integers(0, 8, 2) * step
            tex = np.roll(master, (dy, dx), (0, 1))
            gray = np.clip(0.5 + contrast * tex
                           + speckle * rng.standard_normal(tex.shape), 0.0, 1.0)
            img = np.broadcast_to(gray[None], (3,) + gray.shape)
            stem = f"img_{j:0{digits}d}"
            encode_ppm(out_root / name / f"{stem}.ppm", img)
            records.append(ManifestRecord(id=f"{name}/{stem}",
                                          path=f"{name}/{stem}.ppm",
                                          label=name))
    manifest = DatasetManifest(classes=classes, records=tuple(records),
                               root=out_root)
    manifest.save(out_root / "manifest.json")
    return manifest
