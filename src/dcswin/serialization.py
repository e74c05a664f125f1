"""Binary tensor blocks, checkpoint containers, and flat config files.

Tensor block ("DCST"): magic, u32 format version, u32 rank, u64 dims,
u8 dtype tag (1 = float64, 2 = float32), then raw little-endian data.

Checkpoint ("DCSM"): magic, u32 format version, u64-length UTF-8 config
text (flat `key = value` lines), u64 tensor count, then name-prefixed
tensor blocks. Readers reject unknown magics/versions and report byte
offsets on truncation.

Config dataclasses map to and from the flat text through one codec driven
by their field types (`config_to_mapping` / `config_from_mapping`).
"""
from __future__ import annotations

import io
import struct
from dataclasses import fields
from pathlib import Path
from typing import BinaryIO, Mapping, Union, get_args, get_origin, get_type_hints

import numpy as np

from .errors import ConfigError, FormatError

TENSOR_MAGIC = b"DCST"
CHECKPOINT_MAGIC = b"DCSM"
FORMAT_VERSION = 1

_DTYPE_TAGS = {1: np.dtype("<f8"), 2: np.dtype("<f4")}
_TAG_FOR = {np.dtype("float64"): 1, np.dtype("float32"): 2}


def _read_exact(f: BinaryIO, n: int, what: str) -> bytes:
    """Read exactly n bytes. A declared size is checked against the bytes
    left in the stream first, so a hostile one is never allocated."""
    pos = f.tell()
    left = f.seek(0, io.SEEK_END) - pos
    f.seek(pos)
    if n > left:
        raise FormatError(f"truncated {what} at byte {pos}: wanted {n} bytes, "
                          f"got {left}")
    return f.read(n)


def _read_text(f: BinaryIO, n: int, what: str) -> str:
    pos = f.tell()
    try:
        return _read_exact(f, n, what).decode("utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"{what} at byte {pos} is not UTF-8: {e.reason} "
                          f"at offset {e.start}") from None


def write_tensor(f: BinaryIO, arr: np.ndarray) -> None:
    arr = np.asarray(arr)
    if arr.dtype not in _TAG_FOR:
        arr = arr.astype(np.float64)
    f.write(TENSOR_MAGIC)
    f.write(struct.pack("<I", FORMAT_VERSION))
    f.write(struct.pack("<I", arr.ndim))
    for d in arr.shape:
        f.write(struct.pack("<Q", d))
    f.write(struct.pack("<B", _TAG_FOR[arr.dtype]))
    f.write(np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")).tobytes())


def read_tensor(f: BinaryIO) -> np.ndarray:
    pos = f.tell()
    magic = _read_exact(f, 4, "tensor magic")
    if magic != TENSOR_MAGIC:
        raise FormatError(f"bad tensor magic {magic!r} at byte {pos}")
    version = struct.unpack("<I", _read_exact(f, 4, "tensor version"))[0]
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported tensor format version {version} "
                          f"at byte {pos + 4} (supported: {FORMAT_VERSION})")
    rank = struct.unpack("<I", _read_exact(f, 4, "tensor rank"))[0]
    if rank > 16:
        raise FormatError(f"implausible tensor rank {rank} at byte {pos + 8}")
    dims = tuple(struct.unpack("<Q", _read_exact(f, 8, "tensor dim"))[0]
                 for _ in range(rank))
    tag = struct.unpack("<B", _read_exact(f, 1, "tensor dtype tag"))[0]
    if tag not in _DTYPE_TAGS:
        raise FormatError(f"unknown dtype tag {tag} at byte {f.tell() - 1}")
    dtype = _DTYPE_TAGS[tag]
    count = 1
    for d in dims:
        count *= d
    raw = _read_exact(f, count * dtype.itemsize, "tensor data")
    try:
        arr = np.frombuffer(raw, dtype=dtype).reshape(dims)
    except ValueError:  # an empty tensor whose other dims exceed NumPy's range
        raise FormatError(f"impossible tensor dims {dims} at byte "
                          f"{pos + 12}") from None
    return arr.astype(dtype.newbyteorder("="))


def save_tensor(path: Union[str, Path], arr: np.ndarray) -> None:
    with open(path, "wb") as f:
        write_tensor(f, arr)


def load_tensor(path: Union[str, Path]) -> np.ndarray:
    with open(path, "rb") as f:
        arr = read_tensor(f)
        trailing = f.read(1)
        if trailing:
            raise FormatError(f"trailing bytes after tensor at byte {f.tell() - 1}")
        return arr


# ---- flat key = value config text -----------------------------------------

def config_to_text(mapping: Mapping[str, str]) -> str:
    lines = []
    for key, value in mapping.items():
        key = str(key)
        value = str(value)
        if "=" in key or "\n" in key or "\n" in value:
            raise FormatError(f"config key/value not representable: {key!r}")
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_config_text(text: str) -> dict[str, str]:
    """Parse `key = value` lines; '#' starts a comment, blanks are skipped."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"config line {lineno} has no '=': {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise FormatError(f"config line {lineno} has an empty key")
        if key in out:
            raise FormatError(f"config line {lineno} repeats key {key!r}")
        out[key] = value.strip()
    return out


def read_utf8(path: Union[str, Path], what: str) -> str:
    """The text of a file; bytes that are not UTF-8 raise FormatError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"{what} {path} is not UTF-8: {e.reason} at byte "
                          f"{e.start}") from None


def load_config_file(path: Union[str, Path]) -> dict[str, str]:
    return parse_config_text(read_utf8(path, "config file"))


_BOOLS = {"true": True, "1": True, "on": True, "yes": True,
          "false": False, "0": False, "off": False, "no": False}


def _encode(value) -> str:
    if value is None:
        return "all"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def _decode(kind, key: str, raw: str):
    options = get_args(kind)
    if type(None) in options:          # Optional[X]: `all` (or blank) is None
        if raw.strip() in ("all", ""):
            return None
        kind = options[0]
    try:
        if get_origin(kind) is tuple:
            return tuple(int(v) for v in raw.split(","))
        if kind is bool:
            return _BOOLS[raw.strip().lower()]
        return kind(raw)
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"{key}: not {getattr(kind, '__name__', kind)}: "
                          f"{raw!r}") from e


def config_to_mapping(config) -> dict[str, str]:
    """Every field of a config dataclass as text, in field order: ints and
    strs via `str`, floats via `repr`, bools as true/false, tuples
    comma-joined, None as `all`."""
    return {f.name: _encode(getattr(config, f.name)) for f in fields(config)}


def config_from_mapping(cls, mapping: Mapping[str, str]):
    """Inverse of `config_to_mapping`. Keys naming no field are ignored and
    absent fields keep their defaults; a malformed value raises
    ConfigError."""
    kinds = get_type_hints(cls)
    return cls(**{f.name: _decode(kinds[f.name], f.name, mapping[f.name])
                  for f in fields(cls) if f.name in mapping})


# ---- checkpoints -----------------------------------------------------------

def save_checkpoint(path: Union[str, Path], config: Mapping[str, str],
                    tensors: Mapping[str, np.ndarray]) -> None:
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<I", FORMAT_VERSION))
    text = config_to_text(config).encode("utf-8")
    buf.write(struct.pack("<Q", len(text)))
    buf.write(text)
    buf.write(struct.pack("<Q", len(tensors)))
    for name, arr in tensors.items():
        encoded = name.encode("utf-8")
        buf.write(struct.pack("<Q", len(encoded)))
        buf.write(encoded)
        write_tensor(buf, arr)
    Path(path).write_bytes(buf.getvalue())


def load_checkpoint(path: Union[str, Path]) -> tuple[dict[str, str],
                                                     dict[str, np.ndarray]]:
    with open(path, "rb") as f:
        magic = _read_exact(f, 4, "checkpoint magic")
        if magic != CHECKPOINT_MAGIC:
            raise FormatError(f"bad checkpoint magic {magic!r} at byte 0")
        version = struct.unpack("<I", _read_exact(f, 4, "checkpoint version"))[0]
        if version != FORMAT_VERSION:
            raise FormatError(f"unsupported checkpoint version {version} "
                              f"(supported: {FORMAT_VERSION})")
        text_len = struct.unpack("<Q", _read_exact(f, 8, "config length"))[0]
        config = parse_config_text(_read_text(f, text_len, "config text"))
        count = struct.unpack("<Q", _read_exact(f, 8, "tensor count"))[0]
        tensors: dict[str, np.ndarray] = {}
        for _ in range(count):
            name_len = struct.unpack("<Q", _read_exact(f, 8, "tensor name length"))[0]
            name = _read_text(f, name_len, "tensor name")
            if name in tensors:
                raise FormatError(f"duplicate tensor name {name!r} "
                                  f"at byte {f.tell()}")
            tensors[name] = read_tensor(f)
        trailing = f.read(1)
        if trailing:
            raise FormatError(f"trailing bytes after checkpoint at byte {f.tell() - 1}")
    return config, tensors
