"""Property tests for the text and image loaders: every input either loads
or raises a DcswinError, within the allocation bound of the `.dcsm`
mutation loop in test_serialization."""
import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dcswin import data  # noqa: E402
from dcswin.data import (ArrayDataset, DatasetManifest,  # noqa: E402
                         DatasetSplit, decode_image, scan_image_tree)
from dcswin.errors import DcswinError, FormatError  # noqa: E402
from dcswin.serialization import parse_config_text  # noqa: E402
from test_data import decode_ppm_bytes  # noqa: E402
from test_serialization import load_bounded  # noqa: E402

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None,
                    database=None)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12)
ids = st.text(max_size=6)


def json_bytes(payloads):
    """Arbitrary bytes, arbitrary JSON, and JSON shaped like `payloads`
    with hostile field values."""
    return st.one_of(
        st.binary(max_size=64),
        st.just(b"[" * 100000),
        json_values.map(lambda v: json.dumps(v).encode()),
        payloads.map(lambda v: json.dumps(v).encode()),
    )


manifests = st.fixed_dictionaries({
    "classes": st.lists(ids, max_size=3) | json_values,
    "records": st.lists(st.fixed_dictionaries(
        {"id": ids | json_values, "path": ids, "label": ids | json_values},
        optional={"tag": ids | json_values}), max_size=3) | json_values,
})
splits = st.fixed_dictionaries(
    {pool: st.lists(ids, max_size=3) | json_values
     for pool in ("labeled", "unlabeled", "test")}
    | {"seed": st.integers() | st.floats() | json_values,
       "train_frac": st.floats() | json_values,
       "labeled_frac": st.floats() | json_values},
    optional={"audit": json_values, "manifest": ids | json_values})


@st.composite
def ppm_bytes(draw):
    """Binary P5/P6 files with small or hostile header fields and a raster
    whose length is near the one the header implies."""
    magic = draw(st.sampled_from([b"P6", b"P5", b"P3", b"", b"P"]))
    fields = draw(st.lists(st.integers(-2, 2 ** 64) | st.integers(0, 5),
                           min_size=0, max_size=3))
    sep = draw(st.sampled_from([b" ", b"\n", b"\t", b" # c\n", b""]))
    header = magic + b"".join(sep + str(f).encode() for f in fields)
    if len(fields) == 3 and 0 < fields[0] <= 5 and 0 < fields[1] <= 5:
        size = fields[0] * fields[1] * (3 if magic == b"P6" else 1) \
            * (2 if fields[2] > 255 else 1)
    else:
        size = draw(st.integers(0, 40))
    size = max(0, size + draw(st.integers(-2, 2)))
    return header + draw(st.sampled_from([b"\n", b"", b"x"])) \
        + draw(st.binary(min_size=size, max_size=size))


@SETTINGS
@given(st.one_of(st.binary(max_size=64), ppm_bytes()))
def test_decode_ppm_bytes_loads_or_raises(blob):
    out = []
    error = load_bounded(lambda: out.append(decode_ppm_bytes(blob)),
                         len(blob))
    if error is None:
        img = out[0]
        assert img.ndim == 3 and img.shape[0] == 3
        assert np.all((img >= 0.0) & (img <= 1.0))


@st.composite
def raster_trees(draw):
    """Two to four P5/P6 files, each with its own maxval in [1, 65535] (so
    8- or 16-bit samples), mostly of one size and with samples mostly
    within maxval, as (name, maxval, bytes) triples."""
    h, w = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    files = []
    for j in range(draw(st.integers(2, 4))):
        magic = draw(st.sampled_from(["P5", "P6"]))
        maxval = draw(st.sampled_from([1, 200, 255, 256, 4095, 65535])
                      | st.integers(1, 65535))
        fh, fw = draw(st.sampled_from([(h, w)] * 5 + [(h + 1, w)]))
        top = maxval + draw(st.sampled_from([0] * 9 + [1]))
        top = min(top, 255 if maxval < 256 else 65535)
        count = fh * fw * (3 if magic == "P6" else 1)
        samples = draw(st.lists(st.integers(0, top), min_size=count,
                                max_size=count))
        raster = np.array(samples, np.uint8 if maxval < 256 else ">u2")
        header = f"{magic}\n{fw} {fh}\n{maxval}\n".encode()
        files.append((f"s{j}.{'ppm' if magic == 'P6' else 'pgm'}", maxval,
                      header + raster.tobytes()))
    return files


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("props")


def test_manifest_load_loads_or_raises(workdir):
    @SETTINGS
    @given(json_bytes(manifests))
    def check(blob):
        path = workdir / "manifest.json"
        path.write_bytes(blob)
        out = []
        error = load_bounded(lambda: out.append(DatasetManifest.load(path)),
                             len(blob))
        if error is None:
            assert all(rec.label in out[0].classes for rec in out[0].records)

    check()


def test_split_load_loads_or_raises(workdir):
    @SETTINGS
    @given(json_bytes(splits))
    def check(blob):
        path = workdir / "split.json"
        path.write_bytes(blob)
        load_bounded(lambda: DatasetSplit.load(path), len(blob))

    check()


@SETTINGS
@given(st.text(max_size=80) | st.lists(
    st.tuples(st.text(max_size=8), st.sampled_from(["=", " = ", ""]),
              st.text(max_size=8)), max_size=4).map(
        lambda rows: "\n".join(k + eq + v for k, eq, v in rows)))
def test_parse_config_text_loads_or_raises(text):
    out = []
    error = load_bounded(lambda: out.append(parse_config_text(text)),
                         len(text.encode("utf-8", "surrogatepass")))
    if error is None:
        assert all(key and "=" not in key and "#" not in key
                   for key in out[0])


def test_mixed_raster_tree_loads_like_the_float_path_or_raises(workdir):
    """A manifest mixing 8- and 16-bit rasters and maxvals loads to the
    bits of decoding each file to floats, through `pixels`,
    `fit_normalization` and `batch`, or raises a DcswinError."""
    counter = iter(range(10 ** 6))

    @SETTINGS
    @given(raster_trees())
    def check(files):
        root = workdir / f"tree{next(counter)}"
        (root / "a").mkdir(parents=True)
        for name, _, blob in files:
            (root / "a" / name).write_bytes(blob)
        man = scan_image_tree(root)
        try:
            ds = ArrayDataset.from_manifest(man)
        except DcswinError:
            return
        want = np.stack([decode_image(root / rec.path)
                         for rec in man.records])
        maxvals = {maxval for _, maxval, _ in files}
        assert ds.images.dtype == (np.float64 if len(maxvals) > 1 else
                                   np.uint8 if max(maxvals) < 256 else
                                   np.uint16)
        assert ds.pixels(ds.ids).tobytes() == want.tobytes()
        mean, std = ds.fit_normalization(ds.ids)
        assert mean.tobytes() == want.mean(axis=(0, 2, 3)).tobytes()
        assert std.tobytes() == np.maximum(want.std(axis=(0, 2, 3)),
                                           1e-6).tobytes()
        assert ds.batch(ds.ids[::-1]).tobytes() == (
            (want[::-1] - mean[None, :, None, None])
            / std[None, :, None, None]).tobytes()

    check()


def _read_header_token(buf: bytes, pos: int, what: str) -> tuple[bytes, int]:
    """The byte-at-a-time PNM header tokenizer `data._HEADER` replaced,
    kept as its oracle: skip whitespace and `#` comments, then take the
    run of non-whitespace bytes, returning it and the offset past it."""
    n = len(buf)
    while pos < n:
        ch = buf[pos:pos + 1]
        if ch == b"#":
            while pos < n and buf[pos:pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            break
    if pos >= n:
        raise FormatError(f"<bytes>: truncated header: expected {what} at "
                          f"byte {pos}")
    start = pos
    while pos < n and not buf[pos:pos + 1].isspace():
        pos += 1
    return buf[start:pos], pos


def oracle_header(buf: bytes):
    """The tokens `_read_header_token` reads after the magic, each with the
    offset past it, and the width, height and maxval they parse to with
    the offset past maxval; or the `FormatError` message it stops at."""
    tokens, fields, pos = [], [], 2
    try:
        for what in ("width", "height", "maxval"):
            token, pos = _read_header_token(buf, pos, what)
            tokens.append((token, pos))
            try:
                fields.append(int(token))
            except ValueError:
                raise FormatError(f"<bytes>: bad {what} {token!r} at byte "
                                  f"{pos - len(token)}") from None
    except FormatError as e:
        return tokens, str(e)
    return tokens, (*fields, pos)


header_pieces = st.one_of(
    st.lists(st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"]),
             min_size=1, max_size=3).map(b"".join),
    st.tuples(st.just(b"#"), st.binary(max_size=4),
              st.sampled_from([b"\n", b"\r", b""])).map(b"".join),
    st.integers(0, 70000).map(lambda v: str(v).encode()),
    st.sampled_from([b"0", b"+7", b"-1", b"1_0", b"x", b"2#", b"0x10",
                     b"\x85", b"\xa0", b"\x00", b"\xff", b"9\x1c"]),
)


@SETTINGS
@given(st.sampled_from([b"P6", b"P5"]),
       st.lists(header_pieces, max_size=10).map(b"".join))
def test_header_scan_matches_the_byte_loop(magic, rest):
    """`_HEADER` finds the byte loop's tokens at its offsets, and
    `_read_header` returns its fields or raises its message, for every
    prefix of a header mixing the six whitespace bytes, comments ended by
    LF, CR or the end of input, and digit and non-digit tokens."""
    buf = magic + rest
    for end in range(2, len(buf) + 1):
        head = buf[:end]
        tokens, want = oracle_header(head)
        m = data._HEADER.match(head, 2)
        assert [(m[i], m.end(i)) for i in range(1, len(tokens) + 1)] == tokens
        try:
            got = data._read_header(head, "<bytes>")
        except FormatError as e:
            got = str(e)
        assert got == want
