"""Binary tensor block, config text, and checkpoint container tests."""
import io
import struct
import tracemalloc

import numpy as np
import pytest

from dcswin.errors import DcswinError, FormatError
from dcswin.model import DCSWin, ModelConfig
from dcswin.serialization import (
    CHECKPOINT_MAGIC,
    FORMAT_VERSION,
    TENSOR_MAGIC,
    config_to_text,
    load_checkpoint,
    load_config_file,
    load_tensor,
    parse_config_text,
    read_tensor,
    save_checkpoint,
    save_tensor,
    write_tensor,
)


def tensor_bytes(arr):
    buf = io.BytesIO()
    write_tensor(buf, arr)
    return buf.getvalue()


class TestTensorBlock:
    def test_byte_layout_fixture(self):
        # layout: magic, u32 version, u32 rank, u64 dims, u8 dtype tag, raw LE
        arr = np.array([[1.0, 2.0], [3.0, 4.0]])
        expected = (TENSOR_MAGIC + struct.pack("<I", FORMAT_VERSION)
                    + struct.pack("<I", 2) + struct.pack("<Q", 2)
                    + struct.pack("<Q", 2) + struct.pack("<B", 1)
                    + arr.astype("<f8").tobytes())
        assert tensor_bytes(arr) == expected

    @pytest.mark.parametrize("arr", [
        np.float64(3.5),
        np.arange(7, dtype=np.float64),
        np.random.default_rng(0).standard_normal((2, 3, 4)),
        np.random.default_rng(1).standard_normal((3, 1, 2, 2)).astype(np.float32),
        np.zeros((0, 4)),
    ], ids=["scalar", "vector", "rank3", "float32", "empty"])
    def test_roundtrip_bit_exact(self, arr, tmp_path):
        save_tensor(tmp_path / "t.dcst", arr)
        back = load_tensor(tmp_path / "t.dcst")
        assert back.dtype == np.asarray(arr).dtype
        assert back.shape == np.asarray(arr).shape
        assert np.asarray(arr).tobytes() == back.tobytes()

    def test_fortran_order_input_normalized(self):
        arr = np.asfortranarray(np.arange(6, dtype=np.float64).reshape(2, 3))
        back = read_tensor(io.BytesIO(tensor_bytes(arr)))
        assert np.array_equal(back, arr)
        assert back.flags["C_CONTIGUOUS"]

    def test_integer_input_stored_as_float64(self):
        back = read_tensor(io.BytesIO(tensor_bytes(np.array([1, 2, 3]))))
        assert back.dtype == np.float64

    def test_save_deterministic_bytes(self, tmp_path):
        arr = np.random.default_rng(2).standard_normal((4, 4))
        save_tensor(tmp_path / "a.dcst", arr)
        save_tensor(tmp_path / "b.dcst", arr)
        assert (tmp_path / "a.dcst").read_bytes() == \
            (tmp_path / "b.dcst").read_bytes()

    def test_bad_magic(self):
        with pytest.raises(FormatError, match="bad tensor magic .* byte 0"):
            read_tensor(io.BytesIO(b"NOPE" + bytes(16)))

    def test_unsupported_version(self):
        buf = TENSOR_MAGIC + struct.pack("<I", 99) + bytes(16)
        with pytest.raises(FormatError, match="version 99"):
            read_tensor(io.BytesIO(buf))

    def test_implausible_rank(self):
        buf = TENSOR_MAGIC + struct.pack("<I", FORMAT_VERSION) \
            + struct.pack("<I", 17)
        with pytest.raises(FormatError, match="implausible tensor rank 17"):
            read_tensor(io.BytesIO(buf))

    def test_unknown_dtype_tag(self):
        buf = (TENSOR_MAGIC + struct.pack("<I", FORMAT_VERSION)
               + struct.pack("<I", 1) + struct.pack("<Q", 1)
               + struct.pack("<B", 9))
        with pytest.raises(FormatError, match="unknown dtype tag 9"):
            read_tensor(io.BytesIO(buf))

    def test_truncated_data_cites_offset(self):
        good = tensor_bytes(np.arange(4, dtype=np.float64))
        with pytest.raises(FormatError,
                           match="truncated tensor data at byte 21"):
            read_tensor(io.BytesIO(good[:-8]))

    def test_truncated_header(self):
        with pytest.raises(FormatError, match="truncated tensor dim"):
            read_tensor(io.BytesIO(
                TENSOR_MAGIC + struct.pack("<I", FORMAT_VERSION)
                + struct.pack("<I", 2) + struct.pack("<Q", 2)))

    def test_trailing_bytes_rejected(self, tmp_path):
        save_tensor(tmp_path / "t.dcst", np.zeros(2))
        with open(tmp_path / "t.dcst", "ab") as f:
            f.write(b"\x00")
        with pytest.raises(FormatError, match="trailing bytes"):
            load_tensor(tmp_path / "t.dcst")


class TestConfigText:
    def test_roundtrip(self):
        mapping = {"image_size": "64", "arch": "full", "lr": "0.003"}
        assert parse_config_text(config_to_text(mapping)) == mapping

    def test_empty_mapping(self):
        assert config_to_text({}) == ""
        assert parse_config_text("") == {}

    def test_comments_and_blank_lines(self):
        text = "# header\n\na = 1  # trailing\n   \nb = x = y\n"
        assert parse_config_text(text) == {"a": "1", "b": "x = y"}

    def test_missing_equals(self):
        with pytest.raises(FormatError, match="line 2 has no '='"):
            parse_config_text("a = 1\nbroken line\n")

    def test_empty_key(self):
        with pytest.raises(FormatError, match="empty key"):
            parse_config_text("= 3\n")

    def test_duplicate_key(self):
        with pytest.raises(FormatError, match="repeats key 'a'"):
            parse_config_text("a = 1\na = 2\n")

    def test_unrepresentable_values(self):
        with pytest.raises(FormatError, match="not representable"):
            config_to_text({"k=v": "1"})
        with pytest.raises(FormatError, match="not representable"):
            config_to_text({"k": "line\nbreak"})

    def test_load_config_file(self, tmp_path):
        (tmp_path / "run.cfg").write_text("epochs = 50\nseed = 3\n")
        assert load_config_file(tmp_path / "run.cfg") == \
            {"epochs": "50", "seed": "3"}


class TestCheckpoint:
    def make_payload(self):
        rng = np.random.default_rng(3)
        config = {"image_size": "64", "num_classes": "4"}
        tensors = {
            "stage0.attn.wq": rng.standard_normal((8, 8)),
            "head.b": np.zeros(4),
            "opt.m.head.b": rng.standard_normal(4),
        }
        return config, tensors

    def test_roundtrip_bit_exact_and_ordered(self, tmp_path):
        config, tensors = self.make_payload()
        save_checkpoint(tmp_path / "m.ckpt", config, tensors)
        back_cfg, back_tensors = load_checkpoint(tmp_path / "m.ckpt")
        assert back_cfg == config
        assert list(back_tensors) == list(tensors)
        for name, arr in tensors.items():
            assert np.array_equal(back_tensors[name], arr)

    def test_save_deterministic_bytes(self, tmp_path):
        config, tensors = self.make_payload()
        save_checkpoint(tmp_path / "a.ckpt", config, tensors)
        save_checkpoint(tmp_path / "b.ckpt", config, tensors)
        assert (tmp_path / "a.ckpt").read_bytes() == \
            (tmp_path / "b.ckpt").read_bytes()

    def test_bad_magic(self, tmp_path):
        (tmp_path / "m.ckpt").write_bytes(b"XXXX" + bytes(32))
        with pytest.raises(FormatError, match="bad checkpoint magic"):
            load_checkpoint(tmp_path / "m.ckpt")

    def test_unsupported_version(self, tmp_path):
        (tmp_path / "m.ckpt").write_bytes(
            CHECKPOINT_MAGIC + struct.pack("<I", 7) + bytes(16))
        with pytest.raises(FormatError, match="checkpoint version 7"):
            load_checkpoint(tmp_path / "m.ckpt")

    def test_truncation_mid_tensor_cites_offset(self, tmp_path):
        config, tensors = self.make_payload()
        save_checkpoint(tmp_path / "m.ckpt", config, tensors)
        whole = (tmp_path / "m.ckpt").read_bytes()
        (tmp_path / "cut.ckpt").write_bytes(whole[:-20])
        with pytest.raises(FormatError, match=r"truncated .* at byte \d+"):
            load_checkpoint(tmp_path / "cut.ckpt")

    def test_trailing_bytes_rejected(self, tmp_path):
        config, tensors = self.make_payload()
        save_checkpoint(tmp_path / "m.ckpt", config, tensors)
        with open(tmp_path / "m.ckpt", "ab") as f:
            f.write(b"junk")
        with pytest.raises(FormatError, match="trailing bytes"):
            load_checkpoint(tmp_path / "m.ckpt")

    def test_duplicate_tensor_name_rejected(self, tmp_path):
        # container with the same name twice has to be composed by hand
        buf = io.BytesIO()
        buf.write(CHECKPOINT_MAGIC)
        buf.write(struct.pack("<I", FORMAT_VERSION))
        text = config_to_text({}).encode()
        buf.write(struct.pack("<Q", len(text)))
        buf.write(text)
        buf.write(struct.pack("<Q", 2))
        for _ in range(2):
            buf.write(struct.pack("<Q", 1))
            buf.write(b"w")
            write_tensor(buf, np.zeros(1))
        (tmp_path / "dup.ckpt").write_bytes(buf.getvalue())
        with pytest.raises(FormatError, match="duplicate tensor name 'w'"):
            load_checkpoint(tmp_path / "dup.ckpt")

    def test_malformed_config_text_rejected(self, tmp_path):
        buf = io.BytesIO()
        buf.write(CHECKPOINT_MAGIC)
        buf.write(struct.pack("<I", FORMAT_VERSION))
        text = b"no equals sign"
        buf.write(struct.pack("<Q", len(text)))
        buf.write(text)
        buf.write(struct.pack("<Q", 0))
        (tmp_path / "bad.ckpt").write_bytes(buf.getvalue())
        with pytest.raises(FormatError, match="has no '='"):
            load_checkpoint(tmp_path / "bad.ckpt")


# ---- hostile sizes and byte mutations -------------------------------------------

def tensor_header(dims, tag=1):
    return (TENSOR_MAGIC + struct.pack("<I", FORMAT_VERSION)
            + struct.pack("<I", len(dims))
            + b"".join(struct.pack("<Q", d) for d in dims)
            + struct.pack("<B", tag))


def checkpoint_bytes(text, blocks=()):
    out = (CHECKPOINT_MAGIC + struct.pack("<I", FORMAT_VERSION)
           + struct.pack("<Q", len(text)) + text + struct.pack("<Q", len(blocks)))
    for name, block in blocks:
        out += struct.pack("<Q", len(name)) + name + block
    return out


def load_bounded(load, size):
    """Run `load`, returning the error it raised (or None); fail if it
    allocated far more than the `size` bytes it was given."""
    tracemalloc.start()
    try:
        load()
        error = None
    except DcswinError as e:
        error = e
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peak < 4 * size + (1 << 20), f"peak allocation {peak} bytes"
    return error


@pytest.mark.parametrize("dims", [(2 ** 40, 2 ** 40), (0, 2 ** 63), (2 ** 30, 1),
                                  (0, 2 ** 62, 4), (2 ** 64 - 1,)])
def test_hostile_tensor_dims_raise_format_error(dims, tmp_path):
    # from a file: reading a declared size there allocates it up front
    blob = tensor_header(dims) + bytes(16)
    (tmp_path / "t.dcst").write_bytes(blob)
    error = load_bounded(lambda: load_tensor(tmp_path / "t.dcst"), len(blob))
    assert isinstance(error, FormatError)


@pytest.mark.parametrize("blob", [
    CHECKPOINT_MAGIC + struct.pack("<I", FORMAT_VERSION)
    + struct.pack("<Q", 2 ** 62) + b"a = 1\n",
    checkpoint_bytes(b"a = \xff\xfe\n"),
    checkpoint_bytes(b"a = 1\n", [(b"w\xc3", tensor_bytes(np.zeros(1)))]),
    # one tensor whose name claims 2^62 bytes
    checkpoint_bytes(b"")[:-8] + struct.pack("<Q", 1) + struct.pack("<Q", 2 ** 62),
], ids=["config-length", "config-utf8", "name-utf8", "name-length"])
def test_hostile_checkpoint_fields_raise_format_error(blob, tmp_path):
    (tmp_path / "m.dcsm").write_bytes(blob)
    error = load_bounded(lambda: load_checkpoint(tmp_path / "m.dcsm"),
                         len(blob))
    assert isinstance(error, FormatError)


def checkpoint_fields(blob):
    """Offsets of the u64 size fields and of the magic and version of every
    block in a well-formed checkpoint."""
    sizes, magics, versions = [8], [0], [4]
    pos = 16 + struct.unpack_from("<Q", blob, 8)[0]
    sizes.append(pos)
    count = struct.unpack_from("<Q", blob, pos)[0]
    pos += 8
    for _ in range(count):
        sizes.append(pos)
        pos += 8 + struct.unpack_from("<Q", blob, pos)[0]
        magics.append(pos)
        versions.append(pos + 4)
        rank = struct.unpack_from("<I", blob, pos + 8)[0]
        dims = struct.unpack_from(f"<{rank}Q", blob, pos + 12)
        sizes += [pos + 12 + 8 * i for i in range(rank)]
        pos += 12 + 8 * rank + 1 + 8 * int(np.prod(dims))
    assert pos == len(blob)
    return sizes, magics, versions


def test_mutated_checkpoints_load_or_raise_typed_errors(tmp_path):
    cfg = ModelConfig.micro()
    save_checkpoint(tmp_path / "good.dcsm", cfg.to_mapping(),
                    DCSWin(cfg, seed=0).state_dict())
    good = (tmp_path / "good.dcsm").read_bytes()
    sizes, magics, versions = checkpoint_fields(good)
    huge = [2 ** 30, 2 ** 40, 2 ** 62, 2 ** 63, 2 ** 64 - 1, len(good)]
    rng = np.random.default_rng(0)
    path = tmp_path / "m.dcsm"
    kinds = []
    for _ in range(250):
        blob = bytearray(good)
        kind = int(rng.integers(5))
        if kind == 0:
            del blob[int(rng.integers(len(good))):]
        elif kind == 1:
            for bit in rng.integers(0, 8 * len(good), size=rng.integers(1, 9)):
                blob[bit // 8] ^= 1 << (bit % 8)
        elif kind == 2:
            at = sizes[int(rng.integers(len(sizes)))]
            blob[at:at + 8] = struct.pack("<Q", huge[int(rng.integers(len(huge)))])
        elif kind == 3:
            at = magics[int(rng.integers(len(magics)))]
            blob[at:at + 4] = rng.integers(0, 256, size=4, dtype=np.uint8).tobytes()
        else:
            at = versions[int(rng.integers(len(versions)))]
            blob[at:at + 4] = struct.pack("<I", int(rng.integers(2, 2 ** 32)))
        path.write_bytes(bytes(blob))
        error = load_bounded(lambda: load_checkpoint(path), len(good))
        kinds.append((kind, error is None))
    # every kind ran, and only bit flips and benign sizes may still load
    assert {k for k, _ in kinds} == set(range(5))
    assert not any(ok for k, ok in kinds if k in (0, 3, 4))
