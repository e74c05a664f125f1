"""Data pipeline tests: manifests, splits, codecs, resize, normalization,
and the synthetic texture generator."""
import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest

from dcswin.data import (
    _FIT_CHUNK,
    ArrayDataset,
    DatasetManifest,
    DatasetSplit,
    ManifestRecord,
    class_frequencies,
    decode_image,
    decode_ppm_samples,
    encode_ppm,
    resize_bilinear,
    scan_image_tree,
    stratified_split,
    synth_generate,
)
from dcswin.errors import ConfigError, FormatError, ShapeError
from dcswin.serialization import save_tensor


def decode_ppm_bytes(buf, origin="<bytes>"):
    """Binary PPM (P6) or PGM (P5) -> float64 [3,H,W] in [0,1], each
    sample divided by maxval, as `decode_image` gives a file's values."""
    samples, maxval = decode_ppm_samples(buf, origin)
    return samples / maxval


def stats_hash(ds):
    """A digest of the dataset's fitted normalization."""
    return hashlib.sha256(ds.norm_mean.tobytes()
                          + ds.norm_std.tobytes()).hexdigest()


def save_tensor_image(path, img):
    save_tensor(path, np.asarray(img, dtype=np.float64))


def make_manifest(class_sizes, root="/nowhere"):
    """In-memory manifest with dummy paths (splitting never touches disk)."""
    classes = tuple(f"c{k}" for k in range(len(class_sizes)))
    records = []
    for name, n in zip(classes, class_sizes):
        for j in range(n):
            records.append(ManifestRecord(id=f"{name}/s{j:03d}",
                                          path=f"{name}/s{j:03d}.ppm",
                                          label=name))
    return DatasetManifest(classes=classes, records=tuple(records), root=root)


# ---- manifests ---------------------------------------------------------------


class TestManifest:
    def test_duplicate_ids_rejected(self):
        rec = ManifestRecord(id="a/x", path="a/x.ppm", label="a")
        with pytest.raises(FormatError, match="duplicate record id"):
            DatasetManifest(classes=("a",), records=(rec, rec), root=".")

    def test_unknown_label_rejected(self):
        rec = ManifestRecord(id="a/x", path="a/x.ppm", label="b")
        with pytest.raises(FormatError, match="unknown label"):
            DatasetManifest(classes=("a",), records=(rec,), root=".")

    def test_duplicate_classes_rejected(self):
        with pytest.raises(FormatError, match="duplicate class"):
            DatasetManifest(classes=("a", "a"), records=(), root=".")

    def test_save_load_roundtrip(self, tmp_path):
        man = make_manifest([2, 3], root=tmp_path)
        man.records = man.records[:1] + (
            ManifestRecord(id="c0/tagged", path="c0/tagged.ppm", label="c0",
                           tag="40x"),) + man.records[1:]
        man.save(tmp_path / "manifest.json")
        back = DatasetManifest.load(tmp_path / "manifest.json")
        assert back.classes == man.classes
        assert back.records == man.records
        assert back.root == tmp_path

    def test_load_rejects_bad_json(self, tmp_path):
        p = tmp_path / "manifest.json"
        p.write_text("{nope")
        with pytest.raises(FormatError, match="not valid JSON"):
            DatasetManifest.load(p)

    @pytest.mark.parametrize("blob", [b"\x80", b"[" * 100000],
                             ids=["not-utf8", "too-deep"])
    def test_load_rejects_undecodable_bytes(self, tmp_path, blob):
        p = tmp_path / "manifest.json"
        p.write_bytes(blob)
        with pytest.raises(FormatError, match="not valid JSON"):
            DatasetManifest.load(p)

    def test_load_rejects_missing_field(self, tmp_path):
        p = tmp_path / "manifest.json"
        p.write_text(json.dumps({"classes": ["a"],
                                 "records": [{"id": "a/x", "label": "a"}]}))
        with pytest.raises(FormatError,
                           match=re.escape("missing field 'records[0].path'")):
            DatasetManifest.load(p)

    @pytest.mark.parametrize("payload,field", [
        pytest.param({"records": []}, "classes", id="classes"),
        pytest.param({"classes": ["a"]}, "records", id="records"),
        pytest.param({"classes": ["a"], "records": [
            {"id": "a/x", "path": "a/x.ppm", "label": "a"},
            {"path": "a/y.ppm", "label": "a"}]}, "records[1].id",
            id="second-record-id"),
    ])
    def test_load_names_missing_field(self, tmp_path, payload, field):
        p = tmp_path / "manifest.json"
        p.write_text(json.dumps(payload))
        with pytest.raises(FormatError,
                           match=re.escape(f"missing field {field!r}")):
            DatasetManifest.load(p)

    @pytest.mark.parametrize("payload,needle", [
        pytest.param({"classes": ["a"], "records": 3},
                     "field 'records' must be a list, got int",
                     id="records-int"),
        pytest.param({"classes": 3, "records": []},
                     "field 'classes' must be a list of strings, got int",
                     id="classes-int"),
        pytest.param({"classes": "ab", "records": []},
                     "field 'classes' must be a list of strings, got str",
                     id="classes-str"),
        pytest.param({"classes": ["a"], "records": [3]},
                     "records[0] must be an object, got int",
                     id="record-int"),
        pytest.param({"classes": ["a"], "records": [["a/x", "a/x.ppm", "a"]]},
                     "records[0] must be an object, got list",
                     id="record-list"),
        pytest.param({"classes": ["a"], "records": [
            {"id": 7, "path": "a/x.ppm", "label": "a"}]},
            "field 'records[0].id' must be a string, got int",
            id="record-id-int"),
        pytest.param({"classes": ["a"], "records": [
            {"id": "a/x", "path": "a/x.ppm", "label": "a", "tag": 40}]},
            "field 'records[0].tag' must be a string, got int",
            id="record-tag-int"),
        pytest.param([1, 2], "the manifest must be an object, got list",
                     id="payload-list"),
    ])
    def test_load_rejects_wrong_field_types(self, tmp_path, payload, needle):
        p = tmp_path / "manifest.json"
        p.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match="is malformed") as info:
            DatasetManifest.load(p)
        assert needle in str(info.value)
        assert "missing field" not in str(info.value)

    @pytest.mark.parametrize("bad", ["/abs/x.ppm", "../other/x.ppm",
                                     "a/../../x.ppm"])
    def test_load_rejects_paths_outside_its_directory(self, tmp_path, bad):
        p = tmp_path / "manifest.json"
        p.write_text(json.dumps({"classes": ["a"], "records": [
            {"id": "a/x", "path": "a/x.ppm", "label": "a"},
            {"id": "a/y", "path": bad, "label": "a"}]}))
        with pytest.raises(FormatError, match="is malformed") as info:
            DatasetManifest.load(p)
        assert "'records[1].path'" in str(info.value)
        assert repr(bad) in str(info.value)


class TestScanImageTree:
    def write_tree(self, root, layout):
        for cls, names in layout.items():
            (root / cls).mkdir(parents=True)
            for name in names:
                img = np.full((3, 2, 2), 0.5)
                encode_ppm(root / cls / name, img)

    def test_lexicographic_class_prefixed_ids(self, tmp_path):
        self.write_tree(tmp_path, {"benign": ["b2.ppm", "b1.ppm"],
                                   "atypical": ["z.ppm", "a.ppm"]})
        man = scan_image_tree(tmp_path)
        assert man.classes == ("atypical", "benign")
        assert [r.id for r in man.records] == [
            "atypical/a", "atypical/z", "benign/b1", "benign/b2"]
        assert [r.path for r in man.records] == [
            "atypical/a.ppm", "atypical/z.ppm", "benign/b1.ppm",
            "benign/b2.ppm"]

    def test_duplicate_filenames_across_classes_stay_unique(self, tmp_path):
        self.write_tree(tmp_path, {"a": ["img.ppm"], "b": ["img.ppm"]})
        man = scan_image_tree(tmp_path)
        assert {r.id for r in man.records} == {"a/img", "b/img"}

    def test_empty_class_dir_rejected(self, tmp_path):
        self.write_tree(tmp_path, {"a": ["x.ppm"]})
        (tmp_path / "b").mkdir()
        with pytest.raises(FormatError, match="no images"):
            scan_image_tree(tmp_path)

    def test_missing_root_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="not a directory"):
            scan_image_tree(tmp_path / "absent")

    def test_non_image_files_ignored(self, tmp_path):
        self.write_tree(tmp_path, {"a": ["x.ppm"]})
        (tmp_path / "a" / "notes.txt").write_text("skip me")
        man = scan_image_tree(tmp_path)
        assert [r.id for r in man.records] == ["a/x"]


# ---- stratified splits --------------------------------------------------------


class TestStratifiedSplit:
    def test_worked_example_4x25(self):
        # 100 samples, 4 classes of 25: test 20 (5/class), train 80
        # (20/class), labeled 4 (1/class) at the default fractions.
        man = make_manifest([25, 25, 25, 25])
        split = stratified_split(man, train_frac=0.8, labeled_frac=0.05,
                                 seed=0)
        assert len(split.test) == 20
        assert len(split.labeled) == 4
        assert len(split.unlabeled) == 76
        for name in man.classes:
            per = split.audit["per_class"][name]
            assert per == {"total": 25, "train": 20, "test": 5,
                           "labeled": 1, "unlabeled": 19}

    def test_fully_labeled_split_has_empty_unlabeled_pool(self):
        man = make_manifest([10, 10])
        split = stratified_split(man, labeled_frac=1.0, seed=3)
        assert split.unlabeled == ()
        assert len(split.labeled) == 16
        assert len(split.test) == 4

    def test_same_seed_identical(self):
        man = make_manifest([12, 9, 17])
        a = stratified_split(man, seed=11)
        b = stratified_split(man, seed=11)
        assert (a.labeled, a.unlabeled, a.test) == \
            (b.labeled, b.unlabeled, b.test)

    def test_different_seed_different_split_same_audit(self):
        man = make_manifest([25, 25])
        a = stratified_split(man, seed=0)
        b = stratified_split(man, seed=1)
        assert (a.labeled, a.unlabeled, a.test) != \
            (b.labeled, b.unlabeled, b.test)
        # equal class sizes: audit proportions must coincide exactly
        assert a.audit["per_class"] == b.audit["per_class"]

    def test_pools_disjoint_exhaustive_and_stratified(self):
        # property over 100 random manifests: the three pools partition the
        # manifest and every per-class count sits within one sample of its
        # target fraction
        rng = np.random.default_rng(0)
        for trial in range(100):
            sizes = rng.integers(2, 41, size=rng.integers(2, 5)).tolist()
            tf = float(rng.choice([0.6, 0.7, 0.8]))
            lf = float(rng.choice([0.05, 0.1, 0.3]))
            man = make_manifest(sizes)
            split = stratified_split(man, train_frac=tf, labeled_frac=lf,
                                     seed=trial)
            pools = (set(split.labeled), set(split.unlabeled),
                     set(split.test))
            assert sum(len(p) for p in pools) == len(man.records)
            assert set.union(*pools) == {r.id for r in man.records}
            for name, n in zip(man.classes, sizes):
                train_c = sum(i.startswith(name + "/")
                              for i in split.labeled + split.unlabeled)
                lab_c = sum(i.startswith(name + "/") for i in split.labeled)
                test_c = sum(i.startswith(name + "/") for i in split.test)
                assert abs(train_c - tf * n) <= 1.0
                assert abs(test_c - (1.0 - tf) * n) <= 1.0
                assert abs(lab_c - lf * train_c) <= 1.0
                assert lab_c >= 1

    def test_bad_fractions_rejected(self):
        man = make_manifest([10, 10])
        for kwargs in ({"train_frac": 0.0}, {"train_frac": 1.0},
                       {"labeled_frac": 0.0}, {"labeled_frac": 1.2}):
            with pytest.raises(ConfigError):
                stratified_split(man, **kwargs)

    def test_single_sample_class_rejected(self):
        man = make_manifest([10, 1])
        with pytest.raises(ConfigError, match=">= 2 samples"):
            stratified_split(man)

    def test_save_load_roundtrip(self, tmp_path):
        man = make_manifest([8, 8])
        split = stratified_split(man, seed=5)
        split.manifest = "manifest.json"
        split.save(tmp_path / "split.json")
        back = DatasetSplit.load(tmp_path / "split.json")
        assert back == split

    def test_load_rejects_malformed_file(self, tmp_path):
        p = tmp_path / "split.json"
        p.write_text(json.dumps({"labeled": []}))
        with pytest.raises(FormatError, match="malformed"):
            DatasetSplit.load(p)

    @pytest.mark.parametrize("text", [
        '{"labeled": [], "unlabeled": [], "test": [], "seed": Infinity, '
        '"train_frac": 0.5, "labeled_frac": 0.5}',
        "[" * 100000,
    ], ids=["infinite-seed", "too-deep"])
    def test_load_rejects_overflow_and_deep_nesting(self, tmp_path, text):
        p = tmp_path / "split.json"
        p.write_text(text)
        with pytest.raises(FormatError, match="malformed"):
            DatasetSplit.load(p)

    @pytest.mark.parametrize("field,value", [
        ("labeled", "abc"),
        ("test", ["a/1", 2]),
        ("seed", 1.7),
        ("seed", True),
        ("train_frac", "0.8"),
        ("labeled_frac", False),
        ("manifest", 5),
        ("manifest", ["m.json"]),
    ], ids=["pool-string", "pool-non-string-id", "seed-float", "seed-bool",
            "frac-string", "frac-bool", "manifest-int", "manifest-list"])
    def test_load_rejects_wrong_field_types(self, tmp_path, field, value):
        split = stratified_split(make_manifest([8, 8]), seed=5)
        split.save(tmp_path / "split.json")
        payload = json.loads((tmp_path / "split.json").read_text())
        payload[field] = value
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match=f"'{field}'"):
            DatasetSplit.load(p)


# ---- image codecs --------------------------------------------------------------


HEADER_2X2 = b"P6\n2 2\n255\n"


class TestDecodePPM:
    def test_p6_worked_fixture(self):
        raster = bytes([255, 0, 0, 0, 255, 0, 0, 0, 255, 128, 128, 128])
        img = decode_ppm_bytes(HEADER_2X2 + raster)
        expected = np.array([
            [[255, 0], [0, 128]],
            [[0, 255], [0, 128]],
            [[0, 0], [255, 128]],
        ], dtype=np.float64) / 255.0
        assert img.shape == (3, 2, 2)
        assert img.dtype == np.float64
        assert np.array_equal(img, expected)

    def test_p5_replicates_channels(self):
        img = decode_ppm_bytes(b"P5\n2 2\n255\n" + bytes([0, 64, 128, 255]))
        plane = np.array([[0, 64], [128, 255]], dtype=np.float64) / 255.0
        for c in range(3):
            assert np.array_equal(img[c], plane)

    def test_16bit_maxval_big_endian(self):
        raster = np.array([65535, 0, 32768], dtype=">u2").tobytes()
        img = decode_ppm_bytes(b"P6\n1 1\n65535\n" + raster)
        assert np.array_equal(img[:, 0, 0],
                              np.array([65535, 0, 32768]) / 65535.0)

    def test_samples_keep_the_files_integers(self):
        raster = np.array([65535, 0, 32768], dtype=">u2").tobytes()
        samples, maxval = decode_ppm_samples(b"P6\n1 1\n65535\n" + raster)
        assert samples.dtype == np.dtype("=u2") and maxval == 65535
        assert samples[:, 0, 0].tolist() == [65535, 0, 32768]
        samples, maxval = decode_ppm_samples(b"P5\n2 1\n200\n"
                                             + bytes([7, 200]))
        assert samples.dtype == np.uint8 and maxval == 200
        assert samples.tolist() == [[[7, 200]]] * 3

    def test_header_comments_and_whitespace(self):
        buf = b"P6 # magic\n  2\t1 # size\n# maxval next\n255\n" + bytes(6)
        img = decode_ppm_bytes(buf)
        assert img.shape == (3, 1, 2)
        assert np.all(img == 0.0)

    def test_bad_magic_cites_offset(self):
        with pytest.raises(FormatError, match="magic .* at byte 0"):
            decode_ppm_bytes(b"P3\n2 2\n255\n")

    def test_truncated_header(self):
        with pytest.raises(FormatError, match="expected height at byte"):
            decode_ppm_bytes(b"P6\n2")

    def test_non_numeric_field(self):
        with pytest.raises(FormatError, match="bad width"):
            decode_ppm_bytes(b"P6\nwide 2\n255\n")

    def test_maxval_range(self):
        for bad in (0, 65536):
            with pytest.raises(FormatError, match="maxval"):
                decode_ppm_bytes(f"P6\n2 2\n{bad}\n".encode() + bytes(12))

    def test_sample_above_maxval_cites_offset(self):
        with pytest.raises(FormatError, match="sample 2 exceeds maxval 1 at "
                                               "byte 10"):
            decode_ppm_bytes(b"P5\n1 2\n1\n" + bytes([1, 2]))
        with pytest.raises(FormatError, match="sample 300 exceeds maxval "
                                               "299 at byte 11"):
            decode_ppm_bytes(b"P5\n1 1\n299\n" + (300).to_bytes(2, "big"))

    def test_truncated_raster_cites_offsets(self):
        with pytest.raises(FormatError, match=r"wanted 12 bytes from byte 11, "
                                               r"got 5"):
            decode_ppm_bytes(HEADER_2X2 + bytes(5))

    def test_trailing_bytes_rejected(self):
        with pytest.raises(FormatError, match="1 trailing bytes .* byte 23"):
            decode_ppm_bytes(HEADER_2X2 + bytes(13))

    def test_origin_appears_in_error(self, tmp_path):
        p = tmp_path / "broken.ppm"
        p.write_bytes(HEADER_2X2 + bytes(3))
        with pytest.raises(FormatError, match="broken.ppm"):
            decode_image(p)

    def test_encode_decode_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        img = rng.integers(0, 256, size=(3, 5, 7)).astype(np.float64) / 255.0
        encode_ppm(tmp_path / "x.ppm", img)
        assert np.array_equal(decode_image(tmp_path / "x.ppm"), img)

    def test_encode_rejects_bad_shape(self, tmp_path):
        with pytest.raises(ShapeError):
            encode_ppm(tmp_path / "x.ppm", np.zeros((2, 2)))


class TestDecodeTensorImage:
    def test_tensor_roundtrip_bit_exact(self, tmp_path):
        img = np.random.default_rng(0).standard_normal((3, 4, 4))
        save_tensor_image(tmp_path / "x.dcst", img)
        assert np.array_equal(decode_image(tmp_path / "x.dcst"), img)

    def test_2d_tensor_replicated(self, tmp_path):
        plane = np.arange(6, dtype=np.float64).reshape(2, 3)
        save_tensor_image(tmp_path / "x.dcst", plane)
        img = decode_image(tmp_path / "x.dcst")
        assert img.shape == (3, 2, 3)
        assert all(np.array_equal(img[c], plane) for c in range(3))

    def test_wrong_rank_rejected(self, tmp_path):
        save_tensor_image(tmp_path / "x.dcst", np.zeros((2, 3, 4)))
        with pytest.raises(FormatError, match=r"\[3,H,W\]"):
            decode_image(tmp_path / "x.dcst")

    def test_unknown_extension_rejected(self, tmp_path):
        p = tmp_path / "x.png"
        p.write_bytes(b"\x89PNG")
        with pytest.raises(FormatError, match="unknown image extension"):
            decode_image(p)


# ---- bilinear resize -------------------------------------------------------------


class TestResize:
    def test_same_size_bit_identical_copy(self):
        img = np.random.default_rng(1).standard_normal((3, 6, 5))
        out = resize_bilinear(img, (6, 5))
        assert out is not img
        assert np.array_equal(out, img)

    def test_constant_preserved(self):
        img = np.full((3, 4, 4), 0.37)
        for target in ((8, 8), (2, 2), (4, 8)):
            assert np.all(resize_bilinear(img, target) == 0.37)

    def test_2x_upsample_of_affine_ramp(self):
        # bilinear interpolation reproduces affine fields exactly away from
        # the clamped border; expected value is the ramp evaluated at the
        # clipped source coordinate
        h, w = 6, 9
        yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
        img = (0.3 + 0.11 * yy - 0.07 * xx)[None]
        out = resize_bilinear(img, (2 * h, 2 * w))
        sy = np.clip((np.arange(2 * h) + 0.5) * 0.5 - 0.5, 0, h - 1)
        sx = np.clip((np.arange(2 * w) + 0.5) * 0.5 - 0.5, 0, w - 1)
        expected = 0.3 + 0.11 * sy[:, None] - 0.07 * sx[None, :]
        assert np.max(np.abs(out[0] - expected)) < 1e-12

    def test_downsample_2x_averages_neighbors(self):
        img = np.arange(16, dtype=np.float64).reshape(1, 4, 4)
        out = resize_bilinear(img, (2, 2))
        # sample points land halfway between pixel pairs on both axes
        expected = np.array([[2.5, 4.5], [10.5, 12.5]])
        assert np.array_equal(out[0], expected)

    def test_non_positive_target_rejected(self):
        img = np.zeros((3, 4, 4))
        with pytest.raises(ShapeError, match="positive"):
            resize_bilinear(img, (0, 4))

    def test_wrong_rank_rejected(self):
        with pytest.raises(ShapeError, match=r"\[C,H,W\]"):
            resize_bilinear(np.zeros((4, 4)), (2, 2))


# ---- in-memory dataset -----------------------------------------------------------


def write_constant_tree(root, values_by_class, size=4):
    """One PPM per (class, value) pair, pixel value = v/255 everywhere."""
    for cls, values in values_by_class.items():
        (root / cls).mkdir(parents=True)
        for j, v in enumerate(values):
            encode_ppm(root / cls / f"s{j}.ppm",
                       np.full((3, size, size), v / 255.0))


def write_raster(path, magic, maxval, samples):
    """A binary PPM (`samples` [H,W,3]) or PGM ([H,W]) with `maxval`."""
    h, w = samples.shape[:2]
    dtype = np.uint8 if maxval < 256 else ">u2"
    path.write_bytes(f"{magic}\n{w} {h}\n{maxval}\n".encode()
                     + samples.astype(dtype).tobytes())


# Per tree: the source of each of its six files (a/s0..a/s2, then
# b/s0..b/s2, which is manifest order) as (kind, maxval, [H,W]), the
# `image_size` it loads with, and the dtype and scale the dataset must hold.
CODEC_TREES = {
    "p6_8bit": ([("P6", 255, (6, 6))] * 6, None, np.uint8, 255.0),
    "p6_16bit": ([("P6", 65535, (6, 6))] * 6, None, np.uint16, 65535.0),
    "p5_maxval_200": ([("P5", 200, (6, 6))] * 6, None, np.uint8, 200.0),
    "dcst_negative_zero": ([("dcst", None, (6, 6))] * 6, None, np.float64,
                           1.0),
    "resized": ([("P6", 255, (6, 6))] * 5 + [("P6", 255, (9, 7))], 6,
                np.float64, 1.0),
    "mixed": ([("P6", 255, (6, 6)), ("P6", 255, (6, 6)),
               ("P5", 200, (6, 6)), ("P6", 65535, (6, 6)),
               ("dcst", None, (6, 6)), ("P5", 255, (6, 6))], None,
              np.float64, 1.0),
}


def write_codec_tree(root, sources, rng):
    for j, (kind, maxval, (h, w)) in enumerate(sources):
        folder = root / "ab"[j // 3]
        folder.mkdir(exist_ok=True)
        if kind == "dcst":
            img = rng.standard_normal((3, h, w))
            img[0, 0, 0] = -0.0
            save_tensor_image(folder / f"s{j % 3}.dcst", img)
        else:
            shape = (h, w, 3) if kind == "P6" else (h, w)
            suffix = ".ppm" if kind == "P6" else ".pgm"
            write_raster(folder / f"s{j % 3}{suffix}", kind, maxval,
                         rng.integers(0, maxval + 1, shape))


class TestArrayDataset:
    @pytest.mark.parametrize("tree", sorted(CODEC_TREES))
    def test_reads_are_bit_identical_to_the_float_path(self, tmp_path, tree):
        """`fit_normalization`, `batch` and `pixels` give the bits of
        decoding every file to floats (`decode_image`, resized where the
        tree needs it), stacking them and normalising out of place, while
        the dataset holds integer samples wherever it can."""
        sources, image_size, dtype, scale = CODEC_TREES[tree]
        write_codec_tree(tmp_path, sources, np.random.default_rng(5))
        man = scan_image_tree(tmp_path)
        ds = ArrayDataset.from_manifest(man, image_size=image_size)
        assert ds.images.dtype == dtype and ds.scale == scale
        decoded = [decode_image(tmp_path / rec.path) for rec in man.records]
        if image_size is not None:
            decoded = [resize_bilinear(img, (image_size, image_size))
                       for img in decoded]
        want = np.stack(decoded)
        order = [rec.id for rec in man.records]
        pool_ids = ["b/s0", "a/s2", "a/s0"]
        pool = want[[order.index(i) for i in sorted(pool_ids)]]
        want_mean = pool.mean(axis=(0, 2, 3))
        want_std = np.maximum(pool.std(axis=(0, 2, 3)), 1e-6)
        mean, std = ds.fit_normalization(pool_ids)
        assert mean.tobytes() == want_mean.tobytes()
        assert std.tobytes() == want_std.tobytes()
        ids = ["b/s2", "a/s1", "a/s0", "b/s1", "a/s1"]
        want_batch = (want[[order.index(i) for i in ids]]
                      - want_mean[None, :, None, None]) \
            / want_std[None, :, None, None]
        assert ds.batch(ids).tobytes() == want_batch.tobytes()
        assert ds.pixels(order).tobytes() == want.tobytes()
        if tree == "dcst_negative_zero":
            assert np.signbit(ds.pixels(["a/s0"])[0, 0, 0, 0])

    def test_from_manifest_decodes_in_manifest_order(self, tmp_path):
        write_constant_tree(tmp_path, {"a": [10, 20], "b": [30]})
        ds = ArrayDataset.from_manifest(scan_image_tree(tmp_path))
        assert ds.ids == ["a/s0", "a/s1", "b/s0"]
        assert np.array_equal(ds.labels, [0, 0, 1])
        assert np.allclose(ds.pixels(["a/s1"])[0], 20 / 255.0)

    def test_normalization_uses_only_given_pool(self, tmp_path):
        write_constant_tree(tmp_path, {"a": [0, 100], "b": [200, 255]})
        ds = ArrayDataset.from_manifest(scan_image_tree(tmp_path))
        mean, std = ds.fit_normalization(["a/s0", "b/s0"])
        pool = np.array([0, 200]) / 255.0
        assert np.allclose(mean, pool.mean())
        assert np.allclose(std, max(pool.std(), 1e-6))
        batch = ds.batch(["a/s1"])
        assert np.allclose(batch, (100 / 255.0 - mean[0]) / std[0])

    def test_stats_hash_pure_function_of_labeled_pool(self, tmp_path):
        write_constant_tree(tmp_path, {"a": [0, 100], "b": [200, 255]})
        ds = ArrayDataset.from_manifest(scan_image_tree(tmp_path))
        ds.fit_normalization(["a/s0", "b/s1"])
        h1 = stats_hash(ds)
        # same pool listed in another order, after a fit on a different pool
        ds.fit_normalization(["a/s1"])
        ds.fit_normalization(["b/s1", "a/s0"])
        assert stats_hash(ds) == h1
        # rewriting every non-pool image must not move the hash
        other = ArrayDataset(ds.ids, np.where(
            (np.arange(len(ds.ids)) == 0)[:, None, None, None]
            | (np.arange(len(ds.ids)) == 3)[:, None, None, None],
            ds.pixels(ds.ids), 0.123), ds.labels, ds.class_names)
        other.fit_normalization(["a/s0", "b/s1"])
        assert stats_hash(other) == h1
        assert ds.fit_normalization(["a/s1"]) is not None
        assert stats_hash(ds) != h1

    def test_batch_requires_fit(self, tmp_path):
        write_constant_tree(tmp_path, {"a": [1, 2]})
        ds = ArrayDataset.from_manifest(scan_image_tree(tmp_path))
        with pytest.raises(ConfigError, match="not been fit"):
            ds.batch(["a/s0"])

    def test_unknown_id_rejected(self, tmp_path):
        write_constant_tree(tmp_path, {"a": [1, 2]})
        ds = ArrayDataset.from_manifest(scan_image_tree(tmp_path))
        with pytest.raises(KeyError, match="a/s9"):
            ds.rows(["a/s0", "a/s9"])

    def test_mixed_sizes_need_explicit_target(self, tmp_path):
        write_constant_tree(tmp_path, {"a": [10]}, size=4)
        encode_ppm(tmp_path / "a" / "s1.ppm", np.full((3, 8, 8), 0.5))
        man = scan_image_tree(tmp_path)
        with pytest.raises(FormatError, match=(
                r"disagree on shape: 'a/s1' is \(3, 8, 8\) but 'a/s0' is "
                r"\(3, 4, 4\); pass image_size to resize")):
            ArrayDataset.from_manifest(man)
        ds = ArrayDataset.from_manifest(man, image_size=4)
        assert ds.pixels(ds.ids).shape == (2, 3, 4, 4)

    def test_empty_manifest_rejected(self, tmp_path):
        man = DatasetManifest(classes=("a",), records=(), root=tmp_path)
        with pytest.raises(FormatError, match="no records"):
            ArrayDataset.from_manifest(man)

    @pytest.mark.parametrize("suffix", [".ppm", ".pgm", ".dcst"])
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_record_file_names_the_record(self, tmp_path, suffix,
                                                     kind):
        write_constant_tree(tmp_path, {"a": [10]}, size=4)
        rel = f"a/gone{suffix}"
        if kind == "directory":
            (tmp_path / rel).mkdir()
        man = DatasetManifest(classes=("a",), root=tmp_path, records=(
            ManifestRecord(id="a/s0", path="a/s0.ppm", label="a"),
            ManifestRecord(id="a/gone", path=rel, label="a")))
        with pytest.raises(FormatError) as info:
            ArrayDataset.from_manifest(man)
        assert str(info.value).startswith(
            f"record 'a/gone': cannot read {tmp_path / rel}: ")
        assert isinstance(info.value.__cause__, OSError)

    def test_raster_errors_name_the_joined_path(self, tmp_path, monkeypatch):
        """A file's decode errors name it as `root / path` would, also for
        a manifest in the working directory and a path with `.` and `//`
        components."""
        write_constant_tree(tmp_path, {"a": [10, 20]}, size=2)
        (tmp_path / "a" / "s1.ppm").write_bytes(HEADER_2X2 + bytes(5))
        monkeypatch.chdir(tmp_path)
        for root, rel in [(tmp_path, "a/s1.ppm"), (".", "a/s1.ppm"),
                          (".", "./a//s1.ppm")]:
            man = DatasetManifest(classes=("a",), root=root, records=(
                ManifestRecord(id="a/s0", path="a/s0.ppm", label="a"),
                ManifestRecord(id="a/s1", path=rel, label="a")))
            with pytest.raises(FormatError) as info:
                ArrayDataset.from_manifest(man)
            assert str(info.value) == (
                f"{man.root / rel}: raster truncated at byte 16: wanted 12 "
                "bytes from byte 11, got 5")

    @pytest.mark.parametrize("image_size", [None, 6])
    def test_from_manifest_matches_stacked_decodes(self, tmp_path,
                                                   image_size):
        """Every codec path lands in the dataset array bit for bit as
        `np.stack` of the decoded (and resized) images would hold it."""
        rng = np.random.default_rng(0)
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        encode_ppm(tmp_path / "a" / "p6.ppm", rng.random((3, 6, 6)))
        raster = rng.integers(0, 65536, 6 * 6 * 3).astype(">u2").tobytes()
        (tmp_path / "a" / "p6_16bit.ppm").write_bytes(
            b"P6\n6 6\n65535\n" + raster)
        (tmp_path / "a" / "p5.pgm").write_bytes(
            b"P5\n6 6\n200\n" + bytes(rng.integers(0, 201, 36).tolist()))
        signed = rng.standard_normal((3, 6, 6))
        signed[0, 0, 0] = -0.0
        save_tensor_image(tmp_path / "b" / "rgb.dcst", signed)
        save_tensor_image(tmp_path / "b" / "gray.dcst", rng.random((6, 6)))
        if image_size is not None:
            encode_ppm(tmp_path / "b" / "big.ppm", rng.random((3, 9, 7)))
        man = scan_image_tree(tmp_path)
        ds = ArrayDataset.from_manifest(man, image_size=image_size)
        decoded = [decode_image(tmp_path / rec.path) for rec in man.records]
        if image_size is not None:
            decoded = [resize_bilinear(img, (image_size, image_size))
                       for img in decoded]
        want = np.stack(decoded)
        assert ds.images.dtype == want.dtype and ds.images.shape == want.shape
        assert ds.images.tobytes() == want.tobytes()
        assert np.signbit(ds.images[ds.index["b/rgb"], 0, 0, 0])
        assert ds.labels.tolist() == [man.label_index(r.label)
                                      for r in man.records]
        assert ds.ids == [r.id for r in man.records]

    def test_from_manifest_holds_one_copy_of_the_pixels(self, tmp_path):
        """Loading allocates the dataset array once and fills it image by
        image with the files' 8-bit samples: one byte per sample, and the
        traced peak stays near that one copy, where decoding into a list
        and stacking it holds two."""
        rng = np.random.default_rng(1)
        for cls in ("a", "b"):
            (tmp_path / cls).mkdir()
            for j in range(20):
                encode_ppm(tmp_path / cls / f"s{j:02d}.ppm",
                           rng.random((3, 32, 32)))
        man = scan_image_tree(tmp_path)
        tracemalloc.start()
        try:
            ds = ArrayDataset.from_manifest(man)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ds.images.shape == (40, 3, 32, 32)
        assert ds.images.dtype == np.uint8 and ds.scale == 255.0
        assert ds.images.nbytes == 40 * 3 * 32 * 32
        assert peak < 1.25 * ds.images.nbytes

    @pytest.mark.parametrize("dtype,scale", [
        (np.uint8, 255.0), (np.uint16, 65535.0), (np.float64, 1.0)])
    def test_fit_normalization_keeps_numpys_bits(self, dtype, scale):
        """The chunked sums give the bits of `np.mean` and `np.std` on the
        float pool, the 1e-6 floor included (channel 2 is constant), and
        trace about one chunk of floats, never the pool."""
        rng = np.random.default_rng(4)
        n = 37
        if dtype is np.float64:
            images = rng.standard_normal((n, 3, 32, 32))
        else:
            images = rng.integers(0, int(scale) + 1, (n, 3, 32, 32), dtype)
        images[:, 2] = images[0, 2, 0, 0]
        ids = [f"s{i:02d}" for i in range(n)]
        ds = ArrayDataset(ids, images, np.zeros(n, np.int64), ("a",), scale)
        pool_ids = ids[3:]
        pool = images[3:].astype(np.float64) / scale
        want_mean = pool.mean(axis=(0, 2, 3))
        want_std = np.maximum(pool.std(axis=(0, 2, 3)), 1e-6)
        assert want_std[2] == 1e-6
        tracemalloc.start()
        try:
            mean, std = ds.fit_normalization(pool_ids)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert mean.tobytes() == want_mean.tobytes()
        assert std.tobytes() == want_std.tobytes()
        assert peak < 1.5 * _FIT_CHUNK * pool[0].nbytes < 0.5 * pool.nbytes

    def test_inconsistent_arrays_rejected(self):
        with pytest.raises(ShapeError, match="inconsistent"):
            ArrayDataset(["x"], np.zeros((2, 3, 4, 4)), np.zeros(2), ("a",))


# ---- synthetic generator ----------------------------------------------------------


def spectral_oracle(manifest, image_size):
    """Independent frequency-statistic classifier: power-weighted mean
    radius of the spectrum, assigned to the nearest class frequency."""
    freqs = class_frequencies(manifest.num_classes, image_size)
    f = np.fft.fftfreq(image_size) * image_size
    radius = np.sqrt(f[:, None] ** 2 + f[None, :] ** 2)
    hits = 0
    for rec in manifest.records:
        gray = decode_image(manifest.root / rec.path)[0]
        power = np.abs(np.fft.fft2(gray - gray.mean())) ** 2
        stat = (radius * power).sum() / power.sum()
        pred = int(np.argmin(np.abs(np.log(freqs) - np.log(stat))))
        hits += manifest.classes[pred] == rec.label
    return hits / len(manifest.records)


class TestSynthGenerate:
    def test_same_seed_byte_identical_trees(self, tmp_path):
        a = synth_generate(tmp_path / "a", num_classes=2, per_class=3,
                           image_size=16, seed=7)
        b = synth_generate(tmp_path / "b", num_classes=2, per_class=3,
                           image_size=16, seed=7)
        for ra, rb in zip(a.records, b.records):
            assert ra.id == rb.id
            assert (tmp_path / "a" / ra.path).read_bytes() == \
                (tmp_path / "b" / rb.path).read_bytes()
        assert (tmp_path / "a" / "manifest.json").read_text() == \
            (tmp_path / "b" / "manifest.json").read_text()

    def test_different_seed_differs(self, tmp_path):
        a = synth_generate(tmp_path / "a", num_classes=2, per_class=1,
                           image_size=16, seed=0)
        synth_generate(tmp_path / "b", num_classes=2, per_class=1,
                       image_size=16, seed=1)
        assert (tmp_path / "a" / a.records[0].path).read_bytes() != \
            (tmp_path / "b" / a.records[0].path).read_bytes()

    def test_counts_and_manifest_match_disk(self, tmp_path):
        man = synth_generate(tmp_path, num_classes=3, per_class=5,
                             image_size=16, seed=1)
        assert man.classes == ("class0", "class1", "class2")
        assert len(man.records) == 15
        for name, ids in man.ids_by_class().items():
            assert len(ids) == 5
        for rec in man.records:
            assert (tmp_path / rec.path).is_file()
        reloaded = DatasetManifest.load(tmp_path / "manifest.json")
        assert reloaded.records == man.records

    def test_zero_overlap_separable_by_frequency_oracle(self, tmp_path):
        man = synth_generate(tmp_path, num_classes=4, per_class=12,
                             image_size=32, seed=0, overlap=0.0)
        assert spectral_oracle(man, 32) > 0.99

    def test_images_within_unit_range(self, tmp_path):
        man = synth_generate(tmp_path, num_classes=2, per_class=2,
                             image_size=16, seed=2)
        for rec in man.records:
            img = decode_image(tmp_path / rec.path)
            assert img.min() >= 0.0 and img.max() <= 1.0

    def test_invalid_arguments_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="num_classes"):
            synth_generate(tmp_path, num_classes=5)
        with pytest.raises(ConfigError, match="per_class"):
            synth_generate(tmp_path, per_class=0)
        with pytest.raises(ConfigError, match="overlap"):
            synth_generate(tmp_path, overlap=1.5)
