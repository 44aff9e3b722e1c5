"""IDX parsing, augmentation, batching, and synthetic corpus tests."""

import gzip
import struct
import tracemalloc

import numpy as np
import pytest

from stdac import dataio
from stdac.dataio import (
    AugmentConfig,
    ImageSet,
    augment_batch,
    batch_iterator,
    load_idx,
    make_synthetic_glyphs,
    read_idx,
    sample_affine_params,
    save_idx,
    warp_images,
    write_idx,
)
from stdac.errors import ConfigurationError, IdxFormatError, ShapeError


class TestIdxFormat:
    def test_round_trip_is_byte_lossless(self, rng, tmp_path):
        arr = rng.integers(0, 256, size=(7, 5, 4), dtype=np.uint8)
        path = tmp_path / "t.idx"
        write_idx(path, arr)
        np.testing.assert_array_equal(read_idx(path), arr)
        write_idx(path, arr)
        first = path.read_bytes()
        write_idx(path, arr)
        assert path.read_bytes() == first

    def test_header_layout_big_endian(self, rng, tmp_path):
        images = rng.integers(0, 256, size=(3, 28, 28), dtype=np.uint8)
        labels = rng.integers(0, 10, size=3).astype(np.uint8)
        ipath, lpath = tmp_path / "i.idx", tmp_path / "l.idx"
        write_idx(ipath, images)
        write_idx(lpath, labels)
        iblob, lblob = ipath.read_bytes(), lpath.read_bytes()
        assert struct.unpack(">I", iblob[:4])[0] == 0x00000803
        assert struct.unpack(">I", lblob[:4])[0] == 0x00000801
        assert struct.unpack(">III", iblob[4:16]) == (3, 28, 28)
        assert len(iblob) == 16 + 3 * 28 * 28

    def test_gzip_by_extension(self, rng, tmp_path):
        arr = rng.integers(0, 256, size=(4, 6, 6), dtype=np.uint8)
        path = tmp_path / "t.idx.gz"
        write_idx(path, arr)
        assert path.read_bytes()[:2] == b"\x1f\x8b"
        np.testing.assert_array_equal(read_idx(path), arr)
        with gzip.open(path, "rb") as f:
            assert struct.unpack(">I", f.read(4))[0] == 0x00000803

    def test_image_set_round_trip(self, rng, tmp_path):
        raw = rng.integers(0, 256, size=(5, 28, 28), dtype=np.uint8)
        labels = rng.integers(0, 10, size=5)
        data = ImageSet(raw[..., None] / 255.0, labels)
        save_idx(data, tmp_path / "i.idx", tmp_path / "l.idx")
        back = load_idx(tmp_path / "i.idx", tmp_path / "l.idx")
        np.testing.assert_array_equal(back.images, data.images)
        np.testing.assert_array_equal(back.labels, labels)

    def test_pixel_scaling(self, tmp_path):
        arr = np.array([[[0, 51, 255]]], dtype=np.uint8)
        write_idx(tmp_path / "t.idx", arr)
        images = load_idx(tmp_path / "t.idx").images
        np.testing.assert_allclose(images[0, 0, :, 0], [0.0, 0.2, 1.0])

    def test_images_magic_rejected_for_labels(self, rng, tmp_path):
        images = rng.integers(0, 256, size=(3, 4, 4), dtype=np.uint8)
        write_idx(tmp_path / "i.idx", images)
        write_idx(tmp_path / "fake_labels.idx", images)
        with pytest.raises(IdxFormatError, match="rank"):
            load_idx(tmp_path / "i.idx", tmp_path / "fake_labels.idx")

    def test_labels_magic_rejected_for_images(self, rng, tmp_path):
        labels = rng.integers(0, 10, size=8).astype(np.uint8)
        write_idx(tmp_path / "l.idx", labels)
        with pytest.raises(IdxFormatError, match="rank"):
            load_idx(tmp_path / "l.idx")

    def test_bad_dtype_byte_rejected(self, tmp_path):
        blob = struct.pack(">I", 0x00000D01) + struct.pack(">I", 1) + b"\x00\x00\x00\x00"
        (tmp_path / "bad.idx").write_bytes(blob)
        with pytest.raises(IdxFormatError, match="magic"):
            read_idx(tmp_path / "bad.idx")

    def test_truncated_payload_names_byte_counts(self, rng, tmp_path):
        arr = rng.integers(0, 256, size=(3, 4, 4), dtype=np.uint8)
        path = tmp_path / "t.idx"
        write_idx(path, arr)
        whole = path.read_bytes()
        path.write_bytes(whole[:-10])
        with pytest.raises(IdxFormatError, match=rf"{len(whole)}.*{len(whole) - 10}"):
            read_idx(path)

    @pytest.mark.parametrize("dims", [(2**31, 2**31, 4), (2**32 - 1, 2**32 - 1)],
                             ids=["wraps-to-0", "wraps-negative"])
    def test_size_past_int64_is_a_truncation(self, tmp_path, dims):
        path = tmp_path / "big.idx"
        path.write_bytes(struct.pack(f">{len(dims) + 1}I", 0x0800 | len(dims), *dims))
        with pytest.raises(IdxFormatError, match="truncated payload"):
            read_idx(path)

    def test_truncated_header_rejected(self, tmp_path):
        (tmp_path / "a.idx").write_bytes(b"\x00\x00")
        with pytest.raises(IdxFormatError, match="short"):
            read_idx(tmp_path / "a.idx")
        (tmp_path / "b.idx").write_bytes(struct.pack(">I", 0x00000803) + b"\x00\x00\x00\x01")
        with pytest.raises(IdxFormatError, match="header"):
            read_idx(tmp_path / "b.idx")

    def test_truncated_gzip_is_an_idx_error(self, rng, tmp_path):
        path = tmp_path / "t.idx.gz"
        write_idx(path, rng.integers(0, 256, size=(4, 6, 6), dtype=np.uint8))
        path.write_bytes(path.read_bytes()[:-12])
        with pytest.raises(IdxFormatError, match="t.idx.gz"):
            read_idx(path)

    def test_corrupted_gzip_is_an_idx_error(self, rng, tmp_path):
        path = tmp_path / "t.idx.gz"
        write_idx(path, rng.integers(0, 256, size=(4, 6, 6), dtype=np.uint8))
        blob = bytearray(path.read_bytes())
        blob[12:-8] = bytes(b ^ 0xFF for b in blob[12:-8])
        path.write_bytes(bytes(blob))
        with pytest.raises(IdxFormatError, match="t.idx.gz"):
            read_idx(path)

    def test_image_label_count_mismatch(self, rng, tmp_path):
        write_idx(tmp_path / "i.idx", rng.integers(0, 256, size=(3, 4, 4), dtype=np.uint8))
        write_idx(tmp_path / "l.idx", rng.integers(0, 10, size=5).astype(np.uint8))
        with pytest.raises(IdxFormatError, match="mismatch"):
            load_idx(tmp_path / "i.idx", tmp_path / "l.idx")


class TestImageSet:
    def test_rejects_out_of_range_pixels(self):
        with pytest.raises(ConfigurationError):
            ImageSet(np.full((1, 2, 2, 1), 1.5))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_pixels(self, value):
        images = np.full((2, 28, 28, 1), 0.5)
        images[1, 3, 4, 0] = value
        with pytest.raises(ConfigurationError, match="finite"):
            ImageSet(images)
        with pytest.raises(ConfigurationError, match="finite"):
            ImageSet(np.full((2, 28, 28, 1), value))

    def test_rejects_wrong_rank(self):
        with pytest.raises(ShapeError):
            ImageSet(np.zeros((2, 4, 4)))

    def test_rejects_label_length_mismatch(self):
        with pytest.raises(ShapeError):
            ImageSet(np.zeros((2, 4, 4, 1)), np.array([0, 1, 2]))


class TestAugmentation:
    def test_identity_config_is_identity_map(self, rng):
        batch = rng.uniform(size=(3, 9, 9, 1))
        cfg = AugmentConfig(rotation_degrees=0.0, translate_fraction=0.0,
                            scale_range=(1.0, 1.0))
        out = augment_batch(batch, cfg, rng)
        assert out is batch

    def test_identity_config_draws_nothing(self):
        cfg = AugmentConfig(rotation_degrees=0.0, translate_fraction=0.0,
                            scale_range=(1.0, 1.0))
        a, b = np.random.default_rng(7), np.random.default_rng(7)
        augment_batch(np.zeros((2, 4, 4, 1)), cfg, a)
        assert a.uniform() == b.uniform()

    def test_fixed_seed_reproduces_batch(self, rng):
        batch = rng.uniform(size=(4, 9, 9, 1))
        cfg = AugmentConfig()
        out1 = augment_batch(batch, cfg, np.random.default_rng(3))
        out2 = augment_batch(batch, cfg, np.random.default_rng(3))
        np.testing.assert_array_equal(out1, out2)

    def test_quarter_turn_relocates_delta_pixel(self):
        # source map x_s = -y_t, y_s = x_t; the delta at (row 2, col 6) of a
        # 9x9 grid sits at normalized (0.5, -0.5) and must reappear where
        # (-y_t, x_t) hits it: (row 2, col 2)
        img = np.zeros((1, 9, 9, 1))
        img[0, 2, 6, 0] = 1.0
        theta = np.array([[[0.0, -1.0, 0.0], [1.0, 0.0, 0.0]]])
        out = warp_images(img, theta)[0, :, :, 0]
        assert np.unravel_index(np.argmax(out), out.shape) == (2, 2)
        assert out[2, 2] == pytest.approx(1.0, abs=1e-12)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    def test_zoom_out_pads_corners_with_zeros(self):
        ones = np.ones((1, 9, 9, 1))
        theta = np.array([[[1.5, 0.0, 0.0], [0.0, 1.5, 0.0]]])
        out = warp_images(ones, theta)[0, :, :, 0]
        assert out[0, 0] == 0.0
        assert out[4, 4] == pytest.approx(1.0, abs=1e-12)

    def test_sampled_params_respect_ranges(self, rng):
        cfg = AugmentConfig(rotation_degrees=15.0, translate_fraction=0.2,
                            scale_range=(0.8, 1.2))
        theta = sample_affine_params(cfg, 500, rng)
        scales = np.hypot(theta[:, 0, 0], theta[:, 1, 0])
        assert np.all((scales >= 0.8) & (scales <= 1.2))
        angles = np.degrees(np.arctan2(theta[:, 1, 0], theta[:, 0, 0]))
        assert np.all(np.abs(angles) <= 15.0)
        # translations are doubled into the 2-unit normalized span
        assert np.all(np.abs(theta[:, :, 2]) <= 0.4)

    def test_invalid_scale_range_rejected(self):
        with pytest.raises(ConfigurationError):
            AugmentConfig(scale_range=(1.2, 0.8))
        with pytest.raises(ConfigurationError):
            AugmentConfig(scale_range=(0.0, 1.0))


class TestBatchIterator:
    def test_sizes_ten_by_four(self):
        sizes = [len(b) for b in batch_iterator(10, 4, seed=0)]
        assert sizes == [4, 4, 2]

    def test_union_covers_everything(self):
        batches = list(batch_iterator(10, 4, seed=1))
        assert sorted(np.concatenate(batches).tolist()) == list(range(10))

    def test_trailing_singleton_dropped(self):
        batches = list(batch_iterator(9, 4, seed=0))
        assert [len(b) for b in batches] == [4, 4]
        assert len(np.concatenate(batches)) == 8

    def test_same_seed_same_order(self):
        a = np.concatenate(list(batch_iterator(50, 8, seed=4, epoch=2)))
        b = np.concatenate(list(batch_iterator(50, 8, seed=4, epoch=2)))
        np.testing.assert_array_equal(a, b)

    def test_epoch_reshuffles(self):
        a = np.concatenate(list(batch_iterator(50, 8, seed=4, epoch=1)))
        b = np.concatenate(list(batch_iterator(50, 8, seed=4, epoch=2)))
        assert not np.array_equal(a, b)

    def test_batch_size_below_two_rejected(self):
        with pytest.raises(ConfigurationError):
            list(batch_iterator(10, 1, seed=0))


class TestSyntheticGlyphs:
    def test_shapes_range_and_labels(self):
        data = make_synthetic_glyphs(30, seed=1, classes=4)
        assert data.images.shape == (30, 28, 28, 1)
        assert data.images.min() >= 0.0 and data.images.max() <= 1.0
        assert data.labels.shape == (30,)
        assert set(np.unique(data.labels)) <= set(range(4))

    def test_deterministic_per_seed(self):
        a = make_synthetic_glyphs(12, seed=5, classes=3)
        b = make_synthetic_glyphs(12, seed=5, classes=3)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)
        c = make_synthetic_glyphs(12, seed=6, classes=3)
        assert not np.array_equal(a.images, c.images)

    def test_zero_jitter_collapses_to_class_stamps(self, monkeypatch):
        monkeypatch.setattr(dataio, "GLYPH_JITTER",
                            AugmentConfig(rotation_degrees=0.0, translate_fraction=0.0,
                                          scale_range=(1.0, 1.0)))
        data = make_synthetic_glyphs(20, seed=2, classes=3)
        for c in range(3):
            idx = np.flatnonzero(data.labels == c)
            if len(idx) < 2:
                continue
            ref = data.images[idx[0]]
            for i in idx[1:]:
                np.testing.assert_allclose(data.images[i], ref, atol=1e-12)
        first_by_class = [data.images[np.flatnonzero(data.labels == c)[0]]
                          for c in range(3)]
        assert np.abs(first_by_class[0] - first_by_class[1]).max() > 0.5

    def test_blocks_give_the_whole_corpus_bytes(self, monkeypatch):
        whole = make_synthetic_glyphs(30, seed=5, classes=4)
        assert len(whole) <= dataio.GLYPH_BLOCK
        monkeypatch.setattr(dataio, "GLYPH_BLOCK", 7)
        blocked = make_synthetic_glyphs(30, seed=5, classes=4)
        assert blocked.images.tobytes() == whole.images.tobytes()
        assert blocked.labels.tobytes() == whole.labels.tobytes()

    def test_peak_memory_does_not_grow_with_the_corpus(self, monkeypatch):
        # only the output grows with n; each block's warp transient does not
        monkeypatch.setattr(dataio, "GLYPH_BLOCK", 32)

        def transient(n):
            tracemalloc.start()
            tracemalloc.reset_peak()
            try:
                data = make_synthetic_glyphs(n, seed=5, classes=4)
                return tracemalloc.get_traced_memory()[1] - data.images.nbytes
            finally:
                tracemalloc.stop()

        small, large = transient(64), transient(256)
        assert large <= 1.1 * small, (small, large)
