"""Checkpoint container tests: binary layout, round trips, model state."""

import struct
import tracemalloc

import numpy as np
import pytest

import test_dac
from stdac import nn
from stdac.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from stdac.cli import backbone_from_state
from stdac.dac import Backbone, BackboneConfig, predict_features
from stdac.dataio import make_synthetic_glyphs
from stdac.errors import CheckpointError
from stdac.tensor import Tensor


class TestContainer:
    def test_round_trip_bit_exact(self, rng, tmp_path):
        records = {
            "a/weight": rng.normal(size=(3, 4)),
            "a/bias": rng.normal(size=(4,)),
            "scalar": np.array(3.25),
            "deep": rng.normal(size=(2, 3, 2, 2)),
        }
        path = tmp_path / "m.stdac"
        save_checkpoint(path, records)
        back = load_checkpoint(path)
        assert list(back) == list(records)
        for name in records:
            arr = np.asarray(records[name], dtype=np.float64)
            np.testing.assert_array_equal(back[name], arr)
            assert back[name].dtype == np.float64

    def test_layout_starts_with_magic(self, tmp_path):
        path = tmp_path / "m.stdac"
        save_checkpoint(path, {"x": np.zeros(2)})
        blob = path.read_bytes()
        assert blob[:7] == MAGIC == b"STDAC01"
        # name length, name, rank, dim, payload
        assert struct.unpack("<I", blob[7:11])[0] == 1
        assert blob[11:12] == b"x"
        assert struct.unpack("<I", blob[12:16])[0] == 1
        assert struct.unpack("<I", blob[16:20])[0] == 2
        assert len(blob) == 20 + 2 * 8

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.stdac"
        path.write_bytes(b"NOPE123" + b"\x00" * 20)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_truncation_names_offset_and_field(self, rng, tmp_path):
        path = tmp_path / "m.stdac"
        save_checkpoint(path, {"weights": rng.normal(size=(4, 4))})
        blob = path.read_bytes()
        path.write_bytes(blob[:-9])
        with pytest.raises(CheckpointError, match="payload of 'weights'"):
            load_checkpoint(path)
        path.write_bytes(blob[:9])
        with pytest.raises(CheckpointError, match="name"):
            load_checkpoint(path)

    @pytest.mark.parametrize("dims", [(2**31, 2**31, 4), (2**32 - 1, 2**32 - 1)],
                             ids=["wraps-to-0", "wraps-negative"])
    def test_size_past_int64_is_a_truncation(self, tmp_path, dims):
        path = tmp_path / "m.stdac"
        path.write_bytes(MAGIC + struct.pack("<I", 1) + b"w"
                         + struct.pack(f"<{len(dims) + 1}I", len(dims), *dims))
        with pytest.raises(CheckpointError, match="payload of 'w'"):
            load_checkpoint(path)

    def test_non_utf8_name_names_offset(self, tmp_path):
        path = tmp_path / "m.stdac"
        save_checkpoint(path, {"x": np.zeros(1)})
        blob = bytearray(path.read_bytes())
        name_at = len(MAGIC) + 4
        blob[name_at] = 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match=f"offset {name_at} is not UTF-8"):
            load_checkpoint(path)

    def test_duplicate_names_rejected(self, tmp_path):
        path = tmp_path / "m.stdac"
        save_checkpoint(path, {"x": np.zeros(1)})
        blob = path.read_bytes()
        path.write_bytes(blob + blob[len(MAGIC):])
        with pytest.raises(CheckpointError, match="duplicate"):
            load_checkpoint(path)

    def test_load_makes_one_copy_of_each_payload(self, rng, tmp_path):
        # the file's bytes and the arrays, with no bytes copy of a payload
        # between them: a freed payload copy sat above the arrays in the heap
        records = {"big": rng.normal(size=(1024, 1024)), "small": rng.normal(size=64)}
        path = tmp_path / "m.stdac"
        save_checkpoint(path, records)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            back = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back["big"].flags.writeable
        assert peak < size + records["big"].nbytes + (1 << 20), (peak, size)

    def test_failed_save_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "m.stdac"
        save_checkpoint(path, {"old": np.arange(3.0)})
        before = path.read_bytes()
        # the second record cannot be cast to float64, after the first is written
        with pytest.raises(ValueError):
            save_checkpoint(path, {"a": np.zeros(3), "b": np.array(["x"])})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.stdac"]
        save_checkpoint(path, {"new": np.ones(2)})
        assert list(load_checkpoint(path)) == ["new"]
        assert [p.name for p in tmp_path.iterdir()] == ["m.stdac"]

    def test_empty_checkpoint_is_empty_dict(self, tmp_path):
        path = tmp_path / "m.stdac"
        save_checkpoint(path, {})
        assert load_checkpoint(path) == {}


class TestModelState:
    def test_backbone_state_round_trip_with_bn_buffers(self, rng, tmp_path):
        cfg = BackboneConfig(st_layer_count=1, cluster_count=4, input_size=8)
        model = Backbone(cfg, seed=7)
        # train step so running statistics move off their initial values
        model(Tensor(rng.uniform(size=(3, 8, 8, 1))), train=True)
        state = model.state_dict()
        assert any(name.endswith("running_mean") or "running" in name
                   for name in state), sorted(state)[:5]

        path = tmp_path / "m.stdac"
        save_checkpoint(path, state)
        twin = Backbone(cfg, seed=0)
        twin.load_state(load_checkpoint(path))
        for name, arr in twin.state_dict().items():
            np.testing.assert_array_equal(arr, state[name])

        x = rng.uniform(size=(2, 8, 8, 1))
        from stdac.tensor import no_grad
        with no_grad():
            a = model(Tensor(x), train=False).data
            b = twin(Tensor(x), train=False).data
        np.testing.assert_array_equal(a, b)

    def test_load_state_rejects_missing_and_extra(self):
        cfg = BackboneConfig(st_layer_count=0, cluster_count=4, input_size=8)
        model = Backbone(cfg)
        state = model.state_dict()
        removed = dict(state)
        removed.pop(sorted(state)[0])
        with pytest.raises(CheckpointError, match="missing"):
            model.load_state(removed)
        extra = dict(state)
        extra["bogus/param"] = np.zeros(3)
        with pytest.raises(CheckpointError, match="unexpected"):
            model.load_state(extra)

    def test_load_state_rejects_shape_mismatch(self):
        cfg = BackboneConfig(st_layer_count=0, cluster_count=4, input_size=8)
        model = Backbone(cfg)
        state = model.state_dict()
        name = next(iter(state))
        state[name] = np.zeros(state[name].shape + (2,))
        with pytest.raises(CheckpointError, match="shape"):
            model.load_state(state)

    def test_failed_load_leaves_the_model_unchanged(self):
        cfg = BackboneConfig(st_layer_count=1, cluster_count=4, input_size=8)
        model = Backbone(cfg, seed=1)
        before = {k: v.tobytes() for k, v in model.state_dict().items()}
        state = Backbone(cfg, seed=2).state_dict()
        last = list(state)[-1]
        state[last] = np.zeros(state[last].size + 1)
        with pytest.raises(CheckpointError, match=f"shape mismatch for '{last}'"):
            model.load_state(state)
        assert {k: v.tobytes() for k, v in model.state_dict().items()} == before

    def test_st_count_mismatch_is_detected(self):
        small = Backbone(BackboneConfig(st_layer_count=0, cluster_count=4, input_size=8))
        large = Backbone(BackboneConfig(st_layer_count=1, cluster_count=4, input_size=8))
        with pytest.raises(CheckpointError):
            small.load_state(large.state_dict())
        with pytest.raises(CheckpointError):
            large.load_state(small.state_dict())


# The record order of a 3-ST backbone: every parameter, then every BN buffer.
# This order is the checkpoint layout.
ST3_RECORD_NAMES = [
    "st1/loc/conv1/kernel", "st1/loc/conv1/bias", "st1/loc/conv2/kernel",
    "st1/loc/conv2/bias", "st1/loc/dense1/weight", "st1/loc/dense1/bias",
    "st1/loc/theta/weight", "st1/loc/theta/bias",
    "st2/loc/dense1/weight", "st2/loc/dense1/bias", "st2/loc/theta/weight",
    "st2/loc/theta/bias",
    "st3/loc/dense1/weight", "st3/loc/dense1/bias", "st3/loc/theta/weight",
    "st3/loc/theta/bias",
    "block1/conv/kernel", "block1/conv/bias", "block1/bn/gamma", "block1/bn/beta",
    "block1/pool_bn/gamma", "block1/pool_bn/beta",
    "block2/conv/kernel", "block2/conv/bias", "block2/bn/gamma", "block2/bn/beta",
    "block2/pool_bn/gamma", "block2/pool_bn/beta",
    "block3/conv/kernel", "block3/conv/bias", "block3/bn/gamma", "block3/bn/beta",
    "block3/pool_bn/gamma", "block3/pool_bn/beta",
    "fc/dense/weight", "fc/dense/bias", "fc/bn/gamma", "fc/bn/beta",
    "head/dense/weight", "head/dense/bias", "head/bn/gamma", "head/bn/beta",
    "block1/bn/running_mean", "block1/bn/running_var",
    "block1/pool_bn/running_mean", "block1/pool_bn/running_var",
    "block2/bn/running_mean", "block2/bn/running_var",
    "block2/pool_bn/running_mean", "block2/pool_bn/running_var",
    "block3/bn/running_mean", "block3/bn/running_var",
    "block3/pool_bn/running_mean", "block3/pool_bn/running_var",
    "fc/bn/running_mean", "fc/bn/running_var",
    "head/bn/running_mean", "head/bn/running_var",
]


class TestRecordOrder:
    @pytest.mark.parametrize("st_count,records", [(0, 42), (1, 50), (2, 54), (3, 58)])
    def test_record_count(self, st_count, records):
        model = Backbone(BackboneConfig(st_layer_count=st_count), seed=3)
        assert len(model.state_dict()) == records

    def test_st3_names_in_order(self):
        model = Backbone(BackboneConfig(st_layer_count=3), seed=3)
        assert list(model.state_dict()) == ST3_RECORD_NAMES
        assert [p.name for p in model.params()] == ST3_RECORD_NAMES[:42]
        assert [name for name, _ in model.buffers()] == ST3_RECORD_NAMES[42:]

    @pytest.mark.parametrize("st_count", [0, 3])
    def test_checkpoint_bytes_survive_rebuild(self, tmp_path, st_count):
        first, second = tmp_path / "a.stdac", tmp_path / "b.stdac"
        save_checkpoint(first, Backbone(BackboneConfig(st_layer_count=st_count),
                                        seed=3).state_dict())
        twin = backbone_from_state(load_checkpoint(first))
        save_checkpoint(second, twin.state_dict())
        assert second.read_bytes() == first.read_bytes()


class TestRestore:
    """`backbone_from_state` builds the model without an init (seed None) and
    fills every value from the checkpoint."""

    @staticmethod
    def saved(tmp_path, st_count):
        model = Backbone(BackboneConfig(st_layer_count=st_count), seed=3)
        test_dac.TestEvalPoolsFirst.perturbed(model, st_count)
        path = tmp_path / "m.stdac"
        save_checkpoint(path, model.state_dict())
        return model, load_checkpoint(path)

    def test_restore_draws_no_init(self, tmp_path, monkeypatch):
        _, state = self.saved(tmp_path, 1)
        seeded = nn.param_rng

        def unseeded_only(seed, name):
            if seed is not None:
                raise AssertionError(f"restore drew an init for {name}")
            return seeded(seed, name)
        monkeypatch.setattr(nn, "param_rng", unseeded_only)
        model = backbone_from_state(state)
        assert model.config.st_layer_count == 1

    @pytest.mark.parametrize("st_count", [0, 1, 3])
    def test_every_value_is_the_checkpoint_s(self, tmp_path, st_count):
        _, state = self.saved(tmp_path, st_count)
        model = backbone_from_state(state)
        values = {p.name: p.data for p in model.params()}
        values.update(model.buffers())
        assert list(values) == list(state)
        for name, arr in values.items():
            assert arr.dtype == np.float64 and arr.flags.c_contiguous, name
            assert arr.shape == state[name].shape, name
            assert arr.tobytes() == state[name].tobytes(), name

    def test_restored_features_equal_the_saved_model_s(self, tmp_path):
        images = make_synthetic_glyphs(385, seed=1).images
        model, state = self.saved(tmp_path, 1)
        want = predict_features(model, images)
        got = predict_features(backbone_from_state(state), images)
        assert got.tobytes() == want.tobytes()
