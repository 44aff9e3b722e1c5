"""The side thread and the one-thread BLAS pin: where work runs, and that the
bytes of a run do not depend on the BLAS thread count the machine would pick."""

import os
import signal
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

import stdac
from stdac import nn, tensor
from stdac.optim import Adam
from stdac.tensor import Tensor, both, no_grad

SRC = str(Path(stdac.__file__).resolve().parent.parent)
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class TestBoth:
    def test_f_runs_on_the_side_thread_and_g_here(self):
        f_thread, g_thread = both(threading.get_ident, threading.get_ident)
        assert g_thread == threading.get_ident()
        assert f_thread != g_thread

    def test_none_gives_none_and_a_lone_call_runs_here(self):
        here = threading.get_ident()
        assert both(None, threading.get_ident) == (None, here)
        assert both(threading.get_ident, None) == (here, None)
        assert both(None, None) == (None, None)

    def test_side_exception_is_raised_in_the_caller(self):
        def boom():
            raise ValueError("side")
        with pytest.raises(ValueError, match="side"):
            both(boom, lambda: 1)
        assert both(lambda: 2, lambda: 3) == (2, 3)

    def test_caller_exception_waits_for_the_side_work(self):
        started, finished = threading.Event(), []

        def slow():
            started.set()
            threading.Event().wait(0.2)
            finished.append(True)

        def fail():
            assert started.wait(10)
            raise KeyError("here")
        with pytest.raises(KeyError):
            both(slow, fail)
        assert finished == [True]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
    def test_a_forked_child_gets_its_own_side_thread(self):
        out = run_python("""
            import os, signal
            from stdac.tensor import both

            both(int, int)
            pid = os.fork()
            if pid == 0:
                signal.alarm(10)
                os._exit(0 if both(lambda: 1, lambda: 2) == (1, 2) else 1)
            print(os.waitpid(pid, 0)[1])
        """, "1")
        assert out.split() == ["0"]

    @pytest.mark.skipif(not hasattr(signal, "alarm"), reason="no alarm on this platform")
    def test_a_nested_call_runs(self):
        # a single pooled side worker would wait on the nested call forever
        out = run_python("""
            import signal
            from stdac.tensor import both

            signal.alarm(10)
            print(both(lambda: both(int, int), int))
        """, "1")
        assert out.strip() == "((0, 0), 0)"


class TestForwardThreads:
    """The large forward GEMMs give the side thread half of the batch rows;
    the small ones run whole on the caller. A conv runs each half's GEMM in
    blocks of images."""

    @pytest.fixture
    def matmuls(self, monkeypatch):
        seen = []
        matmul = np.matmul

        def recording(a, b, **kwargs):
            seen.append((len(a), threading.get_ident()))
            return matmul(a, b, **kwargs)
        monkeypatch.setattr(np, "matmul", recording)
        return seen

    @pytest.mark.parametrize("x_shape, k_shape, padding, split", [
        ((128, 14, 14, 64), (3, 3, 64, 128), "same", True),     # block2/conv
        ((128, 14, 14, 1), (5, 5, 1, 20), "valid", False),      # st1 loc/conv1
        ((128, 5, 5, 20), (5, 5, 20, 20), "valid", False),      # st1 loc/conv2
    ], ids=["block2", "st1-loc-conv1", "st1-loc-conv2"])
    def test_conv2d(self, x_shape, k_shape, padding, split, matmuls, rng):
        x = Tensor(rng.normal(size=x_shape))
        y = nn.conv2d(x, Tensor(rng.normal(size=k_shape)),
                      Tensor(rng.normal(size=k_shape[-1])), padding)
        rows = y.shape[0] * y.shape[1] * y.shape[2]
        if not split:
            self.check(matmuls, rows, split)
            return
        # each thread's blocks add up to its half, and each block's M*K*N
        # stays at SPLIT_MIN_WORK or more
        here, per_thread = threading.get_ident(), {}
        for n, ident in matmuls:
            per_thread[ident] = per_thread.get(ident, 0) + n
        assert sorted(per_thread.values()) == [rows // 2, rows - rows // 2]
        assert len(per_thread) == 2 and here in per_thread
        assert len(matmuls) > 2
        assert all(n * np.prod(k_shape) >= tensor.SPLIT_MIN_WORK for n, _ in matmuls)

    @pytest.mark.parametrize("d_in, d_out, split", [
        (2304, 3096, True),     # fc/dense
        (2304, 50, False),      # st3 loc/dense1
        (3096, 10, False),      # head/dense
    ], ids=["fc", "st3-loc-dense1", "head"])
    def test_dense(self, d_in, d_out, split, matmuls, rng):
        with no_grad():
            nn.dense(Tensor(rng.normal(size=(128, d_in))), Tensor(rng.normal(size=(d_in, d_out))),
                     Tensor(rng.normal(size=d_out)))
        self.check(matmuls, 128, split)

    @staticmethod
    def check(matmuls, rows, split):
        here = threading.get_ident()
        if split:
            assert sorted(n for n, _ in matmuls) == [rows // 2, rows - rows // 2]
            assert len({ident for _, ident in matmuls}) == 2
            assert here in {ident for _, ident in matmuls}
        else:
            assert matmuls == [(rows, here)]


class TestPerImageThreads:
    """Batch norm's and the pool's per-image passes give the side thread half
    of the images; small maps run whole on the caller."""

    @pytest.fixture
    def passes(self, monkeypatch):
        """Per `split_rows` call of nn, the rows each run got and its thread."""
        seen = []
        split_rows = tensor.split_rows

        def recording(n, row_work, run, **kwargs):
            runs = []
            seen.append(runs)

            def traced(lo, hi):
                runs.append((hi - lo, threading.get_ident()))
                run(lo, hi)
            split_rows(n, row_work, traced, **kwargs)
        monkeypatch.setattr(nn, "split_rows", recording)
        return seen

    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    def test_block1_batch_norm(self, train, passes, rng):
        x = Tensor(rng.normal(size=(128, 28, 28, 64)), requires_grad=True)
        gamma, beta = Tensor(np.ones(64), requires_grad=True), Tensor(np.zeros(64))
        out = nn.batch_norm(x, gamma, beta, np.zeros(64), np.ones(64), train)
        out._backward(rng.normal(size=x.shape))
        # train: centre, scale, recompute and dx tail; eval: scale, recompute
        self.check(passes, 128, 4 if train else 2, split=True)

    def test_block1_pool(self, passes, rng):
        x = Tensor(rng.normal(size=(128, 28, 28, 64)), requires_grad=True)
        nn.maxpool2d(x)._backward(rng.normal(size=(128, 14, 14, 64)))
        self.check(passes, 128, 2, split=True)

    @pytest.mark.parametrize("batch", [128, 256])
    def test_st1_localization_pool_stays_whole(self, batch, passes, rng):
        # 784 floats an image: a half of 128 images holds 100352, below
        # SPLIT_MIN_FLOATS
        x = Tensor(rng.normal(size=(batch, 28, 28, 1)), requires_grad=True)
        nn.maxpool2d(x)._backward(rng.normal(size=(batch, 14, 14, 1)))
        self.check(passes, batch, 2, split=False)

    @staticmethod
    def check(passes, rows, calls, split):
        here = threading.get_ident()
        assert len(passes) == calls
        for runs in passes:
            if split:
                assert sorted(n for n, _ in runs) == [rows // 2, rows - rows // 2]
                assert len({ident for _, ident in runs}) == 2
                assert here in {ident for _, ident in runs}
            else:
                assert runs == [(rows, here)]


class TestBackwardThreads:
    """Gradients reach `accumulate_grad` on the caller's thread, in the order
    the op names its inputs, whichever thread computed them."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        accumulate = Tensor.accumulate_grad

        def recording(t, g):
            seen.append((t, threading.get_ident()))
            accumulate(t, g)
        monkeypatch.setattr(Tensor, "accumulate_grad", recording)
        return seen

    def test_conv2d_kernel_bias_then_input(self, calls, rng):
        x = Tensor(rng.normal(size=(2, 5, 5, 3)), requires_grad=True)
        k = Tensor(rng.normal(size=(3, 3, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)
        nn.conv2d(x, k, b)._backward(rng.normal(size=(2, 5, 5, 4)))
        assert [t for t, _ in calls] == [k, b, x]
        assert {ident for _, ident in calls} == {threading.get_ident()}

    def test_matmul_self_then_other(self, calls, rng):
        a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        a.matmul(w)._backward(rng.normal(size=(4, 5)))
        assert [t for t, _ in calls] == [a, w]
        assert {ident for _, ident in calls} == {threading.get_ident()}

    def test_adam_runs_on_both_threads(self, monkeypatch, rng):
        threads = set()
        update = Adam._update

        def recording(self, blocks, *args):
            threads.add(threading.get_ident())
            update(self, blocks, *args)
        monkeypatch.setattr(Adam, "_update", recording)
        p = nn.Parameter(rng.normal(size=5), "p")
        p.grad = rng.normal(size=5)
        Adam([p]).step()
        assert len(threads) == 2 and threading.get_ident() in threads


def run_python(code: str, blas_threads: str | None) -> str:
    """stdout of `code` in a fresh interpreter, with the BLAS thread
    variables unset or all set to `blas_threads`."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
    if blas_threads is not None:
        env.update({k: blas_threads for k in BLAS_ENV})
    env["PYTHONPATH"] = SRC
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestOneBlasThread:
    def test_openblas_reports_one_thread_after_import(self):
        # the libraries NumPy loaded, read before stdac is imported
        out = run_python("""
            import ctypes
            import numpy

            def openblas():
                with open("/proc/self/maps") as f:
                    return sorted({line.split()[-1] for line in f
                                   if "openblas" in line.lower()})

            libs = openblas()
            import stdac
            for lib in libs:
                handle = ctypes.CDLL(lib)
                for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                            "scipy_openblas_get_num_threads64_",
                            "scipy_openblas_get_num_threads"):
                    fn = getattr(handle, sym, None)
                    if fn is not None:
                        fn.restype = ctypes.c_int
                        print(fn())
                        break
        """, None)
        counts = out.split()
        if not counts:
            pytest.skip("no OpenBLAS thread-count symbol in this process")
        assert counts == ["1"] * len(counts)

    def test_two_steps_same_bytes_with_the_thread_variable_unset_or_one(self):
        # batch 32 of 28x28 images: the conv GEMMs are large enough that a
        # multi-thread OpenBLAS would split them
        code = """
            import hashlib
            from stdac.dac import Backbone, BackboneConfig, ThresholdSchedule, train_epoch
            from stdac.dataio import AugmentConfig, make_synthetic_glyphs
            from stdac.optim import Adam

            images = make_synthetic_glyphs(32, seed=5, classes=4).images
            model = Backbone(BackboneConfig(st_layer_count=1, cluster_count=4), seed=2)
            opt = Adam(model.params(), lr=1e-3)
            h = hashlib.sha256()
            for epoch in (1, 2):
                stats = train_epoch(model, images, ThresholdSchedule(u0=0.95, l0=0.6), opt,
                                    batch_size=32, seed=3, epoch=epoch,
                                    augment=AugmentConfig())
                h.update(repr(stats.loss).encode())
            for arr in list(model.state_dict().values()) + opt.m + opt.v:
                h.update(arr.tobytes())
            print(h.hexdigest())
        """
        assert run_python(code, None) == run_python(code, "1")

