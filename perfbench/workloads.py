"""The benchmark's workloads.

Each workload is a closed loop with one caller: it builds its inputs from the
seed, sets the program up, then runs one operation at a time (a training step
or an evaluation batch) through stdac's public functions. Every operation's
outputs are checked after it is timed.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from stdac import checkpoint, cli, dac, dataio
from stdac.optim import Adam

BATCH = 128
EVAL_BATCH = 256
CLUSTERS = 10
# Eight distinct batches per corpus: enough that steps do not repeat inputs
# back to back, small enough that generating them stays a minor part of setup.
TRAIN_CORPUS = 8 * BATCH
EVAL_CORPUS = 8 * EVAL_BATCH
SCHEDULE = dac.ThresholdSchedule()
# Rows are softmax outputs scaled to unit L2 norm; allow float64 rounding.
NORM_TOL = 1e-9


class CheckFailed(Exception):
    """An operation's output broke one of the benchmark's output checks."""


@contextlib.contextmanager
def patched(replacements):
    """Set (owner, attribute, value) triples and restore the old values on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    for owner, attr, value in replacements:
        setattr(owner, attr, value)
    try:
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


class Capture:
    """Keeps the arrays the checks need from inside dac's training and
    evaluation loops. Only `.data` is kept, so no graph outlives its step."""

    def __init__(self):
        self.features = None
        self.ids = None

    def hooks(self):
        similarity, predict, assign = (dac.pairwise_similarity, dac.predict_features,
                                       dac.cluster_assign)

        def pairwise_similarity(features):
            self.features = features.data
            return similarity(features)

        def predict_features(*args, **kwargs):
            self.features = predict(*args, **kwargs)
            return self.features

        def cluster_assign(features):
            self.ids = assign(features)
            return self.ids

        return patched([(dac, "pairwise_similarity", pairwise_similarity),
                        (dac, "predict_features", predict_features),
                        (dac, "cluster_assign", cluster_assign)])


def check_features(features: np.ndarray, ids: np.ndarray) -> None:
    """Label-feature rows lie on the nonnegative unit sphere; ids in [0, k)."""
    if features is None or features.shape[1:] != (CLUSTERS,):
        raise CheckFailed(f"feature rows missing or misshapen: "
                          f"{None if features is None else features.shape}")
    if not np.isfinite(features).all() or features.min() < 0.0:
        raise CheckFailed("feature rows are not finite and nonnegative")
    err = np.abs(np.linalg.norm(features, axis=1) - 1.0).max()
    if err > NORM_TOL:
        raise CheckFailed(f"feature rows are off unit L2 norm by {err:.3g}")
    if ids.shape != (len(features),) or ids.min() < 0 or ids.max() >= CLUSTERS:
        raise CheckFailed(f"cluster ids leave [0, {CLUSTERS})")


@dataclass
class Outcome:
    """What one operation produced, for the checks and the report."""
    images: int
    loss: float = float("nan")
    selected_fraction: float = float("nan")
    scores: tuple[float, float, float] | None = None
    features: np.ndarray | None = None
    ids: np.ndarray | None = None


class Train:
    """Training steps with ST layers on the 28x28 input, the 7x7x128 map and
    the 3x3x256 map, and the default augmentation: each call of
    `dac.train_epoch` gets one batch of 128, so one call is one step
    (augmentation, forward, pair selection, loss, backward, Adam)."""

    kind = "train"

    def __init__(self, seed: int):
        self.seed = seed
        self.augment = dataio.AugmentConfig()

    def prepare(self, workdir: Path) -> None:
        pass

    def setup(self):
        images = dataio.make_synthetic_glyphs(TRAIN_CORPUS, seed=self.seed).images
        model = dac.Backbone(dac.BackboneConfig(st_layer_count=3), self.seed)
        return model, Adam(model.params()), images

    def step(self, state, i: int, capture: Capture) -> Outcome:
        model, opt, images = state
        start = (i % (TRAIN_CORPUS // BATCH)) * BATCH
        # epoch=i+1 keys the shuffle and the augmentation draw of this step
        stats = dac.train_epoch(model, images[start:start + BATCH], SCHEDULE, opt,
                                batch_size=BATCH, seed=self.seed, epoch=i + 1,
                                augment=self.augment)
        return Outcome(BATCH, loss=stats.loss, selected_fraction=stats.selected_fraction,
                       features=capture.features)

    @staticmethod
    def check(out: Outcome) -> None:
        if not np.isfinite(out.loss):
            raise CheckFailed(f"training loss is not finite: {out.loss}")
        check_features(out.features, dac.cluster_assign(out.features))


class ClusterEval:
    """Forward-only clustering of a 1-ST model restored from a checkpoint, on a
    corpus read back from IDX.gz files; one `dac.evaluate` call per eval batch."""

    kind = "eval"

    def __init__(self, seed: int):
        self.seed = seed
        self.paths = None

    def prepare(self, workdir: Path) -> None:
        """Write the corpus and the checkpoint that setup reads (untimed)."""
        images = workdir / "images-idx3-ubyte.gz"
        labels = workdir / "labels-idx1-ubyte.gz"
        ckpt = workdir / "model.stdac"
        dataio.save_idx(dataio.make_synthetic_glyphs(EVAL_CORPUS, seed=self.seed),
                        images, labels)
        model = dac.Backbone(dac.BackboneConfig(st_layer_count=1), self.seed)
        checkpoint.save_checkpoint(ckpt, model.state_dict())
        self.paths = images, labels, ckpt

    def setup(self):
        images, labels, ckpt = self.paths
        data = dataio.load_idx(images, labels)
        return cli.backbone_from_state(checkpoint.load_checkpoint(ckpt)), data

    def step(self, state, i: int, capture: Capture) -> Outcome:
        model, data = state
        start = (i % (EVAL_CORPUS // EVAL_BATCH)) * EVAL_BATCH
        sl = slice(start, start + EVAL_BATCH)
        scores = dac.evaluate(model, data.images[sl], data.labels[sl], EVAL_BATCH)
        return Outcome(EVAL_BATCH, scores=scores, features=capture.features,
                       ids=capture.ids)

    @staticmethod
    def check(out: Outcome) -> None:
        check_features(out.features, out.ids)
        acc, nmi, ari = out.scores
        if not (0.0 <= acc <= 1.0 and 0.0 <= nmi <= 1.0 and -1.0 <= ari <= 1.0):
            raise CheckFailed(f"metrics out of range: acc={acc} nmi={nmi} ari={ari}")


def state_bytes(state) -> list[bytes]:
    """The model's parameters and buffers (each state starts with the model)."""
    return [a.tobytes() for a in state[0].state_dict().values()]


WORKLOADS = {
    "train_st3_aug": Train,
    "cluster_eval": ClusterEval,
}
