"""Clustering-as-pair-classification training engine.

The backbone maps each image to a k-dimensional label-feature row (softmax
then unit L2 norm, so rows live on the nonnegative part of the unit sphere).
Cosine-style dot products between rows judge pairs of images: above the upper
threshold trains as "same cluster", below the lower threshold as "different",
and the band in between is excluded. The thresholds close linearly in an
epoch-indexed schedule until the band vanishes, which stops training.

Ground-truth labels never enter the training path; they are consumed only by
the metric evaluation after each epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .dataio import AugmentConfig, augment_batch, batch_iterator
from .errors import ConfigurationError, NoSelectedPairs
from .metrics import ari, clustering_accuracy, nmi
from .nn import (BatchNorm, Conv2d, Dense, Module, bn_relu_pool, eval_conv_block,
                 l2_normalize_rows, softmax_rows)
from .optim import Adam
from .stn import SpatialTransformer
from .tensor import Tensor, grad_enabled, no_grad


# ---------------------------------------------------------------------------
# backbone


@dataclass(frozen=True)
class BackboneConfig:
    """VGG-style 28x28 single-channel backbone with 0-3 spatial transformer placements.

    Placements activate as a prefix of [on the input, after the second pool,
    after the third pool]."""
    st_layer_count: int = 0
    cluster_count: int = 10
    input_size: int = 28

    def __post_init__(self):
        if self.st_layer_count not in (0, 1, 2, 3):
            raise ConfigurationError(f"st_layer_count must be 0..3, got {self.st_layer_count}")
        if self.cluster_count < 2:
            # the softmax head needs two columns
            raise ConfigurationError(f"cluster_count must be >= 2, got {self.cluster_count}")


class Backbone(Module):
    """conv64/BN/relu -> pool/BN -> conv128/BN/relu -> pool/BN ->
    conv256/BN/relu -> pool/BN -> dense3096/BN/relu -> dense k/BN/relu ->
    softmax -> row L2 norm, with optional ST layers interleaved.

    Parameter names depend only on the layer, not on which ST layers exist,
    so two configs sharing a layer initialize it identically from one seed.
    seed=None draws nothing and leaves the weights unset, for a model that
    `load_state` fills next (`cli.backbone_from_state`).
    force_identity_theta=True samples every ST layer with the identity theta.

    A conv block is `nn.conv2d` then `nn.bn_relu_pool`, one graph node for
    its batch norm, ReLU and pool, except in eval without a graph, where
    `nn.eval_conv_block` runs it one block of images at a time and never
    builds the full-size conv output. Their docstrings say why no byte moves.
    """

    def __init__(self, config: BackboneConfig, seed: int | None = 0):
        self.config = config
        s = config.input_size
        s2, s3 = s // 4, s // 8

        # the assignment order below is the order of the checkpoint records
        self.st1 = SpatialTransformer(s, 1, "st1", seed) if config.st_layer_count >= 1 else None
        self.st2 = SpatialTransformer(s2, 128, "st2", seed) if config.st_layer_count >= 2 else None
        self.st3 = SpatialTransformer(s3, 256, "st3", seed) if config.st_layer_count >= 3 else None

        self.conv1 = Conv2d(3, 3, 1, 64, "block1/conv", seed)
        self.bn1 = BatchNorm(64, "block1/bn")
        self.bnp1 = BatchNorm(64, "block1/pool_bn")
        self.conv2 = Conv2d(3, 3, 64, 128, "block2/conv", seed)
        self.bn2 = BatchNorm(128, "block2/bn")
        self.bnp2 = BatchNorm(128, "block2/pool_bn")
        self.conv3 = Conv2d(3, 3, 128, 256, "block3/conv", seed)
        self.bn3 = BatchNorm(256, "block3/bn")
        self.bnp3 = BatchNorm(256, "block3/pool_bn")
        self.fc = Dense(s3 * s3 * 256, 3096, "fc/dense", seed)
        self.fc_bn = BatchNorm(3096, "fc/bn")
        self.head = Dense(3096, config.cluster_count, "head/dense", seed)
        self.head_bn = BatchNorm(config.cluster_count, "head/bn")

    def __call__(self, x, train: bool = True, force_identity_theta: bool = False) -> Tensor:
        def block(h, conv, bn):
            if train or grad_enabled():
                return bn_relu_pool(conv(h), bn, train)
            return eval_conv_block(h, conv, bn)

        h = x if isinstance(x, Tensor) else Tensor(x)
        if self.st1 is not None:
            h = self.st1(h, identity=force_identity_theta)
        h = self.bnp1(block(h, self.conv1, self.bn1), train)
        h = self.bnp2(block(h, self.conv2, self.bn2), train)
        if self.st2 is not None:
            h = self.st2(h, identity=force_identity_theta)
        h = self.bnp3(block(h, self.conv3, self.bn3), train)
        if self.st3 is not None:
            h = self.st3(h, identity=force_identity_theta)
        h = h.reshape((h.shape[0], -1))
        h = self.fc_bn(self.fc(h), train).relu()
        h = self.head_bn(self.head(h), train).relu()
        return l2_normalize_rows(softmax_rows(h))


def predict_features(model: Backbone, images: np.ndarray, batch_size: int = 256) -> np.ndarray:
    """Label features for a full image array, eval mode, no graph."""
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    features = np.empty((len(images), model.config.cluster_count))
    with no_grad():
        for start in range(0, len(images), batch_size):
            xb = Tensor(images[start:start + batch_size])
            features[start:start + batch_size] = model(xb, train=False).data
    return features


# ---------------------------------------------------------------------------
# pairwise machinery


def pairwise_similarity(features: Tensor) -> Tensor:
    """All-pairs dot products of label-feature rows."""
    return features.matmul(features.T)


@dataclass(frozen=True)
class ThresholdSchedule:
    """Linear threshold schedule: u = u0 - lam, l = l0 + lam, lam growing by
    `rate` per epoch. Training stops once l >= u (the exclusion band closed)."""
    u0: float = 0.99
    l0: float = 0.9
    rate: float = 0.0045
    lam: float = 0.0

    def __post_init__(self):
        # u0 == l0 is allowed: every pair is selected for one epoch. The check
        # is on u0 and l0, since advanced() closes the band on purpose.
        if self.u0 < self.l0:
            raise ConfigurationError(f"upper threshold u0={self.u0} is below "
                                     f"lower threshold l0={self.l0}")

    @property
    def u(self) -> float:
        return self.u0 - self.lam

    @property
    def l(self) -> float:
        return self.l0 + self.lam

    @property
    def stop(self) -> bool:
        return self.l >= self.u

    def advanced(self) -> "ThresholdSchedule":
        return replace(self, lam=self.lam + self.rate)


def generate_pair_labels(similarity: np.ndarray, schedule: ThresholdSchedule,
                         include_diagonal: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Pair targets r and selection mask v from the current thresholds.

    r=1, v=1 where similarity >= u; r=0, v=1 where similarity < l; v=0 in the
    band between. Returns float arrays shaped like the similarity matrix.
    """
    pos = similarity >= schedule.u
    neg = similarity < schedule.l
    r = pos.astype(np.float64)
    v = (pos | neg).astype(np.float64)
    if not include_diagonal:
        np.fill_diagonal(v, 0.0)
    return r, v


# the pair loss clamps similarities into [LOSS_EPS, 1 - LOSS_EPS] before the logs
LOSS_EPS = 1e-7


def dac_loss(similarity: Tensor, r: np.ndarray, v: np.ndarray) -> Tensor:
    """Binary pair loss averaged over selected pairs:

        mean over v=1 of  -r log g - (1 - r) log(1 - g)

    with g clamped into [LOSS_EPS, 1 - LOSS_EPS] before the logs.
    """
    total = v.sum()
    if total == 0:
        raise NoSelectedPairs("no pair passed either threshold; widen the band "
                              "or adjust the schedule")
    g = similarity.clamp(LOSS_EPS, 1.0 - LOSS_EPS)
    per_pair = -(g.log() * r) - ((1.0 - g).log() * (1.0 - r))
    return (per_pair * v).sum() * (1.0 / total)


def cluster_assign(features: np.ndarray) -> np.ndarray:
    """Cluster id = argmax feature per row; ties go to the smallest index."""
    return np.argmax(features, axis=1)


# ---------------------------------------------------------------------------
# training loop


@dataclass
class EpochStats:
    loss: float
    selected_fraction: float
    skipped_batches: int


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    selected_fraction: float
    acc: float
    nmi: float
    ari: float
    lam: float
    u: float
    l: float


@dataclass
class FitResult:
    model: "Backbone"
    records: list[EpochRecord]


def train_epoch(model: Backbone, images: np.ndarray, schedule: ThresholdSchedule,
                optimizer: Adam, *, batch_size: int = 128, seed: int = 0,
                epoch: int = 1, augment: AugmentConfig | None = None,
                include_diagonal: bool = True) -> EpochStats:
    """One pass over shuffled (optionally augmented) minibatches.

    Batches whose pairs all fall in the exclusion band are skipped and
    counted; an epoch that skips everything raises NoSelectedPairs.
    """
    aug_rng = np.random.default_rng(np.random.SeedSequence((seed, epoch, 2)))
    losses: list[float] = []
    selected = 0.0
    pairs = 0.0
    skipped = 0
    for idx in batch_iterator(len(images), batch_size, seed, epoch):
        xb = images[idx]
        if augment is not None:
            xb = augment_batch(xb, augment, aug_rng)
        feats = model(Tensor(xb), train=True)
        sim = pairwise_similarity(feats)
        r, v = generate_pair_labels(sim.data, schedule, include_diagonal)
        pairs += v.size
        if v.sum() == 0:
            skipped += 1
            # no backward releases this graph, so drop it before the next forward
            del feats, sim
            continue
        loss = dac_loss(sim, r, v)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
        losses.append(float(loss.data))
        selected += v.sum()
    if not losses:
        raise NoSelectedPairs(f"all {skipped} batches of epoch {epoch} fell in the "
                              "exclusion band; thresholds are too tight")
    return EpochStats(loss=float(np.mean(losses)),
                      selected_fraction=selected / pairs if pairs else 0.0,
                      skipped_batches=skipped)


def evaluate(model: Backbone, images: np.ndarray, labels: np.ndarray | None,
             batch_size: int = 256) -> tuple[float, float, float]:
    """ACC/NMI/ARI of the current argmax clustering; NaNs without labels."""
    if labels is None:
        return (float("nan"),) * 3
    pred = cluster_assign(predict_features(model, images, batch_size))
    return (clustering_accuracy(pred, labels), nmi(pred, labels), ari(pred, labels))


@dataclass
class TrainSettings:
    """Everything `fit` needs besides the data."""
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    schedule: ThresholdSchedule = field(default_factory=ThresholdSchedule)
    max_epochs: int = 50
    batch_size: int = 128
    seed: int = 0
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    augment: AugmentConfig | None = field(default_factory=AugmentConfig)
    include_diagonal: bool = True


def fit(settings: TrainSettings, images: np.ndarray,
        labels: np.ndarray | None = None, progress=None) -> FitResult:
    """Train until the threshold band closes or max_epochs, whichever first.

    Evaluates on the full unaugmented data after every epoch (transductive
    protocol); the labels only score the records, and the returned model is
    the final one. max_epochs=0 just evaluates the random initialization
    (single epoch-0 row, NaN loss).
    """
    model = Backbone(settings.backbone, settings.seed)
    opt = Adam(model.params(), settings.lr, settings.beta1, settings.beta2,
               settings.adam_eps)
    sched = settings.schedule
    records: list[EpochRecord] = []

    for epoch in range(1, settings.max_epochs + 1):
        stats = train_epoch(model, images, sched, opt,
                            batch_size=settings.batch_size, seed=settings.seed,
                            epoch=epoch, augment=settings.augment,
                            include_diagonal=settings.include_diagonal)
        acc, nmi_v, ari_v = evaluate(model, images, labels)
        records.append(EpochRecord(epoch, stats.loss, stats.selected_fraction,
                                   acc, nmi_v, ari_v, sched.lam, sched.u, sched.l))
        if progress is not None:
            progress(records[-1])
        sched = sched.advanced()
        if sched.stop:
            break

    if not records:
        acc, nmi_v, ari_v = evaluate(model, images, labels)
        records.append(EpochRecord(0, float("nan"), float("nan"), acc, nmi_v,
                                   ari_v, sched.lam, sched.u, sched.l))
    return FitResult(model, records)
