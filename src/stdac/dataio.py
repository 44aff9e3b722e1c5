"""Dataset ingestion and batching: IDX files, augmentation, synthetic glyphs.

IDX is the MNIST container format: big-endian magic (two zero bytes, a dtype
code, a rank byte), rank x uint32 dimension sizes, then the raw payload.
Only the unsigned-byte dtype (0x08) is supported here. Files ending in .gz
are transparently (de)compressed.
"""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, IdxFormatError, ShapeError


@dataclass
class ImageSet:
    """Float images in [0,1], NHWC with one channel; labels are optional and
    feed only metric evaluation."""
    images: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        if self.images.ndim != 4:
            raise ShapeError(f"images must be (n, h, w, c), got {self.images.ndim} axes")
        if self.images.size and (self.images.min() < 0.0 or self.images.max() > 1.0):
            raise ConfigurationError("pixel values must lie in [0, 1]")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (len(self.images),):
                raise ShapeError(f"labels length {self.labels.shape} does not match "
                                 f"{len(self.images)} images")

    def __len__(self) -> int:
        return len(self.images)


# ---------------------------------------------------------------------------
# IDX


def _open(path, mode: str):
    if str(path).endswith(".gz"):
        return gzip.open(path, mode)
    return open(path, mode)


def read_idx(path) -> np.ndarray:
    """Parse one IDX file into a uint8 array of its stated shape."""
    with _open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 4:
        raise IdxFormatError(f"{path}: too short for an IDX header ({len(blob)} bytes)")
    (magic,) = struct.unpack(">I", blob[:4])
    zeros, dtype, rank = magic >> 16, (magic >> 8) & 0xFF, magic & 0xFF
    if zeros != 0 or dtype != 0x08:
        raise IdxFormatError(f"{path}: bad magic 0x{magic:08x} (want ubyte IDX)")
    header = 4 + 4 * rank
    if len(blob) < header:
        raise IdxFormatError(f"{path}: truncated header: expected {header} bytes, "
                             f"have {len(blob)}")
    shape = struct.unpack(f">{rank}I", blob[4:header])
    count = int(np.prod(shape, dtype=np.int64)) if rank else 1
    expected = header + count
    if len(blob) != expected:
        raise IdxFormatError(f"{path}: truncated payload: expected {expected} bytes "
                             f"total, have {len(blob)}")
    return np.frombuffer(blob, dtype=np.uint8, offset=header).reshape(shape).copy()


def write_idx(path, array: np.ndarray) -> None:
    """Write a uint8 array as IDX (gzip if the path ends in .gz)."""
    arr = np.ascontiguousarray(array, dtype=np.uint8)
    magic = (0x08 << 8) | arr.ndim
    with _open(path, "wb") as f:
        f.write(struct.pack(">I", magic))
        f.write(struct.pack(f">{arr.ndim}I", *arr.shape))
        f.write(arr.tobytes())


def load_idx(images_path, labels_path=None) -> ImageSet:
    """Load an images file (magic 0x00000803) and optional labels file
    (magic 0x00000801); pixel bytes are scaled by 1/255."""
    raw = read_idx(images_path)
    if raw.ndim != 3:
        raise IdxFormatError(f"{images_path}: images magic requires rank 3, "
                             f"got rank {raw.ndim}")
    if len(raw) == 0:
        raise IdxFormatError(f"{images_path}: holds no images")
    images = np.divide(raw[..., None], 255.0, dtype=np.float64)
    labels = None
    if labels_path is not None:
        lab = read_idx(labels_path)
        if lab.ndim != 1:
            raise IdxFormatError(f"{labels_path}: labels magic requires rank 1, "
                                 f"got rank {lab.ndim}")
        if len(lab) != len(raw):
            raise IdxFormatError(f"count mismatch: {len(raw)} images vs "
                                 f"{len(lab)} labels")
        labels = lab.astype(np.int64)
    return ImageSet(images, labels)


def save_idx(data: ImageSet, images_path, labels_path=None) -> None:
    """Write an ImageSet back to IDX; pixels are requantized to bytes."""
    if data.images.shape[-1] != 1:
        raise ShapeError("IDX images are single-channel")
    pixels = np.rint(data.images[..., 0] * 255.0).astype(np.uint8)
    write_idx(images_path, pixels)
    if labels_path is not None:
        if data.labels is None:
            raise ConfigurationError("no labels to save")
        write_idx(labels_path, data.labels.astype(np.uint8))


# ---------------------------------------------------------------------------
# augmentation


@dataclass(frozen=True)
class AugmentConfig:
    """Per-image random affine jitter. rotation_degrees and
    translate_fraction are symmetric half-ranges (fraction of the normalized
    half-width); scale samples uniformly from scale_range, values above 1
    widening the field of view."""
    rotation_degrees: float = 10.0
    translate_fraction: float = 0.1
    scale_range: tuple[float, float] = (0.9, 1.1)

    def __post_init__(self):
        lo, hi = self.scale_range
        if not (np.isfinite(lo) and np.isfinite(hi) and 0 < lo <= hi):
            raise ConfigurationError(f"scale_range must be finite with 0 < scale_min <= "
                                     f"scale_max, got {self.scale_range}")
        if not np.isfinite(self.rotation_degrees) or not np.isfinite(self.translate_fraction):
            raise ConfigurationError("rotation_degrees and translate_fraction must be finite")

    @property
    def is_identity(self) -> bool:
        return (self.rotation_degrees == 0.0 and self.translate_fraction == 0.0
                and self.scale_range == (1.0, 1.0))


def sample_affine_params(cfg: AugmentConfig, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n source-coordinate affine maps [[s cos, -s sin, tx], [s sin, s cos, ty]]."""
    angles = np.deg2rad(rng.uniform(-cfg.rotation_degrees, cfg.rotation_degrees, size=n))
    scales = rng.uniform(cfg.scale_range[0], cfg.scale_range[1], size=n)
    # translation in normalized coordinates: the image spans 2 units across
    shifts = rng.uniform(-cfg.translate_fraction, cfg.translate_fraction, size=(n, 2)) * 2.0
    theta = np.zeros((n, 2, 3))
    theta[:, 0, 0] = scales * np.cos(angles)
    theta[:, 0, 1] = -scales * np.sin(angles)
    theta[:, 1, 0] = scales * np.sin(angles)
    theta[:, 1, 1] = scales * np.cos(angles)
    theta[:, :, 2] = shifts
    return theta


def warp_images(images: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Resample images (NHWC) under per-image source-coordinate affines,
    corner-aligned bilinear with zero padding."""
    from .stn import affine_grid, bilinear_sample
    from .tensor import Tensor, no_grad
    with no_grad():
        grid = affine_grid(Tensor(theta), images.shape[1], images.shape[2])
        return bilinear_sample(Tensor(images), grid).data


def augment_batch(batch: np.ndarray, cfg: AugmentConfig,
                  rng: np.random.Generator) -> np.ndarray:
    """Random affine view of each image; the identity config is the identity
    map (exactly, drawing nothing from rng)."""
    if cfg.is_identity:
        return batch
    theta = sample_affine_params(cfg, len(batch), rng)
    return np.clip(warp_images(batch, theta), 0.0, 1.0)


def batch_iterator(n: int, batch_size: int, seed: int, epoch: int = 0):
    """Yield index arrays after an epoch-keyed shuffle; a trailing batch of a
    single sample is dropped (batch-norm train mode needs >= 2)."""
    if batch_size < 2:
        raise ConfigurationError(f"batch_size must be >= 2, got {batch_size}")
    perm = np.random.default_rng(np.random.SeedSequence((seed, epoch, 1))).permutation(n)
    for start in range(0, n, batch_size):
        idx = perm[start:start + batch_size]
        if len(idx) >= 2:
            yield idx


# ---------------------------------------------------------------------------
# synthetic glyphs: a labeled stand-in corpus when no IDX files are around


def _glyph_prototypes(classes: int, cells: int, rng: np.random.Generator) -> np.ndarray:
    """Coarse binary stamps with enforced pairwise Hamming separation."""
    protos: list[np.ndarray] = []
    min_sep = cells * cells // 4
    while len(protos) < classes:
        cand = (rng.random((cells, cells)) < 0.45).astype(np.float64)
        if cand.sum() < 3:
            continue
        if all(int(np.abs(cand - p).sum()) >= min_sep for p in protos):
            protos.append(cand)
    return np.stack(protos)


GLYPH_JITTER = AugmentConfig(rotation_degrees=20.0, translate_fraction=0.12,
                             scale_range=(0.85, 1.15))


def make_synthetic_glyphs(n: int, seed: int = 0, classes: int = 10) -> ImageSet:
    """Labeled dataset of affinely jittered class glyphs.

    Each class is a fixed coarse binary stamp (drawn once from the seed);
    each sample is that stamp under a random GLYPH_JITTER affine, bilinearly
    resampled. Spatially normalizing the jitter away is exactly what a
    spatial transformer is for, so this corpus exercises the full training
    loop when no real digit files are available. Images are 28x28.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xA119)))
    size = 28
    cells = 7
    protos = _glyph_prototypes(classes, cells, rng)
    up = size // cells * cells
    stamps = np.zeros((classes, size, size, 1))
    scale_up = up // cells
    margin = (size - up) // 2
    for c in range(classes):
        big = np.kron(protos[c], np.ones((scale_up, scale_up)))
        stamps[c, margin:margin + up, margin:margin + up, 0] = big

    labels = rng.integers(0, classes, size=n)
    theta = sample_affine_params(GLYPH_JITTER, n, rng)
    images = np.clip(warp_images(stamps[labels], theta), 0.0, 1.0)
    return ImageSet(images, labels)
