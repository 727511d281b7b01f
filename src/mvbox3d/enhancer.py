"""3D position encoding of image features.

Predicts a per-pixel depth distribution from image and depth features,
embeds 3D points with an affine map, fuses the image position embedding back
into the image feature map, and correlates embeddings for the heatmap.

The paper's image position embedding is the depth-weighted sum of the point
embeddings of a pixel's frustum points, IPE = sum_k D_k PPE(p_k). Because the
point embedding is affine, PPE(p) = W p + b, and each pixel's depth
distribution D sums to 1, it needs no (h, w, K, C) array:

    IPE = sum_k D_k (W p_k + b) = W (sum_k D_k p_k) + b = PPE(E[p]),

the embedding of the expected frustum point. With p_k = t + d_k R r on the
pixel's ray (``camera.frustum_rays``), E[p] = t + E[d] R r. The identity holds
for any affine embedding and any normalized distribution (as
``depth_distribution`` returns), up to rounding; it does not hold for a
nonlinear embedding. The literal two-step definition is kept only as a
test oracle, in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LinearParams:
    """Affine map y = W x + b with a role tag used in error messages."""

    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    role: str = "linear"

    def __post_init__(self):
        weight = np.asarray(self.weight, dtype=float)
        bias = np.asarray(self.bias, dtype=float).reshape(-1)
        if weight.ndim != 2:
            raise ValueError(f"{self.role}: weight must be 2-D")
        if bias.shape != (weight.shape[0],):
            raise ValueError(f"{self.role}: bias length must match weight rows")
        if not (np.all(np.isfinite(weight)) and np.all(np.isfinite(bias))):
            raise ValueError(f"{self.role}: parameters must be finite")
        weight.setflags(write=False)
        bias.setflags(write=False)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "bias", bias)

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Apply along the last axis of x."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.in_dim:
            raise ValueError(
                f"{self.role}: expected last dim {self.in_dim}, got {x.shape[-1]}"
            )
        return x @ self.weight.T + self.bias


def init_linear(role: str, in_dim: int, out_dim: int, seed) -> LinearParams:
    """Seeded parameters: weights uniform in (-1/sqrt(in), +1/sqrt(in)), zero bias."""
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(in_dim)
    weight = rng.uniform(-bound, bound, size=(out_dim, in_dim))
    return LinearParams(weight, np.zeros(out_dim), role)


@dataclass(frozen=True)
class FeatureMap:
    """Per-view feature grid: (H, W, C) with the stride mapping feature cells
    to image pixels (feature coordinate = pixel coordinate / stride)."""

    view: int
    stride: float
    grid: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        if grid.ndim != 3 or grid.shape[0] < 1 or grid.shape[1] < 1:
            raise ValueError("feature grid must be (H, W, C) with H, W >= 1")
        if not np.all(np.isfinite(grid)):
            raise ValueError("feature grid must be finite")
        grid.setflags(write=False)
        object.__setattr__(self, "grid", grid)

    @property
    def shape(self):
        return self.grid.shape


def depth_distribution(img: FeatureMap, dep: FeatureMap, fuse: LinearParams,
                       head: LinearParams) -> np.ndarray:
    """Per-pixel depth distribution: softmax(head(fuse(concat(I, D)))) over K bins.

    Returns an (H, W, K) array whose (i, j) slices are nonnegative and sum to 1.
    """
    if img.grid.shape[:2] != dep.grid.shape[:2]:
        raise ValueError("image and depth feature maps must be spatially aligned")
    joint = np.concatenate([img.grid, dep.grid], axis=-1)
    if fuse.in_dim != joint.shape[-1]:
        raise ValueError(f"{fuse.role}: expected input dim {joint.shape[-1]}, got {fuse.in_dim}")
    logits = head.apply(fuse.apply(joint))
    logits = logits - logits.max(axis=-1, keepdims=True)
    weights = np.exp(logits)
    return weights / weights.sum(axis=-1, keepdims=True)


def fuse_features(img: FeatureMap, dep: FeatureMap, ipe: np.ndarray,
                  params: LinearParams) -> FeatureMap:
    """Fused map: affine over concat(I, D, IPE) per pixel."""
    ipe = np.asarray(ipe, dtype=float)
    if img.grid.shape[:2] != dep.grid.shape[:2] or img.grid.shape[:2] != ipe.shape[:2]:
        raise ValueError("image, depth and position-embedding maps must be aligned")
    joint = np.concatenate([img.grid, dep.grid, ipe], axis=-1)
    return FeatureMap(img.view, img.stride, params.apply(joint))


def ipe_correlation_map(ipe: np.ndarray, ref: tuple[int, int]) -> np.ndarray:
    """Cosine similarity of every pixel's embedding with the one at ``ref``.

    Pixels with a zero-norm embedding get similarity 0; the reference pixel
    itself must have a nonzero embedding.
    """
    ipe = np.asarray(ipe, dtype=float)
    i, j = ref
    ref_vec = ipe[i, j]
    ref_norm = np.linalg.norm(ref_vec)
    if ref_norm == 0.0:
        raise ValueError("reference pixel has a zero-norm embedding")
    norms = np.linalg.norm(ipe, axis=-1)
    dots = ipe @ ref_vec
    with np.errstate(divide="ignore", invalid="ignore"):
        sims = np.where(norms > 0, dots / (norms * ref_norm), 0.0)
    return np.clip(sims, -1.0, 1.0)
