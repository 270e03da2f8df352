"""Evaluation metrics: flow endpoint error, thresholded danger segmentation
scores per semantic class, the nearest-object depth baseline, and angle errors
between 3-D obstacle motion vectors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .types import FloatMap, FlowField, UndefinedMetricError, _check_positive, _check_shapes

__all__ = [
    "FlowErrorStats",
    "ClassScore",
    "ClassScores",
    "AaeReport",
    "OUTLIER_EE_PX",
    "flow_aee",
    "prf1",
    "depth_baseline",
    "angle_error",
    "aae_report",
]

OUTLIER_EE_PX = 3.0


@dataclass(frozen=True)
class FlowErrorStats:
    aee: float  # mean endpoint error, px
    outlier_pct: float  # % of pixels with EE > OUTLIER_EE_PX
    pixel_count: int


@dataclass(frozen=True)
class ClassScore:
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int


@dataclass(frozen=True)
class ClassScores:
    """Per-class and overall precision/recall/F1 for a danger segmentation."""

    per_class: dict[int, ClassScore]
    overall: ClassScore


@dataclass(frozen=True)
class AaeReport:
    aae_deg: float
    aae_top10_deg: Optional[float]  # None when fewer than 10 samples
    count: int


def flow_aee(
    pred: FlowField, gt: FlowField, mask: Optional[np.ndarray] = None
) -> FlowErrorStats:
    """Average endpoint error and >3 px outlier rate over the masked pixels."""
    _check_shapes(pred=pred.u.shape, gt=gt.u.shape)
    ee = np.hypot(
        pred.u.astype(np.float64) - gt.u.astype(np.float64),
        pred.v.astype(np.float64) - gt.v.astype(np.float64),
    )
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        _check_shapes(mask=mask.shape, pred=ee.shape)
        ee = ee[mask]
    count = int(ee.size)
    if count == 0:
        raise UndefinedMetricError("flow AEE over an empty mask is undefined")
    return FlowErrorStats(
        aee=float(ee.mean()),
        outlier_pct=float(100.0 * np.count_nonzero(ee > OUTLIER_EE_PX) / count),
        pixel_count=count,
    )


def _score(tp: int, fp: int, fn: int) -> ClassScore:
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return ClassScore(precision=precision, recall=recall, f1=f1, tp=tp, fp=fp, fn=fn)


def prf1(pred_mask: np.ndarray, gt_mask: np.ndarray, class_map: FloatMap) -> ClassScores:
    """Precision/recall/F1 per semantic class and overall.

    Each class is scored on its own pixels (gt positives attributed by the
    class of the pixel); the classes partition the raster, so the overall
    counts are the sums of the per-class ones.  Classes with no support report
    zeros rather than raising, so batch evaluation survives scenes where a
    class is absent.
    """
    pred = np.asarray(pred_mask, dtype=bool)
    gt = np.asarray(gt_mask, dtype=bool)
    classes = np.asarray(class_map.values)
    _check_shapes(pred_mask=pred.shape, gt_mask=gt.shape, class_map=classes.shape)
    per_class: dict[int, ClassScore] = {}
    for cid in sorted(int(c) for c in np.unique(classes)):
        sel = classes == cid
        per_class[cid] = _score(
            tp=int(np.count_nonzero(pred & gt & sel)),
            fp=int(np.count_nonzero(pred & ~gt & sel)),
            fn=int(np.count_nonzero(~pred & gt & sel)),
        )
    scores = per_class.values()
    overall = _score(tp=sum(s.tp for s in scores), fp=sum(s.fp for s in scores),
                     fn=sum(s.fn for s in scores))
    return ClassScores(per_class=per_class, overall=overall)


def depth_baseline(d: FloatMap, threshold_m: float) -> np.ndarray:
    """Naive danger mask: anything valid closer than threshold_m metres."""
    _check_positive("threshold_m", threshold_m)
    values = np.asarray(d.values)
    return (values > 0) & (values < threshold_m)


def _unit_max(vec: np.ndarray) -> np.ndarray:
    """vec divided by its largest |component|; a zero vector stays zero."""
    scale = float(np.max(np.abs(vec), initial=0.0))
    return vec / scale if scale > 0.0 else vec


def angle_error(pred_vec, gt_vec) -> float:
    """Angle in degrees between two nonzero 3-vectors.

    A vector of another shape, or with a NaN or infinite component, is refused
    with a ValueError that names it (pred_vec or gt_vec): a NaN cosine would
    clamp to a perfect 0 degrees.  Each vector is divided by its largest
    |component| first, so the norms and the dot product neither overflow nor
    underflow at any finite scale: [1e200, 0, 0] and [1e-200, 0, 0] both lie
    0 degrees from [1, 0, 0].
    """
    a = np.asarray(pred_vec, dtype=np.float64)
    b = np.asarray(gt_vec, dtype=np.float64)
    for name, vec in (("pred_vec", a), ("gt_vec", b)):
        if vec.shape != (3,):
            raise ValueError(f"{name} must be a 3-vector, got shape {vec.shape}")
        if not np.all(np.isfinite(vec)):
            raise ValueError(f"{name} holds non-finite components: {vec}")
    a, b = _unit_max(a), _unit_max(b)
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise UndefinedMetricError("angle between zero vectors is undefined")
    cos = float(np.dot(a, b) / (na * nb))
    return math.degrees(math.acos(max(-1.0, min(1.0, cos))))


def aae_report(pairs: Sequence[tuple[np.ndarray, np.ndarray]]) -> AaeReport:
    """Average angle error over (pred, gt) motion-vector pairs.

    The top-10% figure averages the samples whose ground-truth magnitude falls
    in the top decile (ties broken by sample order); it needs at least 10
    samples and is reported as None otherwise.
    """
    if not pairs:
        raise UndefinedMetricError("no motion vector pairs")
    errors = np.array([angle_error(p, g) for p, g in pairs], dtype=np.float64)
    mags = np.array([np.linalg.norm(np.asarray(g, dtype=np.float64)) for _, g in pairs])
    n = len(pairs)
    top10 = None
    if n >= 10:
        k = n // 10
        order = np.argsort(-mags, kind="stable")[:k]
        top10 = float(errors[order].mean())
    return AaeReport(aae_deg=float(errors.mean()), aae_top10_deg=top10, count=n)
