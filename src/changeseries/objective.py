"""Soft-Jaccard training objective and binary evaluation protocols.

The per-map loss is 1 - (|o * y| + d) / (|o| + |y| - |o * y| + d) with a
small smoothing constant d; the multi-task total sums one term per
segmentation timestamp and one per change edge.  Evaluation covers three
tasks over binary maps: first-vs-last change, consecutive-pair change
(macro-averaged headline, micro-pooled also reported), and first/last
segmentation quality.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .changefeat import XorChanges

SMOOTH = 1e-6

TASKS = ("bitemporal", "continuous", "segmentation")


def _check_probabilities(output: np.ndarray) -> None:
    if output.size == 0:
        raise ValueError("empty probability map")
    if output.min() <= 0.0 or output.max() >= 1.0:
        raise ValueError("probabilities must lie strictly inside (0, 1)")


def check_binary(target: np.ndarray, what: str = "target") -> None:
    vals = np.unique(np.asarray(target))
    if not np.all(np.isin(vals, (0, 1))):
        ## spelt out, since numpy's repr of the array may wrap onto a second line
        shown = " ".join(f"{v:g}" for v in vals[:8])
        raise ValueError(f"{what} must be binary, found values [{shown}]")


def jaccard_loss(output: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Soft-Jaccard loss over one map and its gradient w.r.t. the output."""
    output = np.asarray(output, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if output.shape != target.shape:
        raise ValueError(f"shape mismatch {output.shape} vs {target.shape}")
    _check_probabilities(output)
    check_binary(target)
    inter = float((output * target).sum()) + SMOOTH
    union = float(output.sum() + target.sum() - (output * target).sum()) + SMOOTH
    loss = 1.0 - inter / union
    grad = -(target * union - inter * (1.0 - target)) / (union * union)
    return loss, grad


def multitask_loss(
    seg_out: np.ndarray,
    seg_target: np.ndarray,
    ch_out: np.ndarray,
    ch_target: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray, list[float]]:
    """Sum of per-timestamp and per-edge Jaccard terms.

    Returns (total, d_total/d_seg_out, d_total/d_ch_out, per-term values);
    the term list holds the T segmentation terms then the N change terms.
    """
    if seg_out.shape != seg_target.shape or ch_out.shape != ch_target.shape:
        raise ValueError("output/target shape mismatch")
    terms = []
    d_seg = np.empty_like(np.asarray(seg_out, dtype=np.float64))
    d_ch = np.empty_like(np.asarray(ch_out, dtype=np.float64))
    for t in range(seg_out.shape[0]):
        loss, grad = jaccard_loss(seg_out[t], seg_target[t])
        terms.append(loss)
        d_seg[t] = grad
    for n in range(ch_out.shape[0]):
        loss, grad = jaccard_loss(ch_out[n], ch_target[n])
        terms.append(loss)
        d_ch[n] = grad
    return float(sum(terms)), d_seg, d_ch, terms


@dataclass(frozen=True)
class MapCounts:
    tp: int
    fp: int
    fn: int

    @property
    def f1(self) -> float:
        denom = self.tp + 0.5 * (self.fp + self.fn)
        return 1.0 if denom == 0 else self.tp / denom

    @property
    def iou(self) -> float:
        denom = self.tp + self.fp + self.fn
        return 1.0 if denom == 0 else self.tp / denom


def binary_metrics(pred: np.ndarray, truth: np.ndarray) -> MapCounts:
    """Pixel counts for one binary map pair; both-empty scores 1.0."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {truth.shape}")
    check_binary(pred, "prediction")
    check_binary(truth, "truth")
    p = pred.astype(bool)
    t = truth.astype(bool)
    return MapCounts(
        tp=int(np.count_nonzero(p & t)),
        fp=int(np.count_nonzero(p & ~t)),
        fn=int(np.count_nonzero(~p & t)),
    )


def pooled_metrics(counts: list[MapCounts]) -> MapCounts:
    return MapCounts(
        tp=sum(c.tp for c in counts),
        fp=sum(c.fp for c in counts),
        fn=sum(c.fn for c in counts),
    )


@dataclass(frozen=True)
class EvalReport:
    task: str
    f1: float  # macro over constituent maps (headline)
    iou: float
    micro_f1: float  # from pooled counts
    micro_iou: float
    counts: tuple  # per-map MapCounts

    def to_jsonable(self) -> dict:
        return asdict(self)


def _report(task: str, pairs: list[tuple[np.ndarray, np.ndarray]]) -> EvalReport:
    counts = [binary_metrics(p, t) for p, t in pairs]
    pooled = pooled_metrics(counts)
    return EvalReport(
        task=task,
        f1=float(np.mean([c.f1 for c in counts])),
        iou=float(np.mean([c.iou for c in counts])),
        micro_f1=pooled.f1,
        micro_iou=pooled.iou,
        counts=tuple(counts),
    )


def _lookup_change(pred_change, pair: tuple[int, int]) -> np.ndarray:
    try:
        return pred_change[pair]
    except KeyError:
        raise ValueError(
            f"change map for pair {pair} is unavailable; provide it or evaluate fused maps"
        )


def evaluate(
    task: str,
    pred_seg: np.ndarray,
    pred_change,
    true_seg: np.ndarray,
) -> EvalReport:
    """Score binary predictions on one task.

    pred_seg: (T, H, W) binary states.  pred_change: mapping from a 1-based
    pair (t, k) to a binary (H, W) map; fused map series derive any pair by
    XOR, raw decoder outputs only know their trained edges.  Ground-truth
    change is always the XOR of the true segmentation maps.
    """
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}, expected one of {TASKS}")
    pred_seg = np.asarray(pred_seg)
    true_seg = np.asarray(true_seg)
    if pred_seg.shape != true_seg.shape:
        raise ValueError(f"shape mismatch {pred_seg.shape} vs {true_seg.shape}")
    if pred_seg.ndim != 3:
        raise ValueError(f"evaluation needs (T, H, W) maps, got rank {pred_seg.ndim}")
    t_len = pred_seg.shape[0]
    if t_len < 2:
        raise ValueError("evaluation needs at least 2 timestamps")

    true_change = XorChanges(true_seg)
    if task == "bitemporal":
        pairs = [(_lookup_change(pred_change, (1, t_len)), true_change[(1, t_len)])]
    elif task == "continuous":
        pairs = [
            (_lookup_change(pred_change, (t, t + 1)), true_change[(t, t + 1)])
            for t in range(1, t_len)
        ]
    else:
        pairs = [(pred_seg[0], true_seg[0]), (pred_seg[-1], true_seg[-1])]
    return _report(task, pairs)


def threshold_probs(probs: np.ndarray) -> np.ndarray:
    """Strict threshold: 1 where p > 0.5, else 0."""
    return (np.asarray(probs) > 0.5).astype(np.uint8)

