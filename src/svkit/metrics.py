"""Detection metrics over labeled score sets: EER and minimum detection cost.

The operating-point sweep uses the accept-if-score>=threshold convention
with one point per distinct score value plus the reject-everything
sentinel, so the curve always starts at (P_miss=0, P_fa=1) and ends at
(P_miss=1, P_fa=0). Only score order matters: both metrics are invariant
under strictly increasing transforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trials import ScoreSet


@dataclass(frozen=True)
class RocCurve:
    """Operating points (threshold, P_miss, P_fa) in increasing-threshold order."""

    thresholds: np.ndarray
    p_miss: np.ndarray
    p_fa: np.ndarray
    n_target: int
    n_nontarget: int

    def __post_init__(self):
        thresholds = np.asarray(self.thresholds, dtype=np.float64)
        p_miss = np.asarray(self.p_miss, dtype=np.float64)
        p_fa = np.asarray(self.p_fa, dtype=np.float64)
        if not (len(thresholds) == len(p_miss) == len(p_fa)):
            raise ValueError("curve arrays must have equal length")
        if len(thresholds) < 2:
            raise ValueError("curve needs at least two operating points")
        if self.n_target < 1 or self.n_nontarget < 1:
            raise ValueError("need at least one target and one nontarget trial")
        if np.any(p_miss < 0) or np.any(p_miss > 1) or np.any(p_fa < 0) or np.any(p_fa > 1):
            raise ValueError("rates must lie in [0, 1]")
        if np.any(np.diff(p_miss) < 0):
            raise ValueError("P_miss must be non-decreasing in threshold")
        if np.any(np.diff(p_fa) > 0):
            raise ValueError("P_fa must be non-increasing in threshold")
        object.__setattr__(self, "thresholds", thresholds)
        object.__setattr__(self, "p_miss", p_miss)
        object.__setattr__(self, "p_fa", p_fa)

    def __len__(self) -> int:
        return len(self.thresholds)


@dataclass(frozen=True)
class DcfConfig:
    """Detection cost parameters: target prior and miss/false-alarm costs."""

    p_target: float = 0.05
    c_miss: float = 1.0
    c_fa: float = 1.0

    def __post_init__(self):
        if not 0 < self.p_target < 1:
            raise ValueError(f"p_target must be in (0, 1), got {self.p_target}")
        for name in ("c_miss", "c_fa"):
            cost = getattr(self, name)
            if not 0 < cost < np.inf:  # False for NaN
                raise ValueError(f"costs must be finite and positive, got {name} {cost}")


def roc_points(scores: ScoreSet) -> RocCurve:
    """Miss/false-alarm rates at every distinct score threshold.

    At threshold t, a trial is accepted iff its score >= t. The final
    sentinel point at +inf rejects everything.
    """
    if not scores.trials.labeled:
        raise ValueError("roc_points needs labeled trials")
    labels = scores.trials.labels()
    n_target = int(np.sum(labels))
    n_nontarget = len(labels) - n_target
    if n_target == 0 or n_nontarget == 0:
        raise ValueError("degenerate labels: need both target and nontarget trials")

    order = np.argsort(scores.scores, kind="stable")
    s, y = scores.scores[order], labels[order]
    del order  # each full-length temporary goes as soon as it is used
    # first index of each distinct score value in the sorted array
    first = np.flatnonzero(np.append(True, s[1:] != s[:-1]))
    thresholds = np.append(s[first], np.inf)
    del s
    # first[j] trials sort below threshold j: below[j] targets, the rest nontargets
    below = np.cumsum(y)[first] - y[first]
    p_fa = np.append(n_nontarget - first + below, 0) / n_nontarget
    del first
    p_miss = np.append(below, n_target) / n_target
    return RocCurve(
        thresholds=thresholds,
        p_miss=p_miss,
        p_fa=p_fa,
        n_target=n_target,
        n_nontarget=n_nontarget,
    )


def eer(curve: RocCurve) -> float:
    """Equal error rate in percent.

    Linear interpolation between the two adjacent operating points where
    P_miss - P_fa changes sign; exact when the crossing lands on a point.
    """
    diff = curve.p_miss - curve.p_fa
    # diff runs from -1 at the accept-all end to +1 at reject-all
    i = int(np.argmax(diff >= 0))
    if diff[i] == 0.0:
        return 100.0 * float(curve.p_miss[i])
    pm_a, pm_b = float(curve.p_miss[i - 1]), float(curve.p_miss[i])
    pf_a, pf_b = float(curve.p_fa[i - 1]), float(curve.p_fa[i])
    t = (pf_a - pm_a) / ((pm_b - pm_a) - (pf_b - pf_a))
    return 100.0 * (pm_a + t * (pm_b - pm_a))


def min_dcf(curve: RocCurve, cfg: DcfConfig = DcfConfig()) -> float:
    """Minimum normalized detection cost over all operating points.

    Cost at a point is c_miss*p_target*P_miss + c_fa*(1-p_target)*P_fa,
    normalized by the better of the two trivial systems,
    min(c_miss*p_target, c_fa*(1-p_target)); the reject-all sentinel
    bounds the result at 1.
    """
    costs = (
        cfg.c_miss * cfg.p_target * curve.p_miss
        + cfg.c_fa * (1.0 - cfg.p_target) * curve.p_fa
    )
    norm = min(cfg.c_miss * cfg.p_target, cfg.c_fa * (1.0 - cfg.p_target))
    return float(np.min(costs)) / norm


def evaluate_scores(scores: ScoreSet, cfg: DcfConfig = DcfConfig()) -> tuple[float, float]:
    """(EER percent, minimum normalized DCF) of a labeled score set."""
    curve = roc_points(scores)
    return eer(curve), min_dcf(curve, cfg)
