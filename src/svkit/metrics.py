"""Detection metrics over labeled score sets: EER and minimum detection cost.

The operating-point sweep uses the accept-if-score>=threshold convention
with one point per distinct score value plus the reject-everything
sentinel, so the curve always starts at (P_miss=0, P_fa=1) and ends at
(P_miss=1, P_fa=0). Only score order matters: both metrics are invariant
under strictly increasing transforms.

The sweep takes one of two routes, picked by the number of trials; no
other code in svkit picks a route by a list's length. Below SMALL_LIST
the stdlib runs it (a Counter per class over the sorted distinct
scores), and numpy is never loaded, as the trial and score parsers load
none; at or above it, numpy's sort and cumulative sum do. Both give the
same bits: every rate is one integer count divided by another.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import Counter
from itertools import accumulate, chain, compress, repeat
from math import inf
from operator import add, gt, lt, mul, sub, truediv

from .trials import ScoreSet

# trials from which numpy's sweep, its import included, beats the stdlib's:
# measured on lists of distinct scores (ties speed up only the stdlib),
# where each took about 60 ms on a 2-core x86_64
SMALL_LIST = 55_000
# label bytes of targets to those of nontargets, and back
_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


class RocCurve:
    """Operating points (threshold, P_miss, P_fa) in increasing-threshold
    order, each an array('d'), over n_target and n_nontarget trials."""

    __slots__ = ("thresholds", "p_miss", "p_fa", "n_target", "n_nontarget")

    def __init__(self, thresholds, p_miss, p_fa, n_target: int, n_nontarget: int):
        thresholds, p_miss, p_fa = array("d", thresholds), array("d", p_miss), array("d", p_fa)
        if not (len(thresholds) == len(p_miss) == len(p_fa)):
            raise ValueError("curve arrays must have equal length")
        if len(thresholds) < 2:
            raise ValueError("curve needs at least two operating points")
        if n_target < 1 or n_nontarget < 1:
            raise ValueError("need at least one target and one nontarget trial")
        if not all(0.0 <= p <= 1.0 for p in chain(p_miss, p_fa)):
            raise ValueError("rates must lie in [0, 1]")
        if any(map(gt, p_miss, p_miss[1:])):
            raise ValueError("P_miss must be non-decreasing in threshold")
        if any(map(lt, p_fa, p_fa[1:])):
            raise ValueError("P_fa must be non-increasing in threshold")
        self._set(thresholds, p_miss, p_fa, n_target, n_nontarget)

    def _set(self, thresholds: array, p_miss: array, p_fa: array,
             n_target: int, n_nontarget: int) -> None:
        self.thresholds, self.p_miss, self.p_fa = thresholds, p_miss, p_fa
        self.n_target, self.n_nontarget = n_target, n_nontarget

    def __len__(self) -> int:
        return len(self.thresholds)


class DcfConfig:
    """Detection cost parameters: target prior and miss/false-alarm costs."""

    __slots__ = ("p_target", "c_miss", "c_fa")

    def __init__(self, p_target: float = 0.05, c_miss: float = 1.0, c_fa: float = 1.0):
        if not 0 < p_target < 1:
            raise ValueError(f"p_target must be in (0, 1), got {p_target}")
        for name, cost in (("c_miss", c_miss), ("c_fa", c_fa)):
            if not 0 < cost < inf:  # False for NaN
                raise ValueError(f"costs must be finite and positive, got {name} {cost}")
        self.p_target, self.c_miss, self.c_fa = p_target, c_miss, c_fa


def roc_points(scores: ScoreSet) -> RocCurve:
    """Miss/false-alarm rates at every distinct score threshold.

    At threshold t, a trial is accepted iff its score >= t. The final
    sentinel point at +inf rejects everything.
    """
    if not scores.trials.labeled:
        raise ValueError("roc_points needs labeled trials")
    labels = scores.trials.labels()
    n_target = labels.count(1)
    n_nontarget = len(labels) - n_target
    if n_target == 0 or n_nontarget == 0:
        raise ValueError("degenerate labels: need both target and nontarget trials")
    sweep = _sweep if len(labels) < SMALL_LIST else _numpy_sweep
    curve = RocCurve.__new__(RocCurve)  # right by construction: no checks
    curve._set(*sweep(scores.scores, labels, n_target, n_nontarget), n_target, n_nontarget)
    return curve


def _sweep(scores: array, labels: bytes, n_target: int,
           n_nontarget: int) -> tuple[array, array, array]:
    """(thresholds, P_miss, P_fa) from each class's count of every distinct
    score, summed in increasing score order."""
    thresholds = sorted(set(scores))
    targets = Counter(compress(scores, labels))
    nontargets = Counter(compress(scores, labels.translate(_FLIP)))
    # trials of each class below each threshold, then the whole class
    missed = accumulate(map(targets.get, thresholds, repeat(0)), initial=0)
    rejected = accumulate(map(nontargets.get, thresholds, repeat(0)), initial=0)
    p_miss = array("d", map(truediv, missed, repeat(n_target)))
    p_fa = array("d", map(truediv, map(sub, repeat(n_nontarget), rejected), repeat(n_nontarget)))
    thresholds.append(inf)
    return array("d", thresholds), p_miss, p_fa


def _numpy_sweep(scores: array, labels: bytes, n_target: int,
                 n_nontarget: int) -> tuple[array, array, array]:
    """`_sweep`'s arrays from one stable sort and one cumulative sum."""
    import numpy as np

    order = np.argsort(np.frombuffer(scores), kind="stable")
    s, y = np.frombuffer(scores)[order], np.frombuffer(labels, np.bool_)[order]
    del order  # each full-length temporary goes as soon as it is used
    # first index of each distinct score value in the sorted array
    first = np.flatnonzero(np.append(True, s[1:] != s[:-1]))
    # the curve's arrays, each filled with its sentinel; numpy writes the rest
    curve = tuple(array("d", [end]) * (len(first) + 1) for end in (inf, 1.0, 0.0))
    thresholds, p_miss, p_fa = (np.frombuffer(a)[:-1] for a in curve)
    np.take(s, first, out=thresholds)
    del s
    # first[j] trials sort below threshold j: below[j] targets, the rest nontargets
    below = np.cumsum(y)[first] - y[first]
    np.divide(n_nontarget - first + below, n_nontarget, out=p_fa)
    del first
    np.divide(below, n_target, out=p_miss)
    return curve


def eer(curve: RocCurve) -> float:
    """Equal error rate in percent.

    Linear interpolation between the two adjacent operating points where
    P_miss - P_fa changes sign; exact when the crossing lands on a point.
    """
    p_miss, p_fa = curve.p_miss, curve.p_fa
    # P_miss - P_fa never falls along the curve (rounding is monotone): it
    # runs from -1 at the accept-all end to +1 at reject-all
    i = bisect_left(range(len(p_miss)), 0.0, key=lambda k: p_miss[k] - p_fa[k])
    # a swept curve crosses; one built by hand may start past or stop short of it
    if i == len(p_miss) or (i == 0 and p_miss[0] - p_fa[0] > 0.0):
        raise ValueError("curve does not cross P_miss = P_fa")
    if p_miss[i] - p_fa[i] == 0.0:
        return 100.0 * p_miss[i]
    pm_a, pm_b = p_miss[i - 1], p_miss[i]
    pf_a, pf_b = p_fa[i - 1], p_fa[i]
    t = (pf_a - pm_a) / ((pm_b - pm_a) - (pf_b - pf_a))
    return 100.0 * (pm_a + t * (pm_b - pm_a))


def min_dcf(curve: RocCurve, cfg: DcfConfig = DcfConfig()) -> float:
    """Minimum normalized detection cost over all operating points.

    Cost at a point is c_miss*p_target*P_miss + c_fa*(1-p_target)*P_fa,
    normalized by the better of the two trivial systems,
    min(c_miss*p_target, c_fa*(1-p_target)); the reject-all sentinel
    bounds the result at 1.
    """
    miss, fa = cfg.c_miss * cfg.p_target, cfg.c_fa * (1.0 - cfg.p_target)
    least = min(map(add, map(mul, repeat(miss), curve.p_miss), map(mul, repeat(fa), curve.p_fa)))
    return least / min(miss, fa)


def evaluate_scores(scores: ScoreSet, cfg: DcfConfig = DcfConfig()) -> tuple[float, float]:
    """(EER percent, minimum normalized DCF) of a labeled score set."""
    curve = roc_points(scores)
    return eer(curve), min_dcf(curve, cfg)
