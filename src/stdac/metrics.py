"""Clustering metrics: accuracy under optimal label assignment, NMI, ARI.

Inputs are two integer label vectors of equal length (predicted cluster ids
and ground truth). Labels are compacted before computing, so they need not be
contiguous or drawn from the same id space.

Alongside the production implementations this module keeps deliberately
naive oracles (exhaustive bijections, O(n^2) pair counting, direct entropy
sums) as an independent route to the same numbers; the test suite holds the
fast paths to the oracles.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import ShapeError


def _compact(labels) -> np.ndarray:
    arr = np.asarray(labels).reshape(-1)
    if arr.size == 0:
        raise ShapeError("labels must be nonempty")
    return np.unique(arr, return_inverse=True)[1]


def _pair(pred, truth) -> tuple[np.ndarray, np.ndarray]:
    p, t = _compact(pred), _compact(truth)
    if p.size != t.size:
        raise ShapeError(f"label vectors disagree in length: {p.size} vs {t.size}")
    return p, t


def contingency_table(pred, truth) -> np.ndarray:
    """Joint counts: entry [i, j] = #samples with pred i and truth j."""
    p, t = _pair(pred, truth)
    kp, kt = p.max() + 1, t.max() + 1
    return np.bincount(p * kt + t, minlength=kp * kt).reshape(kp, kt)


def clustering_accuracy(pred, truth) -> float:
    """Best matched fraction over bijections between cluster ids, found by
    optimal assignment on the zero-padded square contingency table."""
    table = contingency_table(pred, truth)
    k = max(table.shape)
    square = np.zeros((k, k), dtype=np.int64)
    square[:table.shape[0], :table.shape[1]] = table
    rows, cols = linear_sum_assignment(square, maximize=True)
    return float(square[rows, cols].sum()) / float(np.asarray(pred).size)


def nmi(pred, truth) -> float:
    """Mutual information over the geometric mean of entropies, natural logs.

    Degenerate cases: both partitions trivial (zero entropy) -> 1.0; exactly
    one trivial -> 0.0.
    """
    table = contingency_table(pred, truth).astype(np.float64)
    occupied = table > 0
    if (occupied.sum(axis=0) == 1).all() and (occupied.sum(axis=1) == 1).all():
        return 1.0  # identical partitions up to relabeling
    n = table.sum()
    a = table.sum(axis=1)
    b = table.sum(axis=0)
    hp = -sum(x / n * math.log(x / n) for x in a if x > 0)
    ht = -sum(x / n * math.log(x / n) for x in b if x > 0)
    if hp == 0.0 or ht == 0.0:
        return 0.0
    mi = 0.0
    for i in range(table.shape[0]):
        for j in range(table.shape[1]):
            nij = table[i, j]
            if nij > 0:
                mi += nij / n * math.log(n * nij / (a[i] * b[j]))
    return min(1.0, max(0.0, mi / math.sqrt(hp * ht)))


def ari(pred, truth) -> float:
    """Rand index adjusted for chance, from exact integer pair counts.

    (Index - Expected) / (Max - Expected); 1.0 by convention when the
    denominator vanishes (identical trivial partitions).
    """
    p, t = _pair(pred, truth)
    if p.size < 2:
        raise ShapeError(f"ari needs at least 2 samples, got {p.size}")
    table = contingency_table(p, t)
    index = sum(math.comb(int(v), 2) for v in table.reshape(-1))
    sum_a = sum(math.comb(int(v), 2) for v in table.sum(axis=1))
    sum_b = sum(math.comb(int(v), 2) for v in table.sum(axis=0))
    total = math.comb(p.size, 2)
    expected = Fraction(sum_a * sum_b, total)
    max_index = Fraction(sum_a + sum_b, 2)
    if max_index == expected:
        return 1.0
    return float((index - expected) / (max_index - expected))


# ---------------------------------------------------------------------------
# oracles: slow, independently derived reference implementations


def brute_force_accuracy(pred, truth) -> float:
    """Exhaustive maximum over all bijections of cluster ids; exponential in
    the cluster count, keep k small."""
    p, t = _pair(pred, truth)
    k = int(max(p.max(), t.max())) + 1
    best = 0
    for perm in permutations(range(k)):
        mapped = np.array(perm)[p]
        best = max(best, int((mapped == t).sum()))
    return best / p.size


def pair_counting_ari(pred, truth) -> float:
    """ARI from an explicit tally of the four pair categories."""
    p, t = _pair(pred, truth)
    n = p.size
    both = neither = pred_only = truth_only = 0
    for i in range(n):
        for j in range(i + 1, n):
            sp = p[i] == p[j]
            st = t[i] == t[j]
            if sp and st:
                both += 1
            elif sp:
                pred_only += 1
            elif st:
                truth_only += 1
            else:
                neither += 1
    total = both + neither + pred_only + truth_only
    sum_a = both + pred_only
    sum_b = both + truth_only
    expected = sum_a * sum_b / total
    max_index = 0.5 * (sum_a + sum_b)
    if max_index == expected:
        return 1.0
    return (both - expected) / (max_index - expected)


def direct_entropy_nmi(pred, truth) -> float:
    """NMI via H(pred) + H(truth) - H(joint), entropies summed directly over
    empirical frequencies."""
    p, t = _pair(pred, truth)
    n = p.size

    def entropy(counts) -> float:
        return -sum(c / n * math.log(c / n) for c in counts if c > 0)

    hp = entropy(np.bincount(p))
    ht = entropy(np.bincount(t))
    joint: dict[tuple[int, int], int] = {}
    for pi, ti in zip(p, t):
        joint[(int(pi), int(ti))] = joint.get((int(pi), int(ti)), 0) + 1
    hj = entropy(list(joint.values()))
    if hp == 0.0 and ht == 0.0:
        return 1.0
    if hp == 0.0 or ht == 0.0:
        return 0.0
    return (hp + ht - hj) / math.sqrt(hp * ht)
