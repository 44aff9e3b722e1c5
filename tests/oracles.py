"""Deliberately naive clustering-metric oracles (exhaustive bijections,
O(n^2) pair counting, direct entropy sums): an independent route to the
numbers `stdac.metrics` computes, for the tests to hold its fast paths to."""

import math
from itertools import permutations

import numpy as np

from stdac.metrics import _pair


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
