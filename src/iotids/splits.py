"""Deterministic stratified train/test/validation splits and k-fold planning."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import BadFractions, TooFewRows


@dataclass(frozen=True)
class SplitIndices:
    train: np.ndarray
    test: np.ndarray
    val: np.ndarray

    def partitions(self) -> dict[str, np.ndarray]:
        return {"train": self.train, "test": self.test, "val": self.val}


@dataclass(frozen=True)
class FoldPlan:
    k: int
    folds: tuple[np.ndarray, ...]

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield (train, validation) index pairs, one per fold in fold order."""
        for i in range(self.k):
            train = np.concatenate([self.folds[j] for j in range(self.k) if j != i])
            yield train, self.folds[i]


def _allocate(
    ideal: Sequence[float], carry: Sequence[float], total: int, active: Sequence[bool]
) -> list[int]:
    """Largest-remainder allocation of `total`, steered by the running carry.

    Every active bin gets floor(ideal) or floor(ideal)+1 (so each stays
    within one row of its own ideal); the leftover rows go to the bins with
    the largest remainder-plus-carry, which keeps the cross-class totals on
    target as well.  Ties go to the earlier partition.
    """
    floors = [math.floor(d) if a else 0 for d, a in zip(ideal, active)]
    leftover = total - sum(floors)
    assert leftover >= 0, "allocation overflow"
    keys = [
        (-(d - math.floor(d) + k), i)
        for i, (d, k, a) in enumerate(zip(ideal, carry, active))
        if a
    ]
    keys.sort()  # most-deserving first; ties go to the earlier partition
    counts = list(floors)
    for _, i in keys[:leftover]:
        counts[i] += 1
    return counts


def stratified_split(
    y: np.ndarray, fractions: tuple[float, float, float], seed: int
) -> SplitIndices:
    """Per-class seeded shuffle, then largest-remainder cuts at the fractions.

    A running carry of the per-class rounding error feeds into the next
    class's targets, so partition totals track N*f within one row while each
    class stays within one row of its own ideal share.  Classes concatenate
    in ascending class order.
    """
    fractions = tuple(float(f) for f in fractions)
    if len(fractions) != 3 or any(f < 0 for f in fractions):
        raise BadFractions(f"fractions must be three non-negative values, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise BadFractions(f"fractions must sum to 1, got {sum(fractions)}")

    y = np.asarray(y)
    active = [f > 0.0 for f in fractions]
    carry = [0.0, 0.0, 0.0]
    parts: list[list[np.ndarray]] = [[], [], []]
    # return_counts: without it, np.unique (numpy >= 2.3) imports numpy.ma, about 12 ms a process
    for c in np.unique(y, return_counts=True)[0]:
        idx = np.flatnonzero(y == c)
        rng = np.random.default_rng([seed, int(c)])
        shuffled = idx[rng.permutation(len(idx))]
        ideal = [f * len(idx) if active[i] else 0.0 for i, f in enumerate(fractions)]
        counts = _allocate(ideal, carry, len(idx), active)
        cuts = np.cumsum(counts)[:-1]
        for i, segment in enumerate(np.split(shuffled, cuts)):
            parts[i].append(segment)
        for i in range(3):
            if active[i]:
                carry[i] += ideal[i] - counts[i]

    train, test, val = (
        np.concatenate(p) if p else np.array([], dtype=np.int64) for p in parts
    )
    return SplitIndices(train.astype(np.int64), test.astype(np.int64), val.astype(np.int64))


def k_fold(y: np.ndarray, k: int, seed: int) -> FoldPlan:
    """Stratified k folds; fold sizes and per-class fold counts differ by <= 1."""
    if k < 2:
        raise ValueError("k must be >= 2")
    y = np.asarray(y)
    classes, counts = np.unique(y, return_counts=True)  # see stratified_split on return_counts
    for c, have in zip(classes, counts.tolist()):
        if have < k:
            raise TooFewRows(str(c), have, k)

    folds: list[list[np.ndarray]] = [[] for _ in range(k)]
    sizes = [0] * k
    for c in classes:
        idx = np.flatnonzero(y == c)
        rng = np.random.default_rng([seed, int(c)])
        shuffled = idx[rng.permutation(len(idx))]
        base, extra = divmod(len(idx), k)
        # extras go to the currently smallest folds, ties to the lower index
        by_size = sorted(range(k), key=lambda i: (sizes[i], i))
        quota = [base] * k
        for i in by_size[:extra]:
            quota[i] += 1
        start = 0
        for i in range(k):
            folds[i].append(shuffled[start : start + quota[i]])
            sizes[i] += quota[i]
            start += quota[i]

    return FoldPlan(k, tuple(np.concatenate(f).astype(np.int64) for f in folds))


def mean_score(scores: Sequence[float]) -> float:
    """Cross-validated metric: arithmetic mean of the per-fold scores."""
    return float(np.mean(np.asarray(scores, dtype=float)))
