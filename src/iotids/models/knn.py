"""K-nearest-neighbour classification by exact Euclidean search.

The search is exact but does not compute every distance elementwise: per
block of queries, one matrix product gives approximate squared distances
|q|^2 - 2 q.x + |x|^2 to every stored row, `argpartition` takes a shortlist
of the nearest few, and only the shortlist's distances are recomputed with
the elementwise expression sqrt(sum((q - x)^2)), so every distance that
decides a prediction has the same bits as a full elementwise search (blocked
GEMM with k-selection and exact refinement; Johnson, Douze & Jegou,
"Billion-scale similarity search with GPUs", 2017; FAISS IndexRefine).

The shortlist is certified per query with a rounding-error bound.  With
S = |q|^2 + max |x|^2 and u the unit roundoff, the GEMM form and the
elementwise sum of one squared distance each lie within (2d + 4) u S of the
exact value, so they differ by less than 4 (d + 2) u S; the bound used is
eps = 4 (d + 4) (u S + one subnormal, for underflow).  A query is certified
when the nearest approximate value left out of its shortlist exceeds the
k-th approximate value by more than 2 eps.  Every left-out row's elementwise
squared distance then exceeds those of k shortlisted rows by more than
16 u S, a relative gap of over 8 u, which the square root keeps strict: no
left-out row can tie or beat them, so the stored-index tie rule cannot reach
it.  A query that cannot be certified (near-ties straddling the shortlist,
or a non-finite or huge value) is searched over every stored row instead.
The shortlist is one selection at its own length, and the k-th value is
taken from the shortlist's values, which hold the k smallest.  Which of
the rows tied with the left-out value fall inside the shortlist is then
arbitrary, and does not matter: for a certified query they are all more
than 2 eps beyond the k-th value, so none of them is among the k nearest.

Each block holds at most _BLOCK_ELEMENTS (2^17) query rows x (stored rows +
shortlist x features), so the temporaries stay bounded for a large store:
29 query rows, about 0.9 MB of approximate distances, against 3,986 stored
rows of width 20.  A predict allocates one block-sized buffer for the
approximate distances, and every block's matrix product writes into it
(matmul's out=, the same bits as a fresh product), so the allocator does
not hand the block's pages back to the OS and fault them in again for the
next one: a distance matrix per block, freed with argpartition's index
array of the same size, cost about 15,000 minor page faults, half the
time, of a predict of 997 queries against those rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import BadK, ModelDataMismatch
from ..jsontypes import bundle_field, bundle_float_array, compact_json
from . import input_rows

# bound on query rows x (stored rows + shortlist x features) per search block
_BLOCK_ELEMENTS = 1 << 17
# shortlist length beyond k; near-ties wider than this fall back to a full search
_SHORTLIST_EXTRA = 16
_UNIT_ROUNDOFF = np.finfo(float).eps / 2
_SUBNORMAL = np.finfo(float).smallest_subnormal
# queries whose |q|^2 + max |x|^2 reaches this go to the full search (the GEMM form could overflow)
_SCALE_LIMIT = np.finfo(float).max / 8
# stored rows turned into Python floats at a time when a bundle is encoded
_ENCODE_ROWS = 256


@dataclass
class KnnModel:
    X: np.ndarray
    y: np.ndarray
    k: int
    n_classes: int

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    def predict(self, X_query: np.ndarray) -> np.ndarray:
        return predict_knn(self, X_query)

    def to_dict(self) -> dict:
        return {"k": self.k, "n_classes": self.n_classes, "X": self.X.tolist(), "y": self.y.tolist()}

    def to_json(self) -> str:
        """The compact JSON text of to_dict(), with the stored rows encoded
        _ENCODE_ROWS at a time, so their Python floats never exist all at once."""
        rows = ",".join(
            compact_json(self.X[start : start + _ENCODE_ROWS].tolist())[1:-1]
            for start in range(0, self.X.shape[0], _ENCODE_ROWS)
        )
        head = compact_json({"k": self.k, "n_classes": self.n_classes})
        return f'{head[:-1]},"X":[{rows}],"y":{compact_json(self.y.tolist())}}}'

    @classmethod
    def from_dict(cls, d: dict) -> "KnnModel":
        n_classes = bundle_field(d, "n_classes", int)
        model = fit_knn(bundle_float_array(d, "X"), bundle_field(d, "y", list[int]), d["k"], n_classes=n_classes)
        y = model.y
        if model.X.ndim != 2 or y.shape != model.X.shape[:1] or y.min() < 0 or y.max() >= n_classes:
            raise ModelDataMismatch("a KNN bundle needs a 2-D X and one class index in [0, n_classes) per stored row")
        return model


def fit_knn(X: np.ndarray, y: np.ndarray, k: int = 5, *, n_classes: int) -> KnnModel:
    """Lazy learner: stores the (scaled) training data verbatim, with the
    task's class count (a class may have no stored row)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    if type(k) is not int or not 1 <= k <= X.shape[0]:
        raise BadK(f"k={k!r} is not an int in [1, {X.shape[0]}]")
    return KnnModel(X, y, k, n_classes)


def predict_knn(model: KnnModel, X_query: np.ndarray) -> np.ndarray:
    """Majority label of the k nearest stored rows.

    Distance ties take the lower stored index; majority ties take the class
    with the smaller summed neighbour distance, then the lower class index.
    Neighbours come from a certified GEMM shortlist with exact refinement, or
    from a full elementwise search for a query that cannot be certified (see
    the module docstring); either way they and their distances are those of
    a full elementwise search.
    """
    X, k = model.X, model.k
    X_query = input_rows(X_query, X.shape[1])
    n, d = X.shape
    shortlist = min(n, k + _SHORTLIST_EXTRA)
    x_sq = (X * X).sum(axis=1)
    x_sq_max = x_sq.max()
    step = max(1, _BLOCK_ELEMENTS // (n + shortlist * d))
    out = np.empty(X_query.shape[0], dtype=np.int64)
    # every block's approximate distances go to this one buffer
    buffer = np.empty((min(step, X_query.shape[0]), n))
    for start in range(0, X_query.shape[0], step):
        Q = X_query[start : start + step]
        if shortlist == n:
            nn, nn_dist = _nearest(Q, X, np.broadcast_to(np.arange(n), (Q.shape[0], n)), k)
        else:
            nn, nn_dist = _shortlist_nearest(Q, X, x_sq, x_sq_max, k, shortlist, buffer)
        out[start : start + step] = _vote(nn, nn_dist, model.y, model.n_classes)
    return out


def _shortlist_nearest(Q, X, x_sq, x_sq_max, k, shortlist, buffer=None):
    """k nearest stored rows per query: certified shortlist rows are refined
    exactly, the rest searched in full.  buffer, when given, has at least
    Q's rows and X's rows as columns and receives the approximate distances."""
    q_sq = (Q * Q).sum(axis=1)
    approx = np.matmul(Q, X.T, out=None if buffer is None else buffer[: Q.shape[0]])
    approx *= -2.0
    approx += q_sq[:, None]
    approx += x_sq
    # one kth: the shortlist holds the k nearest approximate values, so the
    # k-th of those is the k-th of the row
    part = np.argpartition(approx, shortlist, axis=1)
    left_out = approx[np.arange(Q.shape[0]), part[:, shortlist]]
    kth = np.partition(np.take_along_axis(approx, part[:, :shortlist], axis=1), k - 1, axis=1)[:, k - 1]
    scale = q_sq + x_sq_max
    eps = 4 * (X.shape[1] + 4) * (_UNIT_ROUNDOFF * scale + _SUBNORMAL)
    certified = (left_out > kth + 2 * eps) & (scale < _SCALE_LIMIT)
    nn = np.empty((Q.shape[0], k), dtype=np.int64)
    nn_dist = np.empty((Q.shape[0], k))
    candidates = np.sort(part[certified, :shortlist], axis=1)
    nn[certified], nn_dist[certified] = _nearest(Q[certified], X, candidates, k)
    for i in np.flatnonzero(~certified):
        nn[i], nn_dist[i] = _nearest(Q[i : i + 1], X, np.arange(X.shape[0])[None, :], k)
    return nn, nn_dist


def _nearest(Q, X, candidates, k):
    """The k candidates nearest each query by (distance, stored index), with
    their elementwise distances; each row of candidates is ascending, so a
    stable sort on distance breaks ties by stored index."""
    # elementwise differences keep exact ties exact (duplicates -> 0)
    dist = np.sqrt(((Q[:, None, :] - X[candidates]) ** 2).sum(axis=-1))
    order = np.argsort(dist, axis=1, kind="stable")[:, :k]
    return np.take_along_axis(candidates, order, axis=1), np.take_along_axis(dist, order, axis=1)


def _vote(nn, nn_dist, y, n_classes):
    """Majority class per row of neighbours; a count tie goes to the smaller
    summed neighbour distance (summed in neighbour order), then the lower
    class index."""
    labels = y[nn]
    offsets = n_classes * np.arange(nn.shape[0])[:, None]
    counts = np.bincount((labels + offsets).ravel(), minlength=nn.shape[0] * n_classes)
    counts = counts.reshape(nn.shape[0], n_classes)
    winner = counts.argmax(axis=1)  # first max -> lower class index
    top = counts.max(axis=1)
    for i in np.flatnonzero((counts == top[:, None]).sum(axis=1) > 1):
        tied = np.flatnonzero(counts[i] == top[i])
        sums = np.array([nn_dist[i, labels[i] == c].sum() for c in tied])
        winner[i] = tied[np.argmin(sums)]
    return winner
