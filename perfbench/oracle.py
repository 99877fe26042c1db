"""The independent answer check: brute force with scipy.sparse overlap products.

Nothing here imports :mod:`repro`.  Sets are rows of a binary CSR matrix
over the generated integer tokens; one sparse product gives every overlap
``|Q ∩ S|`` at once, and Jaccard is ``|Q ∩ S| / (|Q| + |S| - |Q ∩ S|)``
in float64 — the same correctly rounded division of two integers the
engine performs, so similarities compare exactly.

Answer order is the documented canonical one: similarity descending, record
index ascending.  A kNN answer with fewer than ``k`` positive similarities
is padded with the smallest live record indices at similarity 0.  Query
tokens that no stored set holds count towards ``|Q|`` and match nothing.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


class Corpus:
    """A binary record × token CSR matrix plus the record sizes."""

    def __init__(self, token_lists: list[list[int]]) -> None:
        sizes = np.array([len(tokens) for tokens in token_lists], dtype=np.int64)
        flat = np.fromiter(
            (token for tokens in token_lists for token in tokens),
            dtype=np.int64, count=int(sizes.sum()),
        )
        self.columns, inverse = np.unique(flat, return_inverse=True)
        indptr = np.concatenate([[0], np.cumsum(sizes)])
        self.matrix = sp.csr_matrix(
            (np.ones(len(flat), dtype=np.int64), inverse.ravel(), indptr),
            shape=(len(token_lists), len(self.columns)),
        )
        if np.any(self.matrix.sum(axis=1).A1 != sizes):
            raise ValueError("benchmark sets must hold distinct tokens")
        self.sizes = sizes

    def __len__(self) -> int:
        return len(self.sizes)

    def overlaps(self, queries: list[tuple[int, ...]]) -> tuple[sp.csr_matrix, np.ndarray]:
        """``(queries × records)`` overlap counts and the query sizes."""
        rows, cols = [], []
        for row, tokens in enumerate(queries):
            tokens = np.asarray(tokens, dtype=np.int64)
            position = np.searchsorted(self.columns, tokens)
            position = np.minimum(position, len(self.columns) - 1)
            known = self.columns[position] == tokens
            rows.extend([row] * int(known.sum()))
            cols.extend(position[known].tolist())
        query_matrix = sp.csr_matrix(
            (np.ones(len(rows), dtype=np.int64), (rows, cols)),
            shape=(len(queries), len(self.columns)),
        )
        sizes = np.array([len(set(tokens)) for tokens in queries], dtype=np.int64)
        return (query_matrix @ self.matrix.T).tocsr(), sizes


def row_similarities(
    overlaps: sp.csr_matrix, row: int, query_size: int, record_sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Record indices with a positive overlap and their Jaccard similarity."""
    start, end = overlaps.indptr[row], overlaps.indptr[row + 1]
    indices = overlaps.indices[start:end].astype(np.int64)
    shared = overlaps.data[start:end].astype(np.int64)
    union = query_size + record_sizes[indices] - shared
    return indices, shared / union


def knn_answer(
    indices: np.ndarray, similarities: np.ndarray, k: int, live: np.ndarray
) -> list[tuple[int, float]]:
    """Top ``k`` live records in canonical order, zero-padded by smallest index."""
    keep = live[indices] & (similarities > 0)
    indices, similarities = indices[keep], similarities[keep]
    order = np.lexsort((indices, -similarities))[:k]
    answer = list(zip(indices[order].tolist(), similarities[order].tolist()))
    if len(answer) < k:
        taken = set(indices.tolist())
        for index in np.flatnonzero(live).tolist():
            if len(answer) == k:
                break
            if index not in taken:
                answer.append((index, 0.0))
    return answer


def range_answer(
    indices: np.ndarray, similarities: np.ndarray, threshold: float, live: np.ndarray
) -> list[tuple[int, float]]:
    """Every live record at or above ``threshold``, in canonical order."""
    keep = live[indices] & (similarities >= threshold)
    indices, similarities = indices[keep], similarities[keep]
    order = np.lexsort((indices, -similarities))
    return list(zip(indices[order].tolist(), similarities[order].tolist()))


def self_join(corpus: Corpus, threshold: float) -> list[list]:
    """All pairs ``x < y`` with Jaccard at or above ``threshold``, sorted."""
    products = sp.triu(corpus.matrix @ corpus.matrix.T, k=1).tocoo()
    rows = products.row.astype(np.int64)
    cols = products.col.astype(np.int64)
    shared = products.data.astype(np.int64)
    similarities = shared / (corpus.sizes[rows] + corpus.sizes[cols] - shared)
    keep = similarities >= threshold
    rows, cols, similarities = rows[keep], cols[keep], similarities[keep]
    order = np.lexsort((cols, rows))
    return [
        [x, y, s]
        for x, y, s in zip(rows[order].tolist(), cols[order].tolist(), similarities[order].tolist())
    ]
