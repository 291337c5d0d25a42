"""Exact evaluation of the cover function ``C(S)`` (Definitions 2.1, 2.2).

Given a retained set ``S``, the cover is the probability that a request
drawn from the node-weight distribution is matched:

* retained items are matched with probability one;
* a non-retained ``v`` is matched with the variant-specific probability
  computed from the edges into its retained neighbors
  (:meth:`repro.core.variants.Variant.match_probability`).

These functions recompute ``C(S)`` from scratch; the solvers maintain it
incrementally, and the test-suite cross-checks the two at every step.
"""

from __future__ import annotations

from typing import Iterable, Union

import numpy as np

from ..errors import UnknownItemError
from .csr import CSRGraph, as_csr
from .variants import Variant

GraphLike = Union[CSRGraph, "PreferenceGraph"]  # noqa: F821 - doc alias


def resolve_indices(csr: CSRGraph, retained: Iterable) -> np.ndarray:
    """Map an iterable of item ids (or dense indices) to an index array.

    Resolution is **id-first**: every element is looked up through the
    graph's item table, and only an integer that is *not* an item id is
    interpreted as a dense index (when in ``[0, n_items)``; anything
    else raises :class:`~repro.errors.UnknownItemError`).  Id-first
    ordering matters for graphs whose item ids are non-identity
    integers — e.g. shuffled product ids — where an id and an index
    with the same value name *different* nodes; ids always win.  On the
    common default table (``items == range(n)``) the two semantics
    coincide, so dense indices keep working everywhere.  Duplicates are
    removed while preserving first-occurrence order (the greedy order).
    """
    seen = set()
    out = []
    for item in retained:
        try:
            idx = csr.index_of(item)
        except (UnknownItemError, TypeError):
            # Not an item id: fall back to dense-index semantics for
            # plain integers (TypeError covers unhashable inputs, which
            # can never be ids).
            if isinstance(item, (int, np.integer)) \
                    and 0 <= int(item) < csr.n_items:
                idx = int(item)
            else:
                raise UnknownItemError(item) from None
        if idx not in seen:
            seen.add(idx)
            out.append(idx)
    return np.asarray(out, dtype=np.int64)


def coverage_vector(
    graph: GraphLike,
    retained: Iterable,
    variant: "Variant | str",
) -> np.ndarray:
    """The paper's array ``I``: per-item probability of request-and-match.

    ``I[v] = W(v) * P(request for v is matched by S)``; the sum of the
    entries equals ``C(S)``.  Retained items have ``I[v] = W(v)``.

    One vectorized pass over the out-edge arrays: the out-edges from
    items outside ``S`` into ``S`` are grouped by how many such edges
    their source has, and each group is reduced as one 2-D block along
    ``axis=1``.  That reduces every row in the same order as a 1-D
    ``np.prod`` / ``np.sum`` over the row's retained weights, so each
    entry is bitwise equal to the per-item definition (``reduceat``
    over a flat edge list is not: it sums rows of three or more edges
    in a different order).
    """
    variant = Variant.coerce(variant)
    csr = as_csr(graph)
    indices = resolve_indices(csr, retained)
    in_set = np.zeros(csr.n_items, dtype=bool)
    in_set[indices] = True

    cover_prob = np.zeros(csr.n_items, dtype=np.float64)
    cover_prob[in_set] = 1.0
    # Positions of the out-edges into S; positions are sorted, so their
    # source rows come out grouped, each row's edges in CSR order.
    edges = np.flatnonzero(in_set[csr.out_dst])
    rows = np.searchsorted(csr.out_ptr, edges, side="right") - 1
    outside = ~in_set[rows]
    edges, rows = edges[outside], rows[outside]
    if edges.size:
        starts = np.flatnonzero(
            np.concatenate(([True], rows[1:] != rows[:-1]))
        )
        counts = np.diff(np.append(starts, edges.size))
        by_width = np.argsort(counts)
        splits = np.flatnonzero(np.diff(counts[by_width])) + 1
        for group in np.split(by_width, splits):
            first = starts[group]
            width = int(counts[group[0]])
            block = csr.out_weight[edges[first[:, None] + np.arange(width)]]
            if variant is Variant.INDEPENDENT:
                prob = 1.0 - np.prod(1.0 - block, axis=1)
            else:
                prob = np.minimum(block.sum(axis=1), 1.0)
            cover_prob[rows[first]] = prob
    return csr.node_weight * cover_prob


def cover(
    graph: GraphLike,
    retained: Iterable,
    variant: "Variant | str",
) -> float:
    """Compute ``C(S)`` exactly for a retained set ``S``."""
    return float(coverage_vector(graph, retained, variant).sum())


def item_coverage(
    graph: GraphLike,
    retained: Iterable,
    variant: "Variant | str",
) -> np.ndarray:
    """Per-item *conditional* coverage: ``I[v] / W(v)``.

    This is the per-item percentage the system of Figure 2 reports
    (retained items show 100%).  Items with zero request probability are
    reported as fully covered when retained and zero otherwise, to avoid
    0/0.
    """
    csr = as_csr(graph)
    vector = coverage_vector(csr, retained, variant)
    weights = csr.node_weight
    out = np.zeros(csr.n_items, dtype=np.float64)
    positive = weights > 0
    out[positive] = vector[positive] / weights[positive]
    zero_weight = ~positive
    if zero_weight.any():
        indices = resolve_indices(csr, retained)
        retained_mask = np.zeros(csr.n_items, dtype=bool)
        retained_mask[indices] = True
        out[zero_weight & retained_mask] = 1.0
    return out
