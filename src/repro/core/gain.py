"""Marginal-gain state: the paper's ``Gain`` and ``AddNode`` procedures.

:class:`GreedyState` holds the solver's mutable state — the retained-set
membership mask, the array ``I`` (per-item probability of being requested
and matched by the current set), and the running cover ``C(S)`` — and
implements Algorithms 2–5 on top of a :class:`repro.core.csr.CSRGraph`:

* :meth:`GreedyState.gain` — Algorithm 2 (Normalized) / Algorithm 4
  (Independent): the marginal increase in ``C(S)`` from adding a node,
  without mutating state;
* :meth:`GreedyState.add_node` — Algorithm 3 / Algorithm 5: commit a node,
  updating ``I`` and ``C(S)`` in ``O(in_degree)``.

The arithmetic lives in four module-level functions over the raw CSR
arrays: :func:`batch_gains`, :func:`gain_scalar`, :func:`commit_node`
and the accelerated greedy's two-hop :func:`fanout_update`.
"""

from __future__ import annotations

import struct
import zlib
from typing import Optional

import numpy as np

from ..errors import SolverError
from ..observability import NULL_TRACER
from .csr import CSRGraph
from .variants import Variant


def batch_gains(
    in_ptr: np.ndarray,
    in_src: np.ndarray,
    in_weight: np.ndarray,
    node_weight: np.ndarray,
    in_set: np.ndarray,
    deficit: np.ndarray,
    independent: bool,
) -> np.ndarray:
    """Every node's marginal gain via prefix sums over the in-edge slices.

    Retained entries come back as 0.  Unlike ``reduceat`` the prefix-sum
    formulation handles empty slices (isolated nodes) exactly.
    """
    source_outside = ~in_set[in_src]
    if independent:
        contrib = in_weight * deficit[in_src]
    else:
        contrib = in_weight * node_weight[in_src]
    contrib = np.where(source_outside, contrib, 0.0)
    prefix = np.concatenate(([0.0], np.cumsum(contrib)))
    sums = prefix[in_ptr[1:]] - prefix[in_ptr[:-1]]
    gains = deficit + sums
    gains[in_set] = 0.0
    return gains


def gain_scalar(
    v: int,
    in_ptr: np.ndarray,
    in_src: np.ndarray,
    in_weight: np.ndarray,
    node_weight: np.ndarray,
    in_set: np.ndarray,
    deficit: np.ndarray,
    independent: bool,
) -> float:
    """Algorithm 2 / 4: marginal gain of one candidate."""
    if in_set[v]:
        return 0.0
    g = deficit[v]
    edge_lo, edge_hi = in_ptr[v], in_ptr[v + 1]
    if edge_hi > edge_lo:
        sources = in_src[edge_lo:edge_hi]
        outside = ~in_set[sources]
        if outside.any():
            u = sources[outside]
            w = in_weight[edge_lo:edge_hi][outside]
            if independent:
                g += float(np.dot(w, deficit[u]))
            else:
                g += float(np.dot(w, node_weight[u]))
    return float(g)


def commit_node(
    v: int,
    in_ptr: np.ndarray,
    in_src: np.ndarray,
    in_weight: np.ndarray,
    node_weight: np.ndarray,
    in_set: np.ndarray,
    coverage: np.ndarray,
    deficit: np.ndarray,
    independent: bool,
) -> float:
    """Algorithm 3 / 5: commit ``v`` and scatter-update its in-neighbors.

    Returns the spill onto still-unretained in-neighbors; the direct
    term ``deficit[v]`` is the caller's to read before the call.
    """
    coverage[v] = node_weight[v]
    deficit[v] = 0.0
    in_set[v] = True
    spill = 0.0
    edge_lo, edge_hi = in_ptr[v], in_ptr[v + 1]
    if edge_hi > edge_lo:
        sources = in_src[edge_lo:edge_hi]
        outside = ~in_set[sources]
        if outside.any():
            u = sources[outside]
            w = in_weight[edge_lo:edge_hi][outside]
            if independent:
                delta = w * deficit[u]
            else:
                delta = w * node_weight[u]
            coverage[u] += delta
            deficit[u] -= delta
            spill = float(delta.sum())
    return spill


def fanout_update(
    gains: np.ndarray,
    u_nodes: np.ndarray,
    delta: np.ndarray,
    out_ptr: np.ndarray,
    out_dst: np.ndarray,
    out_weight: np.ndarray,
) -> int:
    """Two-hop patch: ``gains[x] -= W(u, x) * delta_u`` for all out-edges."""
    starts = out_ptr[u_nodes]
    counts = out_ptr[u_nodes + 1] - starts
    total = int(counts.sum())
    if total:
        offsets = np.repeat(
            starts - np.concatenate(([0], np.cumsum(counts)[:-1])),
            counts,
        )
        flat = np.arange(total, dtype=np.int64) + offsets
        x_dst = out_dst[flat]
        x_w = out_weight[flat]
        np.subtract.at(gains, x_dst, x_w * np.repeat(delta, counts))
    return total


class GreedyState:
    """Incremental cover bookkeeping for one greedy run.

    The key identity, maintained after every :meth:`add_node`:
    ``self.cover == self.coverage.sum() == C(S)`` where ``S`` is the set
    of nodes with ``self.in_set`` true.  ``deficit[v] = W(v) - I[v]`` is
    kept alongside because the Independent gain rule (Algorithm 4, line 3)
    multiplies edge weights by exactly this quantity.
    """

    def __init__(
        self,
        csr: CSRGraph,
        variant: "Variant | str",
        *,
        tracer=None,
    ) -> None:
        self.csr = csr
        self.variant = Variant.coerce(variant)
        self.tracer = NULL_TRACER if tracer is None else tracer
        n = csr.n_items
        self.in_set = np.zeros(n, dtype=bool)
        self.coverage = np.zeros(n, dtype=np.float64)  # the paper's I
        self.deficit = csr.node_weight.copy()          # W(v) - I[v]
        self.cover = 0.0
        self.size = 0
        self.order: list[int] = []
        # Checkpoints persist both: the epoch counts committed AddNode
        # calls and the digest is the CRC-32 of the exact selection
        # order, which ``checkpoint.order_crc`` recomputes on load.
        self.epoch = 0
        self.order_digest = 0
        # The per-call constants — the read-only graph arrays, the
        # variant flag and whether tracing is live at all — are resolved
        # here instead of on every call.
        self._independent = self.variant is Variant.INDEPENDENT
        self._tracing = self.tracer is not NULL_TRACER and self.tracer.enabled
        self._graph_args = (csr.in_ptr, csr.in_src, csr.in_weight,
                            csr.node_weight)

    # ------------------------------------------------------------------
    def gain(self, v: int) -> float:
        """Marginal gain of adding node ``v`` (Algorithms 2 and 4)."""
        if self._tracing:
            self.tracer.incr("oracle.gain_calls")
        return float(
            gain_scalar(
                v, *self._graph_args, self.in_set, self.deficit,
                self._independent,
            )
        )

    def add_node(self, v: int) -> float:
        """Commit node ``v`` to the retained set (Algorithms 3 and 5).

        Returns the realized marginal gain (equal to what :meth:`gain`
        would have returned immediately before the call).
        """
        if self.in_set[v]:
            raise SolverError(f"node {v} is already retained")
        # commit_node returns only the spill through in-neighbors; the
        # direct term and the spill are accumulated into ``cover`` as
        # two separate additions, since one combined addition would
        # round differently and change every recorded cover.
        direct = float(self.deficit[v])
        spill = float(
            commit_node(
                v, *self._graph_args, self.in_set, self.coverage,
                self.deficit, self._independent,
            )
        )
        self.cover += direct
        self.cover += spill
        self.size += 1
        self.order.append(int(v))
        self.epoch += 1
        self.order_digest = zlib.crc32(
            struct.pack("<q", int(v)), self.order_digest
        )
        return direct + spill

    # ------------------------------------------------------------------
    def gains_all(self, candidates: Optional[np.ndarray] = None) -> np.ndarray:
        """Marginal gains of many candidates in one pass.

        Semantically ``[self.gain(v) for v in candidates]`` but computed
        by :func:`batch_gains` in a single sweep over the in-edge arrays,
        which is what makes the naive strategy's per-iteration ``O(n D)``
        work tolerable in Python.
        """
        if self._tracing:
            self.tracer.incr(
                "oracle.batch_evaluations", self.csr.n_items - self.size
            )
        gains = batch_gains(
            *self._graph_args, self.in_set, self.deficit, self._independent,
        )
        if candidates is not None:
            return gains[candidates]
        return gains

    def retained_indices(self) -> np.ndarray:
        """Retained nodes in selection order."""
        return np.asarray(self.order, dtype=np.int64)
