"""Laws of the four numpy arithmetic functions in ``repro.core.gain``.

``GreedyState`` and the accelerated greedy call these directly; the batch
sweep, the scalar gain, the commit and the two-hop fan-out must agree.
"""

import numpy as np
import pytest

from repro.core.csr import as_csr
from repro.core.gain import (
    GreedyState,
    batch_gains,
    commit_node,
    fanout_update,
    gain_scalar,
)


class TestNumpyKernelInternals:
    """Pin the block/scalar laws of the module-level numpy functions."""

    @staticmethod
    def _args(csr, state, variant):
        return (
            csr.in_ptr, csr.in_src, csr.in_weight, csr.node_weight,
            state.in_set, state.deficit, variant == "independent",
        )

    def test_block_matches_scalar(self, medium_graph, variant):
        csr = as_csr(medium_graph)
        state = GreedyState(csr, variant)
        for v in (1, 50, 200):
            state.add_node(v)
        args = self._args(csr, state, variant)
        gains = batch_gains(*args)
        for v in range(0, csr.n_items, 37):
            assert gains[v] == pytest.approx(
                gain_scalar(v, *args), abs=1e-12
            )

    def test_add_node_matches_gain(self, medium_graph, variant):
        csr = as_csr(medium_graph)
        state = GreedyState(csr, variant)
        for v in (3, 9, 400):
            predicted = gain_scalar(v, *self._args(csr, state, variant))
            direct = float(state.deficit[v])
            spill = commit_node(
                v, csr.in_ptr, csr.in_src, csr.in_weight, csr.node_weight,
                state.in_set, state.coverage, state.deficit,
                variant == "independent",
            )
            assert direct + spill == pytest.approx(predicted, abs=1e-12)

    def test_fanout_update_counts_edges(self, variant):
        from repro.workloads.graphs import random_preference_graph

        csr = as_csr(random_preference_graph(60, variant=variant, seed=5))
        gains = np.zeros(csr.n_items)
        u_nodes = np.array([0, 1, 2], dtype=np.int64)
        delta = np.array([0.1, 0.2, 0.3])
        total = fanout_update(
            gains, u_nodes, delta, csr.out_ptr, csr.out_dst, csr.out_weight
        )
        expected = int(
            (csr.out_ptr[u_nodes + 1] - csr.out_ptr[u_nodes]).sum()
        )
        assert total == expected
