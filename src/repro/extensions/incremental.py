"""Incremental maintenance of a greedy solution (paper Section 7).

The paper names "incremental maintenance in response to changes over
time" as the direction the authors are pursuing.  This module implements
the natural prefix-reuse scheme exploiting the greedy order's stability:

* keep the solved instance and its ordered greedy solution;
* on a weight update (node popularity shift, edge probability change,
  edge insertion/removal), *replay* the previous selection order on the
  updated graph, keeping each previously chosen node while it is still a
  maximum-gain choice (within a tolerance), and fall back to fresh
  greedy selection from the first divergence on.

The result is always *exactly* a valid greedy solution for the updated
graph (same guarantees as solving from scratch, including tie behavior
within the tolerance); the savings come from skipping re-selection of
the stable prefix, which for small perturbations is most of the set.
"""

from __future__ import annotations

import time
from typing import Hashable, List, Optional

import numpy as np

from ..core.context import solve_context_digest
from ..core.csr import as_csr
from ..core.gain import GreedyState
from ..core.graph import PreferenceGraph
from ..core.greedy import accelerated_step, prepare_accelerated_gains
from ..core.result import SolveResult
from ..core.variants import Variant
from ..errors import SolverError, UnknownItemError
from ..observability import coerce_tracer


class IncrementalSolver:
    """Maintains a greedy Preference Cover solution across graph updates.

    The graph is held in the mutable :class:`PreferenceGraph` form
    (updates are point-writes); solving reads its cached CSR.  Typical
    use::

        solver = IncrementalSolver(graph, k=100, variant="independent")
        first = solver.solve()
        solver.update_node_weight("item-7", 0.002)
        second = solver.resolve()          # reuses the stable prefix
        print(solver.last_reused_prefix)   # how much work was saved
    """

    def __init__(
        self,
        graph: PreferenceGraph,
        k: int,
        variant: "Variant | str",
        *,
        tolerance: float = 1e-12,
        tracer=None,
        validate: bool = True,
    ) -> None:
        if not isinstance(graph, PreferenceGraph):
            raise SolverError(
                "IncrementalSolver needs the mutable PreferenceGraph "
                "representation"
            )
        self.graph = graph
        self.k = k
        self.variant = Variant.coerce(variant)
        self.tolerance = tolerance
        self.tracer = coerce_tracer(tracer)
        self.validate = validate
        self._previous_order: Optional[List[Hashable]] = None
        self.last_reused_prefix = 0
        self.last_result: Optional[SolveResult] = None

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def update_node_weight(self, item: Hashable, weight: float) -> None:
        """Set a node's request probability.

        The caller is responsible for keeping total weight ~1 (e.g.
        shifting mass between items); ``resolve`` revalidates.
        """
        if item not in self.graph:
            raise UnknownItemError(item)
        self.graph.add_item(item, weight)

    def update_edge_weight(
        self, source: Hashable, target: Hashable, weight: float
    ) -> None:
        """Set (or insert) an edge's acceptance probability."""
        self.graph.add_edge(source, target, weight)

    def remove_edge(self, source: Hashable, target: Hashable) -> None:
        """Remove an edge."""
        self.graph.remove_edge(source, target)

    def add_item(self, item: Hashable, weight: float) -> None:
        """Introduce a new item."""
        if item in self.graph:
            raise SolverError(f"item {item!r} already exists")
        self.graph.add_item(item, weight)

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(self) -> SolveResult:
        """Solve from scratch and remember the order for later reuse."""
        result = self._solve_with_replay(previous=None)
        return result

    def resolve(self) -> SolveResult:
        """Re-solve after updates, reusing the stable greedy prefix."""
        return self._solve_with_replay(previous=self._previous_order)

    def _solve_with_replay(
        self, previous: Optional[List[Hashable]]
    ) -> SolveResult:
        if self.validate:
            self.graph.validate(self.variant)
        csr = as_csr(self.graph)
        n = csr.n_items
        k = self.k
        if k < 0 or k > n:
            raise SolverError(f"k={k} out of range [0, {n}]")

        tracer = self.tracer
        start = time.perf_counter()
        state = GreedyState(csr, self.variant, tracer=tracer)
        gains = prepare_accelerated_gains(state)
        prefix_covers = np.zeros(k + 1, dtype=np.float64)
        reused = 0

        if previous:
            for item in previous:
                if state.size >= k:
                    break
                try:
                    candidate = csr.index_of(item)
                except UnknownItemError:
                    break  # item disappeared; diverge here
                if state.in_set[candidate]:
                    break
                # Retained entries are already -inf in the gain array.
                best_gain = gains.values[gains.argmax()]
                if gains.values[candidate] + self.tolerance < best_gain:
                    break  # no longer a maximum-gain choice
                accelerated_step(state, gains, force=candidate, tracer=tracer)
                prefix_covers[state.size] = state.cover
                reused += 1
                if tracer.enabled:
                    tracer.iteration(
                        state.size - 1, item=item, node=candidate,
                        cover=float(state.cover),
                        strategy="greedy-incremental", reused=True,
                    )

        while state.size < k:
            best, gain = accelerated_step(state, gains, tracer=tracer)
            prefix_covers[state.size] = state.cover
            if tracer.enabled:
                tracer.iteration(
                    state.size - 1, item=csr.items[best], node=best,
                    gain=gain, cover=float(state.cover),
                    strategy="greedy-incremental", reused=False,
                )

        elapsed = time.perf_counter() - start
        if tracer.enabled:
            tracer.incr("incremental.reused_prefix", reused)
            tracer.event(
                "solve.end", solver="greedy-incremental",
                cover=float(state.cover), wall_time_s=elapsed,
                reused_prefix=reused,
            )
        indices = state.retained_indices()
        result = SolveResult(
            variant=self.variant,
            k=k,
            retained=[csr.items[i] for i in indices.tolist()],
            retained_indices=indices,
            cover=float(state.cover),
            coverage=state.coverage,
            item_ids=csr.items,
            prefix_covers=prefix_covers,
            strategy="greedy-incremental",
            wall_time_s=elapsed,
            gain_evaluations=n,
            context_digest=solve_context_digest(csr, self.variant, k=k),
        )
        self._previous_order = list(result.retained)
        self.last_reused_prefix = reused
        self.last_result = result
        return result
