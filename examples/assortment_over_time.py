"""Maintaining a reduced assortment as the market drifts.

Combines three pieces the paper's conclusion points toward: a consumer
population whose popularity and preferences drift week over week
(``DriftingMarket``), streaming graph maintenance with decayed counts
(``OnlineAdaptationEngine``), and an ``AssortmentService`` that takes
each week's change as a ``GraphDelta`` (``graph_delta``) and serves a
cold re-solve of the merged graph.  Each week the served assortment is
audited for lost demand and load-bearing items.

Run:  python examples/assortment_over_time.py
"""

from repro.adaptation import OnlineAdaptationEngine
from repro.adaptation.engine import AdaptationConfig
from repro.clickstream import DriftConfig, DriftingMarket, ShopperConfig
from repro.clickstream.drift import graph_delta
from repro.core.variants import Variant
from repro.evaluation.audit import audit_retained_set
from repro.serving import AssortmentService

WEEKS = 6
SESSIONS_PER_WEEK = 15_000
ASSORTMENT_SIZE = 30


def main() -> None:
    market = DriftingMarket(
        ShopperConfig(n_items=200, behavior="independent"),
        DriftConfig(popularity_sigma=0.12, acceptance_churn=0.03),
        seed=2024,
    )
    engine = OnlineAdaptationEngine(
        AdaptationConfig(variant=Variant.INDEPENDENT),
        decay=0.6,  # older weeks fade out of the statistics
    )
    service = previous = None

    print(f"{'week':>4}  {'cover':>7}  {'swapped':>7}  "
          f"{'lost demand':>11}  load-bearing item")
    for week, clickstream, _truth in market.run(WEEKS, SESSIONS_PER_WEEK):
        engine.new_period()
        engine.observe_all(clickstream)
        graph = engine.snapshot()

        if service is None:
            service = AssortmentService(
                graph, variant="independent", k=ASSORTMENT_SIZE
            )
            snapshot = service.ensure()
            swapped = 0
        else:
            kept = set(snapshot.retained)
            snapshot = service.apply_delta(
                graph_delta(previous, graph, sequence=week)
            )
            swapped = len(set(snapshot.retained) - kept)
        previous = graph

        audit = audit_retained_set(
            snapshot.graph, snapshot.retained, "independent", top=1
        )
        top_load = audit.load_bearing[0]
        print(
            f"{week:>4}  {snapshot.cover:>7.4f}  {swapped:>7}  "
            f"{audit.total_lost:>11.4f}  "
            f"{top_load.item} (absorbs {top_load.absorbed_demand:.4f})"
        )

    print(
        "\neach week's delta is merged into the served graph, which is "
        "then solved cold: the served assortment is the greedy answer "
        "for that week's market."
    )


if __name__ == "__main__":
    main()
