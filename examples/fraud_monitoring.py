"""Fraud-pattern emergence — the paper's second motivating application.

Section 1 motivates incremental summarization with "early detection of ...
fraudulent transactions on debit cards": a large transaction history where
a *new, small, dense* pattern appearing in a previously empty region of
feature space is exactly the signal an analyst needs surfaced quickly.

This example streams transaction batches into an incrementally maintained
summary and uses two built-in signals to raise an alert:

* the **β quality measure** flags a bubble as over-filled the moment the
  emerging pattern concentrates enough mass in one summary region — before
  any clustering is run at all;
* the **reachability plot** of the bubbles then confirms a new deep valley
  far from the established behaviour clusters.

Run:  python examples/fraud_monitoring.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    BubbleBuilder,
    BubbleConfig,
    IncrementalMaintainer,
    MaintenanceConfig,
    PointStore,
    UpdateBatch,
)
from repro.clustering import BubbleOptics, extract_cluster_tree

DIM = 4  # amount, hour-of-day, merchant risk, geo distance (normalised)
HISTORY = 15_000
BUBBLES = 150
FRAUD_CENTER = np.array([9.0, 3.5, 8.5, 9.5])  # far from normal behaviour


def main() -> None:
    rng = np.random.default_rng(7)

    # Normal behaviour: three legitimate transaction patterns.
    normal = np.vstack(
        [
            rng.normal([2.0, 1.0, 1.0, 1.0], 0.6, size=(7_000, DIM)),
            rng.normal([5.0, 8.0, 2.0, 2.0], 0.6, size=(5_000, DIM)),
            rng.normal([1.0, 5.0, 6.0, 1.5], 0.6, size=(3_000, DIM)),
        ]
    )
    labels = np.array([0] * 7_000 + [1] * 5_000 + [2] * 3_000)
    store = PointStore(dim=DIM)
    store.insert(normal, labels)
    bubbles = BubbleBuilder(BubbleConfig(num_bubbles=BUBBLES, seed=7)).build(
        store
    )
    maintainer = IncrementalMaintainer(
        bubbles, store, MaintenanceConfig(seed=7)
    )
    print(
        f"monitoring {store.size} transactions, {BUBBLES} bubbles, "
        f"3 known behaviour patterns\n"
    )

    # Stream: mostly legitimate churn; fraud ramps up from batch 4.
    for batch_num in range(1, 9):
        fraud_count = 0 if batch_num < 4 else 60 * (batch_num - 3)
        legit_count = 450 - fraud_count
        legit = rng.normal(
            [2.0, 1.0, 1.0, 1.0], 0.6, size=(legit_count, DIM)
        )
        fraud = rng.normal(FRAUD_CENTER, 0.3, size=(fraud_count, DIM))
        expired = rng.choice(store.ids(), size=450, replace=False)
        batch = UpdateBatch(
            deletions=tuple(int(i) for i in expired),
            insertions=np.vstack([legit, fraud]),
            insertion_labels=tuple([0] * legit_count + [9] * fraud_count),
        )
        report = maintainer.apply_batch(batch)

        # Signal 1: summary-level anomaly — over-filled bubbles.
        if report.num_over_filled:
            flagged = maintainer.classify().over_filled_ids
            centers = [maintainer.bubbles[b].rep for b in flagged]
            dists = [
                float(np.linalg.norm(c - FRAUD_CENTER)) for c in centers
            ]
            print(
                f"batch {batch_num}: ALERT — {report.num_over_filled} "
                f"over-filled bubble(s); nearest flagged representative is "
                f"{min(dists):.1f} from the (unknown) fraud centre; "
                f"{report.num_rebuilt} bubbles repositioned"
            )
        else:
            print(f"batch {batch_num}: summary quiet ({fraud_count} fraud txns hidden in batch)")

    # Signal 2: the hierarchical clustering confirms a new pattern.
    result = BubbleOptics(min_pts=50).fit(maintainer.bubbles)
    expanded = result.expanded()
    tree = extract_cluster_tree(expanded.reachability, min_size=300)
    print(f"\nfinal clustering finds {len(tree.leaves())} behaviour patterns")
    ids, _, truth = store.snapshot()
    fraud_points = int((truth == 9).sum())

    # How much of the fraud ended up in dedicated bubbles?
    fraud_bubbles = 0
    covered = 0
    for bubble in maintainer.bubbles:
        if bubble.is_empty():
            continue
        member_labels = store.labels_of(store.owned_by(bubble.bubble_id))
        if (member_labels == 9).mean() > 0.8:
            fraud_bubbles += 1
            covered += int((member_labels == 9).sum())
    print(
        f"{fraud_points} fraudulent transactions live in the database; "
        f"{covered} of them are summarized by {fraud_bubbles} dedicated "
        f"bubble(s) that migrated there via merge/split"
    )


if __name__ == "__main__":
    main()
