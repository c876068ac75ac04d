"""Interior sums of a dyadic shard tree over its canonical block cover."""

from repro.sketches.dyadic import dyadic_decompose


def range_sum(tree, first: int, last: int) -> float:
    """``sum(totals[first..last])`` by adding the tree's own nodes.

    Walks the same at most ``2 log2(S)``-block cover the Count-Min
    estimator uses, reading ``tree.levels`` directly, so it checks the
    prefix-difference path of ``range_sum_many`` without calling it.
    """
    total = 0.0
    for level, block in dyadic_decompose(int(first), int(last), tree.depth):
        total += float(tree.levels[level][block])
    return total
