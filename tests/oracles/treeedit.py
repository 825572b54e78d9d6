"""Reference Zhang–Shasha driver: the scalar forest DP on every pair.

Production (:func:`repro.cluster.treeedit.tree_edit_distance`) runs a
hybrid that vectorizes the wide keyroot forests; this driver fills
every keyroot pair with the scalar
:func:`repro.cluster.treeedit._compute_treedist`, cell by cell. With
unit costs every intermediate is a small integer, exact in float64, so
the two agree bitwise.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from repro.cluster.treeedit import _AnnotatedTree, _compute_treedist
from repro.html.tree import TagNode, TagTree


def tree_edit_distance(
    a: Union[TagTree, TagNode],
    b: Union[TagTree, TagNode],
    relabel_cost: Optional[Callable[[str, str], float]] = None,
    insert_cost: float = 1.0,
    delete_cost: float = 1.0,
) -> float:
    """Minimum-cost edit script between trees, scalar DP only."""
    root_a = a.root if isinstance(a, TagTree) else a
    root_b = b.root if isinstance(b, TagTree) else b

    ta = _AnnotatedTree(root_a)
    tb = _AnnotatedTree(root_b)
    size_a, size_b = len(ta), len(tb)
    if relabel_cost is None:
        relabel_cost = lambda x, y: 0.0 if x == y else 1.0  # noqa: E731
    treedist = [[0.0] * size_b for _ in range(size_a)]
    for i in ta.keyroots:
        for j in tb.keyroots:
            _compute_treedist(
                ta, tb, i, j, treedist, relabel_cost, insert_cost, delete_cost
            )
    return treedist[size_a - 1][size_b - 1]


def normalized_tree_edit_distance(
    a: Union[TagTree, TagNode], b: Union[TagTree, TagNode]
) -> float:
    """Scalar tree edit distance scaled by the larger tree size."""
    root_a = a.root if isinstance(a, TagTree) else a
    root_b = b.root if isinstance(b, TagTree) else b
    largest = max(root_a.size(), root_b.size())
    if largest == 0:
        return 0.0
    return tree_edit_distance(root_a, root_b) / largest
