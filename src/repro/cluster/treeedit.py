"""Zhang–Shasha ordered tree edit distance.

The paper's Section 4.1 compares THOR's tag-signature clustering
against "a more sophisticated algorithm based on tree-edit distance"
(citing Nierman & Jagadish, WebDB 2002) and reports it is orders of
magnitude slower — 1 to 5 *hours* per 110-page collection versus under
0.1 seconds. We implement the classic Zhang–Shasha (1989) dynamic
program so the cost comparison can be reproduced honestly.

Complexity is O(|T1|·|T2|·min(depth,leaves)²) time, which is exactly
why the paper rejects it as a page-clustering similarity.

The keyroot driver is a hybrid: wide keyroot forests run a kernel
that vectorizes each forest-DP row the way
:func:`repro.vsm.matrix._levenshtein_rowwise` vectorizes Levenshtein —
the deletion/substitution/subtree terms become array ops and the
sequential insertion recurrence collapses into one
``np.minimum.accumulate`` over cost-offset values — and narrow ones
stay on the scalar forest DP. With the default unit costs every
intermediate is a small integer, exact in float64, so the hybrid
agrees bitwise with the scalar-only driver kept as the test-only
reference in ``tests/oracles/``.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

import numpy as np

from repro.html.tree import Node, TagNode, TagTree

#: Minimum forest width (columns) for a keyroot pair to run the
#: vectorized row kernel; narrower forests —
#: the long tail of keyroot pairs — stay on the scalar DP, whose
#: per-cell cost beats numpy's per-row dispatch overhead there. Same
#: idea as ``repro.vsm.matrix._SCALAR_DP_AREA`` for Levenshtein.
#: Equivalence tests pin this to 1 to force the kernel everywhere.
_VECTOR_MIN_COLS = 32


def _node_label(node: Node) -> str:
    if isinstance(node, TagNode):
        return node.tag
    return "#text"


class _AnnotatedTree:
    """Postorder numbering, leftmost-leaf indices, and keyroots."""

    def __init__(self, root: TagNode) -> None:
        self.labels: list[str] = []
        self.lmld: list[int] = []  # leftmost leaf descendant, postorder index
        self._postorder(root)
        self.keyroots = self._keyroots()

    def _postorder(self, root: TagNode) -> None:
        # Iterative postorder to avoid recursion limits on deep pages.
        stack: list[tuple[Node, bool]] = [(root, False)]
        lmld_of: dict[int, int] = {}
        # Map from node object id to its postorder index once visited.
        index_of: dict[int, int] = {}
        while stack:
            node, expanded = stack.pop()
            if not expanded:
                stack.append((node, True))
                if isinstance(node, TagNode):
                    for child in reversed(node.children):
                        stack.append((child, False))
                continue
            index = len(self.labels)
            index_of[id(node)] = index
            self.labels.append(_node_label(node))
            if isinstance(node, TagNode) and node.children:
                first_child = node.children[0]
                self.lmld.append(lmld_of[id(first_child)])
            else:
                self.lmld.append(index)
            lmld_of[id(node)] = self.lmld[index]

    def _keyroots(self) -> list[int]:
        seen: set[int] = set()
        roots: list[int] = []
        for index in range(len(self.labels) - 1, -1, -1):
            leftmost = self.lmld[index]
            if leftmost not in seen:
                roots.append(index)
                seen.add(leftmost)
        roots.reverse()
        return roots

    def __len__(self) -> int:
        return len(self.labels)


def tree_edit_distance(
    a: Union[TagTree, TagNode],
    b: Union[TagTree, TagNode],
    relabel_cost: Optional[Callable[[str, str], float]] = None,
    insert_cost: float = 1.0,
    delete_cost: float = 1.0,
) -> float:
    """Minimum-cost edit script (insert/delete/relabel) between trees.

    Nodes are labeled by tag name (content leaves collapse to
    ``#text``), matching the structural focus of the comparison in the
    paper. ``relabel_cost`` defaults to 0/1 (same/different label).

    The DP is a hybrid row-vectorized Zhang–Shasha. The scalar forest
    DP (:func:`_compute_treedist`) fills one cell at a time. Keyroot
    forests wide enough to amortize array dispatch
    (``cols >= _VECTOR_MIN_COLS``) run :func:`_vector_pair` instead,
    which computes each DP row with whole-array operations; the many
    narrow forests stay on the scalar DP over the shared ``treedist``
    table. Both fill identical float64 values (with the default unit
    costs every intermediate is a small integer, exact in float64), so
    mixing them per pair is bitwise equivalent to either pure kernel.
    Relabel costs are looked up in a table built once over the (few,
    repeated) unique tag labels rather than called per node pair.

    >>> from repro.html import parse
    >>> t1 = parse("<html><body><p>x</p></body></html>")
    >>> t2 = parse("<html><body><div>x</div></body></html>")
    >>> tree_edit_distance(t1, t2)
    1.0
    """
    ta = _AnnotatedTree(a.root if isinstance(a, TagTree) else a)
    tb = _AnnotatedTree(b.root if isinstance(b, TagTree) else b)
    size_a, size_b = len(ta), len(tb)
    unique = sorted(set(ta.labels) | set(tb.labels))
    index = {label: position for position, label in enumerate(unique)}
    codes_a = np.fromiter(
        (index[label] for label in ta.labels), dtype=np.int64, count=size_a
    )
    codes_b = np.fromiter(
        (index[label] for label in tb.labels), dtype=np.int64, count=size_b
    )
    if relabel_cost is None:
        scalar_cost = lambda x, y: 0.0 if x == y else 1.0  # noqa: E731
        cost_table = np.ones((len(unique), len(unique)), dtype=np.float64)
        np.fill_diagonal(cost_table, 0.0)
    else:
        scalar_cost = relabel_cost
        cost_table = np.array(
            [[relabel_cost(x, y) for y in unique] for x in unique],
            dtype=np.float64,
        )
    treedist = [[0.0] * size_b for _ in range(size_a)]

    for i in ta.keyroots:
        for j in tb.keyroots:
            cols = j - tb.lmld[j] + 2
            if cols < _VECTOR_MIN_COLS:
                _compute_treedist(
                    ta,
                    tb,
                    i,
                    j,
                    treedist,
                    scalar_cost,
                    insert_cost,
                    delete_cost,
                )
            else:
                _vector_pair(
                    ta,
                    tb,
                    i,
                    j,
                    treedist,
                    cost_table,
                    codes_a,
                    codes_b,
                    insert_cost,
                    delete_cost,
                )
    return treedist[size_a - 1][size_b - 1]


def _compute_treedist(
    ta: _AnnotatedTree,
    tb: _AnnotatedTree,
    i: int,
    j: int,
    treedist: list[list[float]],
    relabel_cost: Callable[[str, str], float],
    insert_cost: float,
    delete_cost: float,
) -> None:
    li, lj = ta.lmld[i], tb.lmld[j]
    rows = i - li + 2
    cols = j - lj + 2
    forest = [[0.0] * cols for _ in range(rows)]
    for di in range(1, rows):
        forest[di][0] = forest[di - 1][0] + delete_cost
    for dj in range(1, cols):
        forest[0][dj] = forest[0][dj - 1] + insert_cost
    for di in range(1, rows):
        node_i = li + di - 1
        for dj in range(1, cols):
            node_j = lj + dj - 1
            if ta.lmld[node_i] == li and tb.lmld[node_j] == lj:
                # Both forests are whole trees rooted at node_i/node_j.
                cost = min(
                    forest[di - 1][dj] + delete_cost,
                    forest[di][dj - 1] + insert_cost,
                    forest[di - 1][dj - 1]
                    + relabel_cost(ta.labels[node_i], tb.labels[node_j]),
                )
                forest[di][dj] = cost
                treedist[node_i][node_j] = cost
            else:
                prefix_i = ta.lmld[node_i] - li
                prefix_j = tb.lmld[node_j] - lj
                forest[di][dj] = min(
                    forest[di - 1][dj] + delete_cost,
                    forest[di][dj - 1] + insert_cost,
                    forest[prefix_i][prefix_j] + treedist[node_i][node_j],
                )


def _vector_pair(
    ta: _AnnotatedTree,
    tb: _AnnotatedTree,
    i: int,
    j: int,
    treedist: list[list[float]],
    cost_table,
    codes_a,
    codes_b,
    insert_cost: float,
    delete_cost: float,
) -> None:
    """One keyroot pair of the forest DP, one row per array pass.

    Per row, the deletion term and the third term (substitution on
    whole-tree cells, forest-link on the rest) are vector expressions;
    the insertion term — ``forest[di][dj-1] + insert_cost``, a
    left-to-right running minimum — is resolved exactly like the
    Levenshtein kernel's, with ``np.minimum.accumulate`` over
    index-offset values.

    Like the scalar DP, within one keyroot-pair computation every
    whole-tree cell writes ``treedist`` and every partial-forest cell
    reads only ``treedist`` entries finished by *earlier* keyroot
    pairs, so copying the needed ``treedist`` block up front
    (``tree_slice``) preserves the dependency order.
    """
    li, lj = ta.lmld[i], tb.lmld[j]
    rows = i - li + 2
    cols = j - lj + 2
    row_prefix = [ta.lmld[node] - li for node in range(li, i + 1)]
    col_prefix = np.asarray(tb.lmld[lj : j + 1], dtype=np.int64) - lj
    col_anchor = col_prefix == 0
    anchored = np.flatnonzero(col_anchor)
    write_cols = [lj + int(position) for position in anchored]
    sub_costs = cost_table[np.ix_(codes_a[li : i + 1], codes_b[lj : j + 1])]
    tree_slice = np.array(
        [treedist[node][lj : j + 1] for node in range(li, i + 1)],
        dtype=np.float64,
    )
    ins_offsets = np.arange(cols, dtype=np.float64) * insert_cost
    forest = np.empty((rows, cols), dtype=np.float64)
    forest[:, 0] = np.arange(rows, dtype=np.float64) * delete_cost
    forest[0, :] = ins_offsets
    for di in range(1, rows):
        previous = forest[di - 1]
        current = forest[di]
        third = forest[row_prefix[di - 1], col_prefix]
        third += tree_slice[di - 1]
        if row_prefix[di - 1] == 0:
            third[anchored] = previous[anchored] + sub_costs[di - 1][anchored]
        np.minimum(previous[1:] + delete_cost, third, out=current[1:])
        # Insertions: current[dj] = min_{p<=dj}(current[p] +
        # (dj-p)·insert) — one running minimum over offsets.
        np.subtract(current, ins_offsets, out=current)
        np.minimum.accumulate(current, out=current)
        np.add(current, ins_offsets, out=current)
        if row_prefix[di - 1] == 0:
            node_row = treedist[li + di - 1]
            for column, value in zip(
                write_cols, current[anchored + 1].tolist()
            ):
                node_row[column] = value


def normalized_tree_edit_distance(
    a: Union[TagTree, TagNode], b: Union[TagTree, TagNode]
) -> float:
    """Tree edit distance scaled by the larger tree size into [0, 1]."""
    root_a = a.root if isinstance(a, TagTree) else a
    root_b = b.root if isinstance(b, TagTree) else b
    largest = max(root_a.size(), root_b.size())
    if largest == 0:
        return 0.0
    return tree_edit_distance(root_a, root_b) / largest
