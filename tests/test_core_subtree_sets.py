"""Tests for the common-subtree-set machinery (cross-page analysis)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro.core.page import Page
from repro.core.single_page import candidate_subtrees
from repro.core.subtree_sets import (
    CommonSubtreeSet,
    SubtreeCandidate,
    find_common_subtree_sets,
    make_candidate,
    shape_distance,
)
from repro.errors import ExtractionError
from repro.html.metrics import SubtreeShape
from repro.html.paths import TagCodec
from tests.oracles.records import candidate_record


def cand(path="html/body/table", fanout=3, depth=2, nodes=10, code="hbt"):
    return SubtreeCandidate(
        page_index=0,
        node=None,  # shape-only tests never touch the node
        shape=SubtreeShape(path, fanout, depth, nodes),
        code_path=code,
    )


class TestShapeDistance:
    def test_identical_zero(self):
        a = cand()
        assert shape_distance(a, a) == 0.0

    def test_range_bounded(self):
        a = cand(code="hbt", fanout=0, depth=1, nodes=1)
        b = cand(code="xyzq", fanout=10, depth=9, nodes=99)
        assert 0.0 <= shape_distance(a, b) <= 1.0

    def test_paper_path_term(self):
        # he vs het: edit distance 1, normalized by 3 (Section 3.2.1).
        a = cand(code="he")
        b = cand(code="het")
        d = shape_distance(a, b, weights=(1.0, 0.0, 0.0, 0.0))
        assert math.isclose(d, 1 / 3)

    def test_fanout_term_full_difference(self):
        a = cand(fanout=0)
        b = cand(fanout=10)
        assert shape_distance(a, b, weights=(0, 1.0, 0, 0)) == 1.0

    def test_fanout_term_same(self):
        a = cand(fanout=5)
        b = cand(fanout=5)
        assert shape_distance(a, b, weights=(0, 1.0, 0, 0)) == 0.0

    def test_zero_zero_feature_is_zero_distance(self):
        a = cand(fanout=0)
        b = cand(fanout=0)
        assert shape_distance(a, b, weights=(0, 1.0, 0, 0)) == 0.0

    def test_weights_linear_combination(self):
        a = cand(code="ab", fanout=1, depth=1, nodes=1)
        b = cand(code="ab", fanout=2, depth=2, nodes=2)
        d = shape_distance(a, b, weights=(0.25, 0.25, 0.25, 0.25))
        assert math.isclose(d, 0.25 * (0.5 + 0.5 + 0.5))

    @given(
        st.integers(0, 30), st.integers(0, 30),
        st.integers(0, 30), st.integers(0, 30),
    )
    def test_symmetric(self, f1, f2, d1, d2):
        a = cand(fanout=f1, depth=d1)
        b = cand(fanout=f2, depth=d2)
        assert math.isclose(shape_distance(a, b), shape_distance(b, a))


def make_pages(texts_per_page):
    """Pages with one table of rows per page, one row per text."""
    pages = []
    for texts in texts_per_page:
        rows = "".join(f"<tr><td>{t}</td><td>extra {t}</td></tr>" for t in texts)
        pages.append(
            Page(
                "<html><body><h2>Results</h2>"
                f"<table>{rows}</table>"
                "<p>footer text</p></body></html>"
            )
        )
    return pages


def records(page):
    """One page's candidate records — what cross-page analysis groups."""
    return [candidate_record(node) for node in candidate_subtrees(page)]


class TestFindCommonSubtreeSets:
    def test_groups_matching_regions(self):
        pages = make_pages([["a", "b"], ["c", "d"], ["e", "f"]])
        candidates = [records(p) for p in pages]
        sets = find_common_subtree_sets(candidates, seed=0)
        # The table set must exist with full support.
        table_sets = [
            s for s in sets if s.prototype.shape.path.endswith("table")
        ]
        assert table_sets and table_sets[0].support == 3

    def test_at_most_one_member_per_page(self):
        pages = make_pages([["a", "b"], ["c", "d"]])
        candidates = [records(p) for p in pages]
        for subtree_set in find_common_subtree_sets(candidates, seed=0):
            pages_seen = list(subtree_set.members)
            assert len(pages_seen) == len(set(pages_seen))

    def test_every_set_contains_prototype(self):
        pages = make_pages([["a"], ["b"]])
        candidates = [records(p) for p in pages]
        for subtree_set in find_common_subtree_sets(
            candidates, prototype_index=0, seed=0
        ):
            assert subtree_set.prototype.page_index == 0
            assert 0 in subtree_set.members

    def test_max_distance_excludes_mismatches(self):
        pages = make_pages([["a", "b"], ["c", "d"]])
        candidates = [records(p) for p in pages]
        strict = find_common_subtree_sets(
            candidates, max_assign_distance=0.0, prototype_index=0, seed=0
        )
        # With zero tolerance only exact shape matches join.
        for subtree_set in strict:
            for member in subtree_set.candidates():
                if member.page_index != 0:
                    assert shape_distance(subtree_set.prototype, member) == 0.0

    def test_empty_input_raises(self):
        with pytest.raises(ExtractionError):
            find_common_subtree_sets([])

    def test_all_pages_empty_raises(self):
        with pytest.raises(ExtractionError):
            find_common_subtree_sets([[], []])

    def test_empty_prototype_page_raises(self):
        pages = make_pages([["a"]])
        candidates = [records(pages[0]), []]
        with pytest.raises(ExtractionError):
            find_common_subtree_sets(candidates, prototype_index=1)

    @pytest.mark.parametrize("prototype_index", [-1, 4, 9])
    def test_prototype_index_outside_pages_raises(self, prototype_index):
        # A negative index must not wrap to the last page: that page
        # would seed the sets and then be matched again as page 3.
        pages = make_pages([["a", "b"], ["c"], ["d", "e"], ["f"]])
        candidates = [records(p) for p in pages]
        with pytest.raises(ExtractionError, match="not a page index"):
            find_common_subtree_sets(candidates, prototype_index=prototype_index)

    def test_prototype_index_last_page_accepted(self):
        pages = make_pages([["a", "b"], ["c"], ["d", "e"], ["f"]])
        candidates = [records(p) for p in pages]
        for subtree_set in find_common_subtree_sets(candidates, prototype_index=3):
            assert subtree_set.prototype.page_index == 3
            assert set(subtree_set.members) <= {0, 1, 2, 3}

    def test_prototype_defaults_to_non_empty_page(self):
        pages = make_pages([["a"]])
        candidates = [[], records(pages[0])]
        sets = find_common_subtree_sets(candidates, seed=0)
        assert all(s.prototype.page_index == 1 for s in sets)

    def test_deterministic_with_seed(self):
        pages = make_pages([["a", "b"], ["c"], ["d", "e"]])
        candidates = [records(p) for p in pages]
        a = find_common_subtree_sets(candidates, seed=4)
        b = find_common_subtree_sets(candidates, seed=4)
        assert [s.prototype.shape.path for s in a] == [
            s.prototype.shape.path for s in b
        ]

    def test_candidates_ordering(self):
        pages = make_pages([["a"], ["b"]])
        candidates = [records(p) for p in pages]
        sets = find_common_subtree_sets(candidates, prototype_index=0, seed=0)
        for subtree_set in sets:
            indices = [c.page_index for c in subtree_set.candidates()]
            assert indices == sorted(indices)


class TestMakeCandidate:
    def test_shape_and_code(self):
        page = Page("<html><body><table><tr><td>x</td></tr></table></body></html>")
        table = page.tree.root.find("table")
        codec = TagCodec()
        candidate = make_candidate(0, table, codec)
        assert candidate.shape.path == "html/body/table"
        assert len(candidate.code_path) == 3  # h, b, t codes
