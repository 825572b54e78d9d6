"""Tests for path expressions and tag codecs."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import PathResolutionError, PathSyntaxError
from repro.html import parse, node_path, resolve_path, simplify_path
from repro.html.paths import (
    TagCodec,
    child_steps,
    node_tag_sequence,
    parse_path,
    path_tags,
)

DOC = (
    "<html><body>"
    "<table><tr><td>1a</td></tr></table>"
    "<table><tr><td>2a</td><td>2b</td></tr><tr><td>2c</td></tr></table>"
    "<p>one</p><p>two</p>"
    "</body></html>"
)


@pytest.fixture
def tree():
    return parse(DOC)


class TestNodePath:
    def test_root(self, tree):
        assert node_path(tree.root) == "html"

    def test_unindexed_when_unique(self, tree):
        body = tree.root.find("body")
        assert node_path(body) == "html/body"

    def test_indexed_same_tag_siblings(self, tree):
        tables = tree.root.find_all("table")
        assert node_path(tables[0]) == "html/body/table[1]"
        assert node_path(tables[1]) == "html/body/table[2]"

    def test_paper_example_shape(self, tree):
        tds = tree.root.find_all("td")
        assert node_path(tds[1]) == "html/body/table[2]/tr[1]/td[1]"
        assert node_path(tds[3]) == "html/body/table[2]/tr[2]/td"

    def test_content_node_path(self, tree):
        td = tree.root.find("td")
        leaf = td.children[0]
        assert node_path(leaf) == "html/body/table[1]/tr/td/#text"

    def test_every_tag_node_roundtrips(self, tree):
        for node in tree.iter_tags():
            assert resolve_path(tree, node_path(node)) is node

    def test_every_content_node_roundtrips(self, tree):
        for node in tree.iter_content():
            assert resolve_path(tree, node_path(node)) is node

    def test_child_steps_extend_the_parent_path(self, tree):
        for node in tree.iter_tags():
            kids = node.tag_children()
            for kid, step in zip(kids, child_steps(kids)):
                assert node_path(kid) == f"{node_path(node)}/{step}"


class TestResolvePath:
    def test_simple(self, tree):
        assert resolve_path(tree, "html/body/p[2]").text() == "two"

    def test_missing_index_means_first(self, tree):
        assert resolve_path(tree, "html/body/table/tr/td").text() == "1a"

    def test_wrong_root_raises(self, tree):
        with pytest.raises(PathResolutionError):
            resolve_path(tree, "body/p")

    def test_out_of_range_index_raises(self, tree):
        with pytest.raises(PathResolutionError):
            resolve_path(tree, "html/body/table[9]")

    def test_missing_tag_raises(self, tree):
        with pytest.raises(PathResolutionError):
            resolve_path(tree, "html/body/video")

    def test_descend_below_leaf_raises(self, tree):
        with pytest.raises(PathResolutionError):
            resolve_path(tree, "html/body/p[1]/#text/b")

    def test_resolve_against_node(self, tree):
        body = tree.root.find("body")
        assert resolve_path(body, "body/p[1]").text() == "one"


class TestParsePath:
    def test_steps(self):
        assert parse_path("html/body/table[3]") == [
            ("html", None),
            ("body", None),
            ("table", 3),
        ]

    def test_empty_raises(self):
        with pytest.raises(PathSyntaxError):
            parse_path("")

    def test_bad_step_raises(self):
        with pytest.raises(PathSyntaxError):
            parse_path("html/ta ble")

    def test_bad_index_raises(self):
        with pytest.raises(PathSyntaxError):
            parse_path("html/table[x]")

    def test_case_normalized(self):
        assert parse_path("HTML/Body") == [("html", None), ("body", None)]

    def test_path_tags(self):
        assert path_tags("html/body/table[3]/tr") == ["html", "body", "table", "tr"]


class TestTagCodec:
    def test_paper_examples(self):
        codec = TagCodec()
        assert codec.encode("html") == "h"
        assert codec.encode("head") == "e"

    def test_stable_assignment(self):
        codec = TagCodec()
        first = codec.encode("custommade")
        assert codec.encode("custommade") == first

    def test_distinct_codes(self):
        codec = TagCodec()
        tags = ["html", "head", "body", "table", "tr", "td", "div", "span",
                "blink", "marquee", "xyz", "foo", "bar"]
        codes = [codec.encode(t) for t in tags]
        assert len(set(codes)) == len(tags)
        assert all(len(c) == 1 for c in codes)

    def test_q2_codes(self):
        codec = TagCodec(q=2)
        code = codec.encode("html")
        assert len(code) == 2

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            TagCodec(q=0)

    def test_simplify_sequence(self):
        codec = TagCodec()
        assert codec.simplify(["html", "head", "title"]) == "he" + codec.encode("title")

    @given(st.lists(st.sampled_from(["a", "b", "div", "td", "zz1", "zz2"]), max_size=8))
    def test_codes_injective_per_codec(self, tags):
        codec = TagCodec()
        mapping = {t: codec.encode(t) for t in tags}
        assert len(set(mapping.values())) == len(mapping)


class TestSimplifyPath:
    def test_paper_example(self):
        # html/head -> "he", html/head/title -> "het" (q=1)
        codec = TagCodec()
        a = simplify_path("html/head", codec)
        b = simplify_path("html/head/title", codec)
        assert a == "he"
        assert b.startswith("he") and len(b) == 3

    def test_indexes_ignored(self):
        codec = TagCodec()
        assert simplify_path("html/body/table[3]", codec) == simplify_path(
            "html/body/table[1]", codec
        )

    def test_node_tag_sequence(self):
        tree = parse(DOC)
        td = tree.root.find("td")
        assert node_tag_sequence(td) == ["html", "body", "table", "tr", "td"]
