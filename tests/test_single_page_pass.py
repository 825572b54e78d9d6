"""The one-pass record builder against the per-node reference.

:func:`repro.core.single_page.page_candidate_records` stems each
content node once and sums term counts up the tree;
:mod:`tests.oracles.records` re-reads every candidate's text, size,
path and depth from the live node. Records must agree exactly, with
term-count insertion order included (it fixes the TFIDF vocabulary's
column order), on simulated pages of every genre and on generated
trees that split words across inline tags and node boundaries. A
caller-owned stem memo must never change what extraction returns.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.page import Page
from repro.core.single_page import candidate_subtrees, page_candidate_records
from repro.deepweb import generate_corpus
from repro.deepweb.domains import DOMAINS
from repro.html.tree import ContentNode, TagNode, TagTree
from repro.text.terms import DEFAULT_EXTRACTOR, TermExtractor
from tests.oracles import records as oracle

ALL_DOMAINS = sorted(DOMAINS)

#: Fragments that split or glue words at node boundaries: an
#: apostrophe or hyphen at one node's edge, empty and whitespace-only
#: text, punctuation without terms, and stems that collide.
FRAGMENTS = (
    "o'",
    "brien",
    "O'Brien's",
    "blu-",
    "ray",
    "Blu-Ray",
    "-ray",
    "",
    " ",
    "\n\t",
    "$19.99",
    "--",
    "connected",
    "Connecting connections",
    "caresses ponies",
    "the cat",
    "Cats",
    "2004",
    "café naïve",
)
TAGS = ("div", "span", "b", "i", "p", "td", "tr", "li", "ul", "table")


@st.composite
def tag_trees(draw, max_depth: int = 7) -> TagTree:
    """A random tag tree with adjacent, empty and whitespace-only
    content nodes, repeated same-tag siblings and deep nesting."""

    def node(depth: int) -> TagNode:
        tag = draw(st.sampled_from(TAGS))
        element = TagNode(tag)
        width = draw(st.integers(0, 4 if depth < max_depth else 0))
        for _ in range(width):
            if draw(st.booleans()):
                element.append(ContentNode(draw(st.sampled_from(FRAGMENTS))))
            else:
                element.append(node(depth + 1))
        return element

    body = TagNode("body")
    for _ in range(draw(st.integers(1, 4))):
        body.append(node(1))
    return TagTree(TagNode("html", children=[body]))


def _html(node) -> str:
    if isinstance(node, ContentNode):
        return node.text
    inner = "".join(_html(child) for child in node.children)
    return f"<{node.tag}>{inner}</{node.tag}>"


def assert_same_records(page: Page, require_branching: bool, stems=None) -> None:
    got = page_candidate_records(page, require_branching, stems)
    want = oracle.page_records(page, require_branching)
    assert got == want
    for mine, theirs in zip(got, want):
        assert list(mine.term_counts.items()) == list(theirs.term_counts.items())
    assert candidate_subtrees(page, require_branching) == (
        oracle.candidate_subtrees(page, require_branching)
    )


@pytest.fixture(scope="module")
def genre_pages():
    """Twelve probe-answer pages of one site per genre."""
    return {
        domain: list(
            generate_corpus(n_sites=1, seed=3, domains=[domain])[0].pages
        )[:12]
        for domain in ALL_DOMAINS
    }


class TestPassMatchesOracle:
    @pytest.mark.parametrize("require_branching", [False, True])
    def test_every_genre(self, genre_pages, require_branching):
        for pages in genre_pages.values():
            stems: dict[str, str] = {}  # one memo across the site
            for page in pages:
                assert_same_records(page, require_branching, stems)

    @settings(max_examples=150, deadline=None)
    @given(tree=tag_trees(), require_branching=st.booleans())
    def test_generated_trees(self, tree, require_branching):
        assert_same_records(Page("", tree=tree), require_branching)

    @settings(max_examples=60, deadline=None)
    @given(tree=tag_trees(), require_branching=st.booleans())
    def test_generated_html_through_the_parser(self, tree, require_branching):
        assert_same_records(Page(_html(tree.root)), require_branching)

    def test_words_split_across_inline_tags(self):
        page = Page(
            "<html><body><p><b>o'</b>brien <i>blu-</i>ray</p>"
            "<p>blu-<i>ray</i> <b></b> </p></body></html>"
        )
        records = page_candidate_records(page)
        assert [r.path for r in records] == [
            "html/body",
            "html/body/p[1]",
            "html/body/p[1]/b",
            "html/body/p[1]/i",
            "html/body/p[2]",
            "html/body/p[2]/i",
        ]
        # text() joins nodes with a space, so "o'" + "brien" is two
        # terms, exactly as the per-node text reads them.
        assert dict(records[1].term_counts) == {"o": 1, "brien": 1, "blu": 1, "rai": 1}
        assert_same_records(page, False)


TEXTS = st.text(
    alphabet=st.sampled_from("abcdeiosty'- .,0129ÉéA\n"), max_size=40
) | st.sampled_from(FRAGMENTS)


class TestStemMemo:
    @settings(max_examples=60, deadline=None)
    @given(texts=st.lists(TEXTS, min_size=1, max_size=30))
    def test_shared_memo_changes_nothing(self, texts):
        shared: dict[str, str] = {}
        for extractor in (DEFAULT_EXTRACTOR, TermExtractor(min_length=3)):
            for text in texts:
                memoised = extractor.extract_counts(text, stems=shared)
                plain = extractor.extract_counts(text)
                assert list(memoised.items()) == list(plain.items())

    def test_page_term_counts_with_a_run_memo(self, genre_pages):
        stems: dict[str, str] = {}
        for pages in genre_pages.values():
            for page in pages:
                with_memo = Page(page.html).term_counts(stems)
                without = Page(page.html).term_counts()
                assert list(with_memo.items()) == list(without.items())
        assert stems
