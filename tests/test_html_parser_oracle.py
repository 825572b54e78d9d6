"""The one-pass parser against its two-stage reference.

:func:`repro.html.parser.parse` scans the markup and builds the tree
in one loop; ``tests/oracles/html.py`` tokenizes into token objects
and then builds. Both read the same recovery tables, so they must
build the same tree for every document: node for node, the same tag,
attributes, text and child order, every parent link set, and the same
``source_size`` and ``url``, with whitespace-only text kept or
dropped. Inputs are every genre's probe pages, the pages of a 200-page
simulated web, and generated documents built from fragments that
exercise each recovery rule.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.deepweb import make_site
from repro.deepweb.corpus import probe_site
from repro.deepweb.domains import DOMAINS
from repro.discovery.web import SimulatedWeb
from repro.html.parser import parse
from tests.oracles.html import assert_same_tree, parse as reference_parse


def check(html: str, **kwargs) -> None:
    for keep_whitespace in (False, True):
        assert_same_tree(
            parse(html, keep_whitespace=keep_whitespace, **kwargs),
            reference_parse(html, keep_whitespace=keep_whitespace, **kwargs),
        )


@pytest.mark.parametrize("genre", sorted(DOMAINS))
def test_probe_pages_of_every_genre(genre):
    sample = probe_site(make_site(genre, seed=1000), seed=1000)
    assert len(sample.pages) == 110
    for page in sample.pages:
        check(page.html, url=page.url)


def test_pages_of_a_200_page_web():
    web = SimulatedWeb(n_pages=200, n_portals=8, seed=5)
    for index in range(len(web)):
        url = web.url(index)
        check(web.fetch(url), url=url, source_size=index)


#: Pieces of markup that each exercise a recovery rule.
FRAGMENTS = [
    # stray "<", "</", "<!" and "<?"
    "<", "</", "<!", "<?", "< p>", "<3", "</ >", "</3>", "a < b", ">", "/",
    # unterminated quotes and comments, and their ends
    '"', "'", '<a href="', "<a href='", "<!--", "-->", "<!-- note -->", "<!-->",
    # raw-text elements in mixed case, with and without close tags
    "<script>", "</script>", "<SCRIPT>", "</ScRiPt>", "<style>", "</style >",
    "<Title>", "</TITLE>", "<textarea>", "</textarea>", "<script/>", "</scriptx>",
    # CDATA, doctypes, bogus declarations, processing instructions
    "<![CDATA[", "]]>", "<![CDATA[x<y]]>", "<![CDATA[]]>", "<!DOCTYPE html>",
    "<!doctype", "<!foo>", "<?xml version='1.0'?>",
    # entities
    "&amp;", "&#65;", "&#x41;", "&bogus;", "&", "&nbsp;", "&#0;",
    # bare, quoted and a=b/c attributes, junk between them
    '<a href="x">', "<a href='y'>", "<a href=z>", "<a b=c/d>", "<a @ b>",
    '<a b="c"d="e">', "<a b= c>", "<a b =c>", "<a b=>", "<a b= >", "<a b=/>",
    '<a b=c"d>', '<x a= b="c d">', '<a b="&amp;">', "<A HREF=X>", "<a:b c-d=e.f>",
    "<td colspan=2 align=center>", "<input disabled>", "<p / >", "<x/y>", "<div/>",
    "<a", "<a b", "<a b=",
    # void elements and their end tags
    "<br>", "</br>", "<br/>", "<img src=x>", "</img>", "<hr>", "<col>", "<frame/>",
    # implicit closers in nested tables and lists
    "<table>", "</table>", "<tr>", "</tr>", "<td>", "</td>", "<th>", "<tbody>",
    "<thead>", "<tfoot>", "<colgroup>", "<ul>", "</ul>", "<ol>", "<li>", "</li>",
    "<dl>", "<dt>", "<dd>", "<select>", "<option>", "<optgroup>", "<p>", "<P>",
    "</p>", "<div>", "</div>", "<h1>", "</h1>", "<html>", "</html>", "<body>",
    "</body>", "<b>", "</b>",
    # whitespace runs, text, and U+0130
    " ", "  \n\t ", "\r\n", "\f", "\xa0", "　", "word", "two words", "İ", "İİİ",
    "ı", "ſ", "K",
]

documents = st.lists(
    st.one_of(st.sampled_from(FRAGMENTS), st.text(max_size=4)), max_size=40
).map("".join)


@settings(max_examples=600, deadline=None)
@given(documents)
def test_generated_documents(html):
    check(html)


@pytest.mark.parametrize(
    "html",
    [
        "<html><head><title>İstanbul hotels</title></head>"
        "<body><p>ok</p></body></html>",
        "<p>İİİ</p><script>var a = 1;</script><div>after</div>",
    ],
    ids=["title", "script"],
)
def test_dotted_capital_i_before_a_rawtext_close(html):
    check(html)
