"""Tests for the HTML parser (tree building + recovery rules)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.html import parse, to_html
from repro.html.tree import ContentNode, TagNode


class TestBasicParsing:
    def test_minimal_document(self):
        tree = parse("<html><body><p>hi</p></body></html>")
        assert tree.root.tag == "html"
        assert tree.root.find("p").text() == "hi"

    def test_root_synthesized_when_missing(self):
        tree = parse("<p>loose</p><p>nodes</p>")
        assert tree.root.tag == "html"
        assert len(tree.root.find_all("p")) == 2

    def test_single_html_root_not_doubled(self):
        tree = parse("<html><body></body></html>")
        assert tree.root.tag == "html"
        assert tree.root.find_all("html") == [tree.root]

    def test_source_size_defaults_to_text_length(self):
        html = "<html><body>x</body></html>"
        assert parse(html).source_size == len(html)

    def test_source_size_override(self):
        assert parse("<p>x</p>", source_size=999).source_size == 999

    def test_url_retained(self):
        assert parse("<p>x</p>", url="http://e.com").url == "http://e.com"

    def test_whitespace_only_text_dropped(self):
        tree = parse("<html><body>  \n  <p>x</p></body></html>")
        body = tree.root.find("body")
        assert all(not isinstance(c, ContentNode) for c in body.children[:1])

    def test_whitespace_kept_when_requested(self):
        tree = parse("<p> </p>", keep_whitespace=True)
        assert tree.root.find("p").children[0].text == " "

    def test_comments_dropped(self):
        tree = parse("<p><!-- hidden -->x</p>")
        assert tree.root.find("p").text() == "x"

    def test_empty_document(self):
        tree = parse("")
        assert tree.root.tag == "html"
        assert tree.root.children == []


class TestVoidElements:
    def test_br_takes_no_children(self):
        tree = parse("<p>a<br>b</p>")
        p = tree.root.find("p")
        assert [c.text for c in p.content_children()] == ["a", "b"]
        assert tree.root.find("br").children == []

    def test_img_no_children(self):
        tree = parse("<div><img src='x'>text</div>")
        div = tree.root.find("div")
        assert div.find("img").children == []
        assert div.text() == "text"

    def test_end_tag_for_void_ignored(self):
        tree = parse("<p>a<br></br>b</p>")
        assert tree.root.find("p").text(" ") == "a b"


class TestImplicitClosing:
    def test_li_closes_li(self):
        tree = parse("<ul><li>a<li>b<li>c</ul>")
        lis = tree.root.find_all("li")
        assert [li.text() for li in lis] == ["a", "b", "c"]
        assert all(li.parent.tag == "ul" for li in lis)

    def test_td_closes_td(self):
        tree = parse("<table><tr><td>a<td>b</tr></table>")
        tds = tree.root.find_all("td")
        assert [td.text() for td in tds] == ["a", "b"]
        assert all(td.parent.tag == "tr" for td in tds)

    def test_tr_closes_tr_and_cell(self):
        tree = parse("<table><tr><td>a<tr><td>b</table>")
        trs = tree.root.find_all("tr")
        assert len(trs) == 2
        assert trs[0].parent.tag == "table"
        assert trs[1].parent.tag == "table"

    def test_p_closes_p(self):
        tree = parse("<p>one<p>two")
        ps = tree.root.find_all("p")
        assert [p.text() for p in ps] == ["one", "two"]

    def test_block_closes_p(self):
        tree = parse("<p>intro<ul><li>x</li></ul>")
        p = tree.root.find("p")
        assert p.find("ul") is None

    def test_nested_table_scoping(self):
        # A <tr> in a nested table must not close the outer table's row.
        tree = parse(
            "<table><tr><td><table><tr><td>in</td></tr></table></td>"
            "<td>out</td></tr></table>"
        )
        outer_table = tree.root.find("table")
        outer_rows = [
            c for c in outer_table.tag_children() if c.tag == "tr"
        ]
        assert len(outer_rows) == 1
        outer_cells = outer_rows[0].tag_children()
        assert len(outer_cells) == 2
        assert outer_cells[1].text() == "out"

    def test_dt_dd_alternation(self):
        tree = parse("<dl><dt>k1<dd>v1<dt>k2<dd>v2</dl>")
        dl = tree.root.find("dl")
        tags = [c.tag for c in dl.tag_children()]
        assert tags == ["dt", "dd", "dt", "dd"]

    def test_option_closes_option(self):
        tree = parse("<select><option>a<option>b</select>")
        options = tree.root.find_all("option")
        assert [o.text() for o in options] == ["a", "b"]

    def test_nested_list_scoping(self):
        tree = parse("<ul><li>a<ul><li>a1</li></ul></li><li>b</li></ul>")
        outer = tree.root.find("ul")
        outer_items = [c for c in outer.tag_children() if c.tag == "li"]
        assert len(outer_items) == 2


class TestEndTagRecovery:
    def test_unmatched_end_tag_dropped(self):
        tree = parse("<div>a</span>b</div>")
        assert tree.root.find("div").text(" ") == "a b"

    def test_end_tag_closes_intervening(self):
        tree = parse("<div><b>bold</div>after")
        div = tree.root.find("div")
        assert div.find("b").text() == "bold"
        # "after" must be outside the div.
        assert "after" not in div.text()

    def test_unclosed_elements_closed_at_eof(self):
        tree = parse("<div><p>x")
        assert tree.root.find("p").text() == "x"


class TestRoundTrip:
    CASES = [
        "<html><body><p>a</p></body></html>",
        "<html><body><table><tr><td>a</td><td>b</td></tr></table></body></html>",
        "<html><ul><li>one</li><li>two</li></ul></html>",
        '<html><a href="x.html">link</a></html>',
        "<html><div><div><div>deep</div></div></div></html>",
    ]

    @pytest.mark.parametrize("html", CASES)
    def test_parse_serialize_fixpoint(self, html):
        once = to_html(parse(html))
        twice = to_html(parse(once))
        assert once == twice

    @pytest.mark.parametrize("html", CASES)
    def test_well_formed_preserved(self, html):
        assert to_html(parse(html)) == html


@st.composite
def html_trees(draw, depth=0):
    """Random small well-formed HTML fragments."""
    if depth >= 3 or draw(st.booleans()):
        text = draw(st.text(alphabet="abc ", min_size=1, max_size=6))
        return text.replace(" ", "x")  # keep non-whitespace
    tag = draw(st.sampled_from(["div", "span", "b", "i", "em"]))
    children = draw(st.lists(html_trees(depth=depth + 1), max_size=3))
    return f"<{tag}>{''.join(children)}</{tag}>"


class TestParserProperties:
    @given(st.text(max_size=300))
    def test_never_raises(self, html):
        parse(html)

    @given(html_trees())
    def test_wellformed_roundtrip_stable(self, fragment):
        html = f"<html>{fragment}</html>"
        once = to_html(parse(html))
        assert to_html(parse(once)) == once

    @given(st.text(alphabet="<>/abtd ", max_size=120))
    def test_malformed_produces_tree(self, html):
        tree = parse(html)
        assert tree.root.tag == "html"
        # Every node is reachable and parented consistently.
        for node in tree.iter():
            if node is not tree.root:
                assert node.parent is not None
                assert node in node.parent.children


class TestRawTextElements:
    def test_title_content_preserved(self):
        tree = parse("<html><head><title>a < b & c</title></head></html>")
        assert tree.root.find("title").text() == "a < b & c"

    def test_textarea_markup_not_parsed(self):
        tree = parse("<html><body><textarea><b>raw</b></textarea></body></html>")
        textarea = tree.root.find("textarea")
        assert textarea.find("b") is None
        assert "<b>raw</b>" in textarea.text()

    def test_script_content_single_text_node(self):
        tree = parse("<html><body><script>if (a<b) x();</script></body></html>")
        script = tree.root.find("script")
        assert len(script.children) == 1
        assert script.children[0].text == "if (a<b) x();"

    # "İ" (U+0130) lower-cases to two code points: a search in a
    # lower-cased copy would find the close tag one place late per "İ".
    def test_dotted_capital_i_in_title(self):
        tree = parse(
            "<html><head><title>İstanbul hotels</title></head>"
            "<body><p>ok</p></body></html>"
        )
        assert tree.root.find("title").text() == "İstanbul hotels"
        assert [c.tag for c in tree.root.children] == ["head", "body"]
        assert tree.root.find("body").parent is tree.root

    def test_dotted_capital_i_before_script(self):
        tree = parse("<p>İİİ</p><script>var a = 1;</script><div>after</div>")
        assert tree.root.find("script").text() == "var a = 1;"
        assert tree.root.find("div").text() == "after"

    def test_close_tag_matches_ascii_case_only(self):
        # "ſ" (U+017F) case-folds to "s" but is not an ASCII letter.
        tree = parse("<script>a</ſcript>b</SCRIPT>c")
        assert tree.root.find("script").text() == "a</ſcript>b"
        assert tree.root.children[-1].text == "c"


class TestDeepDocuments:
    def test_very_deep_nesting_parses(self):
        html = "<html>" + "<div>" * 500 + "x" + "</div>" * 500 + "</html>"
        tree = parse(html)
        assert tree.root.find_all("div")[0] is not None
        assert tree.size() == 502  # html + 500 divs + 1 text leaf

    def test_wide_document_parses(self):
        html = "<html><body>" + "<p>x</p>" * 2000 + "</body></html>"
        tree = parse(html)
        assert len(tree.root.find_all("p")) == 2000
