"""Tests for the HTML tokenizer."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from tests.oracles.html import (
    Comment,
    Doctype,
    EndTag,
    StartTag,
    Text,
    tokenize,
)


def toks(html):
    return list(tokenize(html))


class TestBasicTokens:
    def test_empty_input(self):
        assert toks("") == []

    def test_plain_text(self):
        assert toks("hello world") == [Text("hello world")]

    def test_simple_element(self):
        assert toks("<b>hi</b>") == [StartTag("b"), Text("hi"), EndTag("b")]

    def test_tag_names_lowercased(self):
        assert toks("<TABLE></Table>") == [StartTag("table"), EndTag("table")]

    def test_nested_elements(self):
        assert toks("<ul><li>x</li></ul>") == [
            StartTag("ul"),
            StartTag("li"),
            Text("x"),
            EndTag("li"),
            EndTag("ul"),
        ]

    def test_self_closing_tag(self):
        (tag,) = toks("<br/>")
        assert tag == StartTag("br", (), True)

    def test_self_closing_with_space(self):
        (tag,) = toks("<img src='a.png' />")
        assert tag.self_closing
        assert tag.get("src") == "a.png"

    def test_numeric_in_tag_name(self):
        assert toks("<h1>t</h1>")[0] == StartTag("h1")


class TestAttributes:
    def test_double_quoted(self):
        (tag,) = toks('<a href="x.html">')
        assert tag.get("href") == "x.html"

    def test_single_quoted(self):
        (tag,) = toks("<a href='x.html'>")
        assert tag.get("href") == "x.html"

    def test_unquoted(self):
        (tag,) = toks("<a href=x.html>")
        assert tag.get("href") == "x.html"

    def test_bare_attribute(self):
        (tag,) = toks("<input disabled>")
        assert tag.get("disabled") == ""

    def test_multiple_attributes(self):
        (tag,) = toks('<td colspan="2" align=center>')
        assert tag.get("colspan") == "2"
        assert tag.get("align") == "center"

    def test_attribute_names_lowercased(self):
        (tag,) = toks('<a HREF="x">')
        assert tag.get("href") == "x"
        assert tag.get("HREF") == "x"  # lookup is case-insensitive too

    def test_entities_decoded_in_values(self):
        (tag,) = toks('<a href="a&amp;b">')
        assert tag.get("href") == "a&b"

    def test_missing_attribute_returns_default(self):
        (tag,) = toks("<a>")
        assert tag.get("href") is None
        assert tag.get("href", "d") == "d"

    def test_unterminated_quote_consumes_rest(self):
        (tag,) = toks('<a href="unclosed')
        assert tag.get("href") == "unclosed"

    def test_value_with_spaces_in_quotes(self):
        (tag,) = toks('<a title="two words">')
        assert tag.get("title") == "two words"


class TestMalformedRecovery:
    def test_stray_lt_is_text(self):
        assert toks("a < b") == [Text("a < b")]

    def test_lt_followed_by_digit_is_text(self):
        assert toks("x <3 y") == [Text("x <3 y")]

    def test_unclosed_tag_at_eof(self):
        result = toks("<td")
        assert result == [StartTag("td")]

    def test_end_tag_without_name_dropped(self):
        assert toks("a</>b") == [Text("a"), Text("b")]

    def test_junk_between_attributes_skipped(self):
        (tag,) = toks('<a @ href="x">')
        assert tag.get("href") == "x"


class TestTextAndEntities:
    def test_entities_decoded(self):
        assert toks("a &amp; b") == [Text("a & b")]

    def test_numeric_entity(self):
        assert toks("&#65;") == [Text("A")]

    def test_text_between_tags(self):
        result = toks("<p>a</p>between<p>b</p>")
        assert Text("between") in result

    def test_whitespace_text_preserved_by_tokenizer(self):
        # (The parser drops whitespace-only nodes; the tokenizer must not.)
        assert toks("<b> </b>")[1] == Text(" ")


class TestSpecialConstructs:
    def test_comment(self):
        assert toks("<!-- note -->") == [Comment(" note ")]

    def test_unterminated_comment(self):
        assert toks("<!-- forever") == [Comment(" forever")]

    def test_doctype(self):
        (doc,) = toks("<!DOCTYPE html>")
        assert isinstance(doc, Doctype)
        assert doc.data == "html"

    def test_bogus_declaration_becomes_comment(self):
        (c,) = toks("<!foo>")
        assert isinstance(c, Comment)

    def test_cdata_becomes_text(self):
        assert toks("<![CDATA[x<y]]>") == [Text("x<y")]

    def test_processing_instruction_becomes_comment(self):
        (c,) = toks("<?xml version='1.0'?>")
        assert isinstance(c, Comment)

    def test_script_rawtext(self):
        result = toks("<script>if (a<b) {}</script>")
        assert result == [
            StartTag("script"),
            Text("if (a<b) {}"),
            EndTag("script"),
        ]

    def test_style_rawtext(self):
        result = toks("<style>a > b { }</style>")
        assert result[1] == Text("a > b { }")

    def test_unterminated_script(self):
        result = toks("<script>var x = 1;")
        assert result == [StartTag("script"), Text("var x = 1;")]

    def test_script_close_tag_case_insensitive(self):
        result = toks("<SCRIPT>x</SCRIPT>")
        assert result[-1] == EndTag("script")


class TestProperties:
    @given(st.text(max_size=300))
    def test_never_raises(self, html):
        list(tokenize(html))

    @given(st.text(alphabet="abc<>/='\" !-", max_size=200))
    def test_never_raises_markupish(self, html):
        list(tokenize(html))

    @given(st.text(alphabet=st.characters(blacklist_characters="<>&"), max_size=100))
    def test_plain_text_roundtrip(self, text):
        result = list(tokenize(text))
        if text:
            assert result == [Text(text)]
        else:
            assert result == []
