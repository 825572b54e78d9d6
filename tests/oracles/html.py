"""Reference HTML parsing: a token stream, then a tree builder.

Production (:func:`repro.html.parser.parse`) builds the tag tree in
the same loop that scans the markup, matching common start tags with
one regex and creating no token objects. This reference is the
two-stage formulation it replaced: a lenient tokenizer reads the
document through a cursor, one character at a time in tag and
attribute names, and yields one frozen token per start tag, end tag,
text run, comment and doctype; :class:`_TreeBuilder` then applies the
recovery rules to an open-element stack. It reads its recovery tables
(void, raw-text, implicit-closer and scope-boundary elements) from
:mod:`repro.html.parser`, so only scanning and building differ. The
two must build the same tree for every document, node for node.

The tokenizer never raises on malformed markup:

- A ``<`` that does not begin a plausible tag is treated as text.
- Attribute values may be double-quoted, single-quoted, or bare.
- ``<script>``, ``<style>``, ``<textarea>`` and ``<title>`` switch to
  raw-text mode until the matching close tag, found by an ASCII
  case-insensitive search of the original text.
- ``<!-- ... -->`` comments, ``<!DOCTYPE ...>`` and ``<![CDATA[ ... ]]>``
  are recognized; bogus declarations (``<!foo>``) become comments.

Tag and attribute names are lower-cased at tokenization time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Union

from repro.html.entities import decode_entities
from repro.html.parser import (
    IMPLICIT_CLOSERS,
    RAWTEXT_ELEMENTS,
    SCOPE_BOUNDARIES,
    VOID_ELEMENTS,
)
from repro.html.tree import ContentNode, Node, TagNode, TagTree

_NAME_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_NAME_CHARS = _NAME_START | frozenset("0123456789-_:.")
_SPACE = frozenset(" \t\n\r\f")


@dataclass(frozen=True)
class StartTag:
    """A start tag, e.g. ``<td colspan="2">``."""

    name: str
    attrs: tuple[tuple[str, str], ...] = ()
    self_closing: bool = False

    def get(self, attr: str, default: str | None = None) -> str | None:
        """Return the first value for ``attr`` (case-insensitive)."""
        wanted = attr.lower()
        for key, value in self.attrs:
            if key == wanted:
                return value
        return default


@dataclass(frozen=True)
class EndTag:
    """An end tag, e.g. ``</td>``."""

    name: str


@dataclass(frozen=True)
class Text:
    """A run of character data between tags (entity-decoded)."""

    data: str


@dataclass(frozen=True)
class Comment:
    """An HTML comment or a bogus declaration downgraded to a comment."""

    data: str


@dataclass(frozen=True)
class Doctype:
    """A ``<!DOCTYPE ...>`` declaration (content kept verbatim)."""

    data: str


Token = Union[StartTag, EndTag, Text, Comment, Doctype]


@dataclass
class _Cursor:
    """Mutable scan position over the source text."""

    text: str
    pos: int = 0
    length: int = field(init=False)

    def __post_init__(self) -> None:
        self.length = len(self.text)

    def eof(self) -> bool:
        return self.pos >= self.length

    def peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        if index < self.length:
            return self.text[index]
        return ""

    def advance(self, count: int = 1) -> None:
        self.pos += count

    def skip_space(self) -> None:
        while self.pos < self.length and self.text[self.pos] in _SPACE:
            self.pos += 1


def _scan_name(cur: _Cursor) -> str:
    start = cur.pos
    while not cur.eof() and cur.peek() in _NAME_CHARS:
        cur.advance()
    return cur.text[start : cur.pos].lower()


def _scan_attribute_value(cur: _Cursor) -> str:
    quote = cur.peek()
    if quote in ('"', "'"):
        cur.advance()
        start = cur.pos
        end = cur.text.find(quote, start)
        if end == -1:
            # Unterminated quote: take everything to end of document.
            end = cur.length
            cur.pos = end
        else:
            cur.pos = end + 1
        return decode_entities(cur.text[start:end])
    start = cur.pos
    while not cur.eof() and cur.peek() not in _SPACE and cur.peek() not in (">", "/"):
        cur.advance()
    return decode_entities(cur.text[start : cur.pos])


def _scan_attributes(cur: _Cursor) -> tuple[tuple[tuple[str, str], ...], bool]:
    """Scan attributes up to (and past) the closing ``>``.

    Returns the attribute pairs and whether the tag was self-closing.
    """
    attrs: list[tuple[str, str]] = []
    self_closing = False
    while True:
        cur.skip_space()
        if cur.eof():
            break
        ch = cur.peek()
        if ch == ">":
            cur.advance()
            break
        if ch == "/":
            cur.advance()
            cur.skip_space()
            if cur.peek() == ">":
                cur.advance()
                self_closing = True
                break
            continue
        if ch not in _NAME_START:
            # Junk between attributes: skip one character and retry.
            cur.advance()
            continue
        name = _scan_name(cur)
        cur.skip_space()
        value = ""
        if cur.peek() == "=":
            cur.advance()
            cur.skip_space()
            value = _scan_attribute_value(cur)
        attrs.append((name, value))
    return tuple(attrs), self_closing


def _scan_comment(cur: _Cursor) -> Comment:
    # cur is positioned just after "<!--".
    end = cur.text.find("-->", cur.pos)
    if end == -1:
        data = cur.text[cur.pos :]
        cur.pos = cur.length
    else:
        data = cur.text[cur.pos : end]
        cur.pos = end + 3
    return Comment(data)


def _scan_declaration(cur: _Cursor) -> Token:
    # cur is positioned just after "<!".
    rest = cur.text[cur.pos : cur.pos + 7].lower()
    if rest.startswith("doctype"):
        end = cur.text.find(">", cur.pos)
        if end == -1:
            end = cur.length
        data = cur.text[cur.pos + 7 : end].strip()
        cur.pos = min(end + 1, cur.length)
        return Doctype(data)
    if cur.text.startswith("[CDATA[", cur.pos):
        end = cur.text.find("]]>", cur.pos + 7)
        if end == -1:
            data = cur.text[cur.pos + 7 :]
            cur.pos = cur.length
        else:
            data = cur.text[cur.pos + 7 : end]
            cur.pos = end + 3
        return Text(data)
    # Bogus declaration: consume to ">" and emit as comment.
    end = cur.text.find(">", cur.pos)
    if end == -1:
        end = cur.length
    data = cur.text[cur.pos : end]
    cur.pos = min(end + 1, cur.length)
    return Comment(data)


def _close_tag(element: str) -> "re.Pattern[str]":
    """``</element`` in any ASCII letter case. (``str.lower`` would
    turn each ``İ`` into two code points and shift every offset after
    it, so the search runs on the original text.)"""
    return re.compile(re.escape("</" + element), re.ASCII | re.IGNORECASE)


def _scan_rawtext(cur: _Cursor, element: str) -> str:
    """Consume raw text until ``</element``, leaving the cursor on it."""
    found = _close_tag(element).search(cur.text, cur.pos)
    if found is None:
        data = cur.text[cur.pos :]
        cur.pos = cur.length
    else:
        data = cur.text[cur.pos : found.start()]
        cur.pos = found.start()
    return data


def tokenize(html: str) -> Iterator[Token]:
    """Yield tokens for ``html``.

    Never raises on malformed markup. Text tokens are entity-decoded;
    adjacent text is coalesced into a single token.

    >>> [t for t in tokenize('<b>hi</b>')]
    [StartTag(name='b', attrs=(), self_closing=False), Text(data='hi'), EndTag(name='b')]
    """
    cur = _Cursor(html)
    text_start = 0

    def flush_text(upto: int) -> Iterator[Text]:
        if upto > text_start:
            data = cur.text[text_start:upto]
            if data:
                yield Text(decode_entities(data))

    while not cur.eof():
        lt = cur.text.find("<", cur.pos)
        if lt == -1:
            cur.pos = cur.length
            yield from flush_text(cur.length)
            return
        nxt = cur.text[lt + 1] if lt + 1 < cur.length else ""
        if nxt in _NAME_START:
            yield from flush_text(lt)
            cur.pos = lt + 1
            name = _scan_name(cur)
            attrs, self_closing = _scan_attributes(cur)
            yield StartTag(name, attrs, self_closing)
            if name in RAWTEXT_ELEMENTS and not self_closing:
                raw = _scan_rawtext(cur, name)
                if raw:
                    yield Text(raw)
                # Consume the close tag if present.
                if _close_tag(name).match(cur.text, cur.pos):
                    cur.pos += 2 + len(name)
                    end = cur.text.find(">", cur.pos)
                    cur.pos = cur.length if end == -1 else end + 1
                    yield EndTag(name)
            text_start = cur.pos
        elif nxt == "/":
            yield from flush_text(lt)
            cur.pos = lt + 2
            name = _scan_name(cur)
            end = cur.text.find(">", cur.pos)
            cur.pos = cur.length if end == -1 else end + 1
            if name:
                yield EndTag(name)
            text_start = cur.pos
        elif nxt == "!":
            yield from flush_text(lt)
            cur.pos = lt + 2
            if cur.text.startswith("--", cur.pos):
                cur.pos += 2
                yield _scan_comment(cur)
            else:
                yield _scan_declaration(cur)
            text_start = cur.pos
        elif nxt == "?":
            # Processing instruction (e.g. <?xml ...?>): skip as comment.
            yield from flush_text(lt)
            end = cur.text.find(">", lt + 2)
            data_end = cur.length if end == -1 else end
            yield Comment(cur.text[lt + 2 : data_end])
            cur.pos = cur.length if end == -1 else end + 1
            text_start = cur.pos
        else:
            # Stray "<": treat as text and keep scanning.
            cur.pos = lt + 1
    yield from flush_text(cur.length)


class _TreeBuilder:
    """Incremental tree construction with an open-element stack."""

    def __init__(self, keep_whitespace: bool) -> None:
        self.keep_whitespace = keep_whitespace
        self.top_level: list[Node] = []
        self.stack: list[TagNode] = []

    def _attach(self, node: Node) -> None:
        if self.stack:
            self.stack[-1].append(node)
        else:
            self.top_level.append(node)

    def _close_implicit(self, incoming: str) -> None:
        closers = IMPLICIT_CLOSERS.get(incoming)
        if not closers:
            return
        # Close the *outermost* open element named in `closers` within
        # the current scope (e.g. an incoming <tr> closes the open <tr>
        # together with the <td> inside it), but never cross a scope
        # boundary — a <tr> inside a nested <table> must not close the
        # outer table's <tr>.
        outermost = -1
        for index in range(len(self.stack) - 1, -1, -1):
            tag = self.stack[index].tag
            if tag in closers:
                outermost = index
                continue
            if tag in SCOPE_BOUNDARIES:
                break
        if outermost >= 0:
            del self.stack[outermost:]

    def handle(self, token: Token) -> None:
        if isinstance(token, StartTag):
            self._close_implicit(token.name)
            node = TagNode(token.name, token.attrs)
            self._attach(node)
            if not token.self_closing and token.name not in VOID_ELEMENTS:
                self.stack.append(node)
        elif isinstance(token, EndTag):
            if token.name in VOID_ELEMENTS:
                return
            for index in range(len(self.stack) - 1, -1, -1):
                if self.stack[index].tag == token.name:
                    del self.stack[index:]
                    return
            # No matching open element: drop the end tag.
        elif isinstance(token, Text):
            data = token.data
            if not self.keep_whitespace:
                if not data.strip():
                    return
            self._attach(ContentNode(data))
        # Comments and doctypes carry no structure or content: dropped.

    def finish(self) -> TagNode:
        """Close all open elements and return a single ``html`` root."""
        self.stack.clear()
        roots = self.top_level
        if len(roots) == 1 and isinstance(roots[0], TagNode) and roots[0].tag == "html":
            return roots[0]
        root = TagNode("html")
        for node in roots:
            root.append(node)
        return root


def parse_tokens(
    tokens: Iterable[Token], keep_whitespace: bool = False
) -> TagNode:
    """Build a tag tree from an iterable of tokens."""
    builder = _TreeBuilder(keep_whitespace)
    for token in tokens:
        builder.handle(token)
    return builder.finish()


def parse(
    html: str,
    url: str = "",
    keep_whitespace: bool = False,
    source_size: Optional[int] = None,
) -> TagTree:
    """The reference for :func:`repro.html.parser.parse`: tokenize,
    then build."""
    root = parse_tokens(tokenize(html), keep_whitespace=keep_whitespace)
    size = len(html) if source_size is None else source_size
    return TagTree(root, source_size=size, url=url)


def assert_same_tree(mine: TagTree, theirs: TagTree) -> None:
    """Assert that two parses built the same tree: node for node the
    same tag, attributes (a tuple of pairs), text and child order,
    every parent link set, and the same ``source_size`` and ``url``."""
    assert (mine.source_size, mine.url) == (theirs.source_size, theirs.url)
    assert mine.root.parent is None and theirs.root.parent is None
    stack = [(mine.root, theirs.root, "html")]
    while stack:
        a, b, where = stack.pop()
        assert type(a) is type(b), where
        if isinstance(a, ContentNode):
            assert a.text == b.text, where
            continue
        assert (a.tag, a.attrs) == (b.tag, b.attrs), where
        assert type(a.attrs) is tuple and all(type(p) is tuple for p in a.attrs)
        assert len(a.children) == len(b.children), where
        for index, (x, y) in enumerate(zip(a.children, b.children)):
            assert x.parent is a and y.parent is b, where
            label = x.tag if isinstance(x, TagNode) else "#text"
            stack.append((x, y, f"{where}/{index}:{label}"))
