"""HTML text → tag tree in one pass, with HTML error recovery.

:func:`parse` scans the document once and builds the tree as it goes:
it finds each piece of markup with one precompiled regex, applies the
recovery rules to its open-element stack, and never materializes a
token. The recovery rules are the ones that matter for building
sensible trees from the wild HTML the paper's crawl met (and that HTML
Tidy applied before THOR saw the pages):

- A ``<`` that does not begin a plausible tag is text. Attribute
  values may be double-quoted, single-quoted, or bare; an unterminated
  quote runs to the end of the document, and junk between attributes
  is skipped one character at a time. Tag and attribute names are
  lower-cased; text and attribute values are entity-decoded.
- *Raw-text elements* (``<script>``, ``<style>``, ``<textarea>``,
  ``<title>``) hold their content verbatim up to the matching close
  tag, found in any ASCII letter case.
- Comments, doctypes, processing instructions and bogus declarations
  (``<!foo>``) are dropped; ``<![CDATA[...]]>`` is verbatim text.
- *Void elements* (``<br>``, ``<img>``, …) never take children, and
  neither does a self-closing tag (``<div/>``).
- *Implicit closes*: ``<li>`` closes an open ``<li>``, ``<td>`` closes
  ``<td>``/``<th>``, ``<tr>`` closes ``<tr>`` (and any open cell),
  ``<p>`` closes ``<p>``, ``<option>`` closes ``<option>``, table
  sections close each other — never across a scope boundary.
- An end tag with no matching open element is dropped; an end tag for a
  non-innermost element closes everything inside it (browser behaviour).
- Documents without a single ``<html>`` root get one synthesized so
  every tree is rooted at ``html`` (the paper's path expressions assume
  this).

Whitespace-only text between tags is dropped by default — it carries no
content and would create noise content-leaves.

The two-stage formulation this replaced — a cursor tokenizer yielding
token objects, then a tree builder — is the test-only reference
``tests/oracles/html.py``, which reads the tables below; the two must
build the same tree for every document.
"""

from __future__ import annotations

import re
from typing import Optional

from repro.html.entities import decode_entities
from repro.html.tree import ContentNode, TagNode, TagTree

#: Elements that cannot have children.
VOID_ELEMENTS = frozenset(
    {
        "area",
        "base",
        "basefont",
        "br",
        "col",
        "embed",
        "frame",
        "hr",
        "img",
        "input",
        "isindex",
        "link",
        "meta",
        "param",
        "source",
        "spacer",
        "track",
        "wbr",
    }
)

#: Elements whose content is raw text (no nested markup).
RAWTEXT_ELEMENTS = frozenset({"script", "style", "textarea", "title"})

#: When a key tag opens, close any open element from the value set
#: first (repeatedly, innermost-out).
IMPLICIT_CLOSERS: dict[str, frozenset[str]] = {
    "li": frozenset({"li"}),
    "dt": frozenset({"dt", "dd"}),
    "dd": frozenset({"dt", "dd"}),
    "p": frozenset({"p"}),
    "option": frozenset({"option"}),
    "optgroup": frozenset({"option", "optgroup"}),
    "td": frozenset({"td", "th"}),
    "th": frozenset({"td", "th"}),
    "tr": frozenset({"td", "th", "tr"}),
    "thead": frozenset({"td", "th", "tr", "tbody", "thead", "tfoot"}),
    "tbody": frozenset({"td", "th", "tr", "tbody", "thead", "tfoot"}),
    "tfoot": frozenset({"td", "th", "tr", "tbody", "thead", "tfoot"}),
    "colgroup": frozenset({"colgroup"}),
}

#: Block-level elements also implicitly close an open <p>.
_P_CLOSING_BLOCKS = (
    "address blockquote center dir div dl fieldset form h1 h2 h3 h4 h5 h6 "
    "hr ol pre table ul"
).split()
for _block in _P_CLOSING_BLOCKS:
    IMPLICIT_CLOSERS[_block] = IMPLICIT_CLOSERS.get(_block, frozenset()) | {"p"}
del _block

#: Opening one of these stops the implicit-close search (scoping
#: boundary): a new <tr> inside a nested <table> must not close the
#: outer table's <tr>.
SCOPE_BOUNDARIES = frozenset({"table", "html", "body", "select", "ul", "ol", "dl"})

# Every pattern is compiled with re.ASCII: names are ASCII letters,
# digits and ``-_:.`` (``\w`` is [A-Za-z0-9_]), whitespace is the five
# HTML space characters, and raw-text close tags match in ASCII case
# only.
_NAME = r"[A-Za-z][\w\-:.]*"
_SPACE = r"[ \t\n\r\f]"

#: One attribute as the slow scan reads it: the name, the spaces after
#: it, and optionally ``=`` with a double-quoted, single-quoted or bare
#: value. A quote left open runs to the end of the document; a bare
#: value stops at whitespace, ``>`` or ``/`` and may be empty. On a tag
#: the fast path accepted, ``findall`` over its attribute text reads the
#: same pairs.
_ATTRIBUTE = re.compile(
    rf"""({_NAME}){_SPACE}*(?:={_SPACE}*(?:"([^"]*)"?|'([^']*)'?|([^ \t\n\r\f>/]*)))?""",
    re.ASCII,
)

#: The next piece of markup, by ``lastindex``:
#:
#: 3. a well-formed start tag: name (1), attribute text (2) — each
#:    attribute after whitespace, every quote closed, a bare value
#:    neither starting with a quote nor followed by anything but
#:    whitespace, ``/>`` or ``>`` — and ``/`` (3) when self-closing;
#: 4. any other start tag, left to :func:`_scan_start_tag`;
#: 5. an end tag and its name (5), through the next ``>``;
#: 6. ``<!``: a doctype, CDATA section or bogus declaration;
#: 7. ``<!--``, a comment;
#: 8. ``<?``, a processing instruction.
#:
#: A ``<`` that begins none of these is text and is not matched. In 3,
#: an empty value must be followed by ``/`` or ``>`` and a bare value
#: cannot start with a quote; otherwise backtracking could accept a tag
#: the slow scan reads differently (``<x a= b="c d">`` as ``a=""`` and
#: ``b="c d"``, where the scan reads ``a='b="c'`` and ``d``).
_MARKUP = re.compile(
    rf"""<(?:
        ({_NAME})
        ((?:{_SPACE}+{_NAME}(?:{_SPACE}*={_SPACE}*
            (?:"[^"]*"|'[^']*'|[^ \t\n\r\f>/"'][^ \t\n\r\f>/]*|(?=[/>]))
        )?)*)
        {_SPACE}*(/?)>
      | ([A-Za-z])
      | /([\w\-:.]*)[^>]*>?
      | (!)(--)?
      | (\?)
    )""",
    re.ASCII | re.VERBOSE,
)

_TAG_NAME = re.compile(_NAME, re.ASCII)
_SPACES = re.compile(rf"{_SPACE}*")

#: ``</name`` of each raw-text element in any ASCII letter case, through
#: the next ``>``. The search runs on the original text: ``str.lower``
#: turns each ``İ`` (U+0130) into two code points, which would shift
#: every offset after it.
_RAWTEXT_CLOSE = {
    name: re.compile(f"</{name}[^>]*>?", re.ASCII | re.IGNORECASE)
    for name in RAWTEXT_ELEMENTS
}


def _attribute_value(dq: str, sq: str, bare: str) -> str:
    value = dq or sq or bare
    return decode_entities(value) if "&" in value else value


def _scan_start_tag(
    html: str, pos: int
) -> tuple[str, tuple[tuple[str, str], ...], bool, int]:
    """Read the start tag whose name begins at ``pos`` when the fast
    pattern rejected it: junk between attributes, an attribute right
    after a quoted value, an unterminated quote or tag, a ``/`` inside
    the tag. Returns the name, the attributes, whether the tag closed
    with ``/>``, and the position after the tag."""
    end = len(html)
    found = _TAG_NAME.match(html, pos)
    name = found.group().lower()
    pos = found.end()
    attrs: list[tuple[str, str]] = []
    while True:
        pos = _SPACES.match(html, pos).end()
        if pos >= end:
            return name, tuple(attrs), False, end
        char = html[pos]
        if char == ">":
            return name, tuple(attrs), False, pos + 1
        if char == "/":
            pos = _SPACES.match(html, pos + 1).end()
            if html.startswith(">", pos):
                return name, tuple(attrs), True, pos + 1
            continue
        found = _ATTRIBUTE.match(html, pos)
        if found is None:
            pos += 1  # junk between attributes: skip one character
            continue
        key, dq, sq, bare = found.groups("")
        attrs.append((key.lower(), _attribute_value(dq, sq, bare)))
        pos = found.end()


def parse(
    html: str,
    url: str = "",
    keep_whitespace: bool = False,
    source_size: Optional[int] = None,
) -> TagTree:
    """Parse HTML text into a :class:`TagTree`.

    ``source_size`` defaults to ``len(html)`` and is retained on the
    tree for the size-based baselines; pass the original byte length
    when the text was decoded from bytes.

    >>> tree = parse("<html><body><p>hi</p></body></html>")
    >>> tree.root.tag
    'html'
    >>> tree.root.find("p").text()
    'hi'
    """
    end = len(html)
    # ``document`` collects the top level; it becomes the synthesized
    # root unless that level is a single <html> element. It is never
    # closed or matched: it sits below every open element in ``stack``.
    document = TagNode("html")
    stack = [document]
    top = document
    pos = text_start = 0
    search = _MARKUP.search
    find = html.find
    closers_of = IMPLICIT_CLOSERS.get
    while True:
        found = search(html, pos)
        start = end if found is None else found.start()
        if start > text_start:
            text = html[text_start:start]
            if "&" in text:
                text = decode_entities(text)
            if keep_whitespace or not text.isspace():
                leaf = ContentNode(text)
                leaf.parent = top
                top.children.append(leaf)
        if found is None:
            break
        kind = found.lastindex
        if kind == 3 or kind == 4:
            if kind == 3:
                name = found.group(1).lower()
                attrs_start, attrs_end = found.span(2)
                attrs = (
                    tuple(
                        [
                            (key.lower(), _attribute_value(dq, sq, bare))
                            for key, dq, sq, bare in _ATTRIBUTE.findall(
                                html, attrs_start, attrs_end
                            )
                        ]
                    )
                    if attrs_end > attrs_start
                    else ()
                )
                self_closing = found.group(3)
                pos = found.end()
            else:
                name, attrs, self_closing, pos = _scan_start_tag(html, start + 1)
            closers = closers_of(name)
            if closers is not None:
                # Close the *outermost* open element named in `closers`
                # within the current scope (an incoming <tr> closes the
                # open <tr> together with the <td> inside it), but never
                # cross a scope boundary: a <tr> inside a nested <table>
                # must not close the outer table's <tr>.
                outermost = 0
                index = len(stack) - 1
                while index:
                    tag = stack[index].tag
                    if tag in closers:
                        outermost = index
                    elif tag in SCOPE_BOUNDARIES:
                        break
                    index -= 1
                if outermost:
                    del stack[outermost:]
                    top = stack[-1]
            node = TagNode(name, attrs)
            node.parent = top
            top.children.append(node)
            if self_closing or name in VOID_ELEMENTS:
                pass
            elif name in RAWTEXT_ELEMENTS:
                # Never pushed: it holds at most its raw text, and the
                # close tag (or the end of the document) follows it.
                close = _RAWTEXT_CLOSE[name].search(html, pos)
                raw = html[pos : end if close is None else close.start()]
                if raw and (keep_whitespace or not raw.isspace()):
                    node.append(ContentNode(raw))
                pos = end if close is None else close.end()
            else:
                stack.append(node)
                top = node
        elif kind == 5:
            pos = found.end()
            name = found.group(5).lower()
            if name and name not in VOID_ELEMENTS:
                index = len(stack) - 1
                while index:
                    if stack[index].tag == name:
                        del stack[index:]
                        top = stack[-1]
                        break
                    index -= 1
        elif kind == 7:
            close_at = find("-->", start + 4)
            pos = end if close_at < 0 else close_at + 3
        elif kind == 6 and html.startswith("[CDATA[", start + 2):
            close_at = find("]]>", start + 9)
            raw = html[start + 9 : end if close_at < 0 else close_at]
            if keep_whitespace or raw.strip():  # kept even when empty
                top.append(ContentNode(raw))
            pos = end if close_at < 0 else close_at + 3
        else:  # a doctype, bogus declaration or processing instruction
            close_at = find(">", start + 2)
            pos = end if close_at < 0 else close_at + 1
        text_start = pos
    root = document
    if len(document.children) == 1:
        only = document.children[0]
        if isinstance(only, TagNode) and only.tag == "html":
            root = only
            root.parent = None
    size = end if source_size is None else source_size
    return TagTree(root, source_size=size, url=url)
