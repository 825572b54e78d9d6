"""XPath-style path expressions and the q-letter simplified paths.

The paper identifies a subtree by the path expression from the root to
its root node, e.g. ``html/body/table[3]``. The index ``[k]`` selects
the k-th same-tag sibling (1-based) and is written only when more than
one sibling shares the tag — exactly the notation in the paper's
Figure 1 discussion.

For the subtree distance function the paper compares paths by string
edit distance after *simplifying* each tag name to a unique identifier
of fixed length ``q`` (``html``→``h``, ``head``→``e`` for ``q=1``), so
that long tag names do not dominate the distance. :class:`TagCodec`
implements that mapping.
"""

from __future__ import annotations

import itertools
import re
from typing import Optional, Sequence, Union

from repro.errors import PathResolutionError, PathSyntaxError
from repro.html.tree import ContentNode, Node, TagNode, TagTree

_STEP_RE = re.compile(r"^([a-zA-Z][a-zA-Z0-9_:.-]*)(?:\[(\d+)\])?$")

#: Alphabet used for simplified tag codes, in assignment order.
_CODE_ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

#: Preferred single-letter codes so common tags match the paper's
#: examples (html→h, head→e) and stay human-readable in debug output.
_PREFERRED_CODES = {
    "html": "h",
    "head": "e",
    "body": "b",
    "table": "t",
    "tr": "r",
    "td": "d",
    "div": "v",
    "span": "s",
    "a": "a",
    "p": "p",
    "ul": "u",
    "li": "l",
    "img": "i",
    "form": "f",
    "input": "n",
    "option": "o",
}


def _sibling_index(node: TagNode) -> tuple[int, int]:
    """Return (1-based index among same-tag siblings, total same-tag)."""
    parent = node.parent
    if parent is None:
        return 1, 1
    same = [c for c in parent.children if isinstance(c, TagNode) and c.tag == node.tag]
    return same.index(node) + 1, len(same)


def sibling_step(tag: str, index: int, total: int) -> str:
    """The path step of the ``index``-th (1-based) of ``total`` same-tag
    siblings: ``tag[index]``, or the bare tag when it has none."""
    return f"{tag}[{index}]" if total > 1 else tag


def child_steps(kids: Sequence[TagNode]) -> list[str]:
    """The path step of each tag child of one parent, in order — what
    :func:`node_path` appends for each of them.

    >>> from repro.html import parse
    >>> tree = parse("<html><body><p></p><div></div><p></p></body></html>")
    >>> child_steps(tree.root.find("body").tag_children())
    ['p[1]', 'div', 'p[2]']
    """
    totals: dict[str, int] = {}
    for kid in kids:
        totals[kid.tag] = totals.get(kid.tag, 0) + 1
    seen: dict[str, int] = {}
    steps: list[str] = []
    for kid in kids:
        tag = kid.tag
        seen[tag] = index = seen.get(tag, 0) + 1
        steps.append(sibling_step(tag, index, totals[tag]))
    return steps


def node_path(node: Node) -> str:
    """Path expression from the tree root to ``node``.

    Tag nodes yield steps like ``table[3]``; a content node appends a
    ``#text[k]`` step. The root itself never carries an index.

    >>> from repro.html import parse
    >>> tree = parse("<html><body><table></table><table><tr></tr></table></body></html>")
    >>> node_path(tree.root.find_all("tr")[0])
    'html/body/table[2]/tr'
    """
    steps: list[str] = []
    current: Optional[Node] = node
    if isinstance(current, ContentNode):
        parent = current.parent
        if parent is None:
            return "#text"
        texts = [c for c in parent.children if isinstance(c, ContentNode)]
        index = texts.index(current) + 1
        steps.append(sibling_step("#text", index, len(texts)))
        current = parent
    while current is not None:
        assert isinstance(current, TagNode)
        steps.append(sibling_step(current.tag, *_sibling_index(current)))
        current = current.parent
    steps.reverse()
    return "/".join(steps)


def parse_path(path: str) -> list[tuple[str, Optional[int]]]:
    """Split a path expression into (tag, index-or-None) steps.

    Raises :class:`PathSyntaxError` on malformed input.
    """
    if not path:
        raise PathSyntaxError("empty path expression")
    steps: list[tuple[str, Optional[int]]] = []
    for raw in path.strip("/").split("/"):
        if raw.startswith("#text"):
            match = re.match(r"^#text(?:\[(\d+)\])?$", raw)
            if not match:
                raise PathSyntaxError(f"bad step {raw!r} in {path!r}")
            steps.append(("#text", int(match.group(1)) if match.group(1) else None))
            continue
        match = _STEP_RE.match(raw)
        if not match:
            raise PathSyntaxError(f"bad step {raw!r} in {path!r}")
        tag, index = match.group(1).lower(), match.group(2)
        steps.append((tag, int(index) if index else None))
    return steps


def resolve_path(tree: Union[TagTree, TagNode], path: str) -> Node:
    """Resolve a path expression against a tree.

    ``index=None`` in a step means "the sole/first same-tag child".
    Raises :class:`PathResolutionError` when no node matches.

    >>> from repro.html import parse
    >>> tree = parse("<html><body><p>x</p></body></html>")
    >>> resolve_path(tree, "html/body/p").text()
    'x'
    """
    root = tree.root if isinstance(tree, TagTree) else tree
    steps = parse_path(path)
    first_tag, first_index = steps[0]
    if first_tag != root.tag or (first_index or 1) != 1:
        raise PathResolutionError(f"path {path!r} does not start at <{root.tag}>")
    node: Node = root
    for tag, index in steps[1:]:
        if not isinstance(node, TagNode):
            raise PathResolutionError(f"step {tag!r} descends below a leaf in {path!r}")
        wanted = (index or 1) - 1
        if tag == "#text":
            texts = [c for c in node.children if isinstance(c, ContentNode)]
            if wanted >= len(texts):
                raise PathResolutionError(f"no {tag}[{wanted + 1}] under {node.tag!r}")
            node = texts[wanted]
            continue
        same = [c for c in node.children if isinstance(c, TagNode) and c.tag == tag]
        if wanted >= len(same):
            raise PathResolutionError(
                f"no <{tag}>[{wanted + 1}] under <{node.tag}> in {path!r}"
            )
        node = same[wanted]
    return node


class TagCodec:
    """Assigns each tag name a fixed-length code of ``q`` letters.

    Codes are handed out deterministically: the preferred single-letter
    table first (for ``q=1``), then first-come-first-served over the
    code space. The same codec instance must be used for every path
    that will be compared — the codes only need to be consistent within
    one comparison universe (one page cluster).

    >>> codec = TagCodec()
    >>> codec.encode("html"), codec.encode("head")
    ('h', 'e')
    >>> codec.simplify(["html", "head", "title"])
    'het'
    """

    def __init__(self, q: int = 1) -> None:
        if q < 1:
            raise ValueError("code length q must be >= 1")
        self.q = q
        self._codes: dict[str, str] = {}
        self._used: set[str] = set()
        self._generator = self._generate_codes()

    def _generate_codes(self):
        for combo in itertools.product(_CODE_ALPHABET, repeat=self.q):
            yield "".join(combo)

    def encode(self, tag: str) -> str:
        """Return the code for ``tag``, assigning one if new."""
        tag = tag.lower()
        code = self._codes.get(tag)
        if code is not None:
            return code
        if self.q == 1:
            # Prefer the mnemonic table, then the tag's own initial
            # (the paper's example assigns title → t), then fall back
            # to the next free symbol.
            preferred = _PREFERRED_CODES.get(tag)
            if preferred is None and tag[:1] in _CODE_ALPHABET:
                preferred = tag[0]
            if preferred is not None and preferred not in self._used:
                self._codes[tag] = preferred
                self._used.add(preferred)
                return preferred
        for candidate in self._generator:
            if candidate not in self._used:
                self._codes[tag] = candidate
                self._used.add(candidate)
                return candidate
        raise PathSyntaxError(
            f"tag code space exhausted (q={self.q}, {len(self._codes)} tags)"
        )

    def simplify(self, tags: list[str]) -> str:
        """Encode a sequence of tag names into one code string."""
        return "".join(self.encode(tag) for tag in tags)


def path_tags(path: str) -> list[str]:
    """The tag names along a path expression, indexes stripped."""
    return [tag for tag, _ in parse_path(path)]


def simplify_path(path: str, codec: Optional[TagCodec] = None) -> str:
    """Simplify a path expression to its q-letter code string.

    >>> simplify_path("html/head/title")
    'het'
    """
    codec = codec or TagCodec()
    return codec.simplify([t for t in path_tags(path) if t != "#text"])


def node_tag_sequence(node: TagNode) -> list[str]:
    """Tag names from the root down to ``node`` (inclusive)."""
    tags = [ancestor.tag for ancestor in node.ancestors()]
    tags.reverse()
    tags.append(node.tag)
    return tags
