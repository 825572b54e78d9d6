"""Tag-tree model: the paper's variation of the DOM.

A tag tree consists of *tag nodes* (one per start/end tag pair, labeled
by the tag name) and *content nodes* (the character data between tags).
Content nodes are always leaves. Attributes are retained on tag nodes
but play no role in the paper's algorithms; tag names and tree shape do.
"""

from __future__ import annotations

from typing import Iterator, Optional


class Node:
    """Common base for :class:`TagNode` and :class:`ContentNode`."""

    __slots__ = ("parent",)

    def __init__(self) -> None:
        self.parent: Optional[TagNode] = None

    @property
    def is_tag(self) -> bool:
        return isinstance(self, TagNode)

    @property
    def is_content(self) -> bool:
        return isinstance(self, ContentNode)

    def depth(self) -> int:
        """Distance from the root (the root has depth 0)."""
        node: Optional[Node] = self
        count = 0
        while node is not None and node.parent is not None:
            node = node.parent
            count += 1
        return count

    def ancestors(self) -> Iterator["TagNode"]:
        """Yield ancestors from the immediate parent up to the root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def root(self) -> "Node":
        node: Node = self
        while node.parent is not None:
            node = node.parent
        return node


class ContentNode(Node):
    """A text leaf. ``text`` is entity-decoded character data."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.parent = None  # Node.__init__, without its call on the parse path
        self.text = text

    def __repr__(self) -> str:
        preview = self.text if len(self.text) <= 30 else self.text[:27] + "..."
        return f"ContentNode({preview!r})"


class TagNode(Node):
    """An element node labeled by its (lower-case) tag name."""

    __slots__ = ("tag", "attrs", "children")

    def __init__(
        self,
        tag: str,
        attrs: tuple[tuple[str, str], ...] = (),
        children: Optional[list[Node]] = None,
    ) -> None:
        self.parent = None  # Node.__init__, without its call on the parse path
        self.tag = tag
        self.attrs = attrs
        self.children: list[Node] = []
        if children:
            for child in children:
                self.append(child)

    def __repr__(self) -> str:
        return f"TagNode(<{self.tag}>, {len(self.children)} children)"

    def get(self, attr: str, default: Optional[str] = None) -> Optional[str]:
        """Return the first value of attribute ``attr`` (lower-case)."""
        wanted = attr.lower()
        for key, value in self.attrs:
            if key == wanted:
                return value
        return default

    def append(self, child: Node) -> None:
        """Attach ``child`` as the last child of this node."""
        child.parent = self
        self.children.append(child)

    def tag_children(self) -> list["TagNode"]:
        """Children that are tag nodes, in document order."""
        return [c for c in self.children if isinstance(c, TagNode)]

    def content_children(self) -> list[ContentNode]:
        """Children that are content nodes, in document order."""
        return [c for c in self.children if isinstance(c, ContentNode)]

    @property
    def fanout(self) -> int:
        """Number of children (tag and content nodes alike)."""
        return len(self.children)

    def iter(self) -> Iterator[Node]:
        """Pre-order traversal of the subtree rooted here (inclusive)."""
        stack: list[Node] = [self]
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, TagNode):
                stack.extend(reversed(node.children))

    def iter_tags(self) -> Iterator["TagNode"]:
        """Pre-order traversal over tag nodes only."""
        for node in self.iter():
            if isinstance(node, TagNode):
                yield node

    def iter_content(self) -> Iterator[ContentNode]:
        """Pre-order traversal over content nodes only."""
        for node in self.iter():
            if isinstance(node, ContentNode):
                yield node

    def text(self, separator: str = " ") -> str:
        """Concatenated text of all content nodes in this subtree."""
        parts = [c.text for c in self.iter_content()]
        return separator.join(part for part in parts if part)

    def size(self) -> int:
        """Total number of nodes in the subtree (inclusive)."""
        return sum(1 for _ in self.iter())

    def subtree_depth(self) -> int:
        """Height of the subtree rooted here (a leaf has height 0)."""
        best = 0
        stack: list[tuple[Node, int]] = [(self, 0)]
        while stack:
            node, level = stack.pop()
            if level > best:
                best = level
            if isinstance(node, TagNode):
                for child in node.children:
                    stack.append((child, level + 1))
        return best

    def find_all(self, tag: str) -> list["TagNode"]:
        """All descendant tag nodes (inclusive) with the given name."""
        wanted = tag.lower()
        return [n for n in self.iter_tags() if n.tag == wanted]

    def find(self, tag: str) -> Optional["TagNode"]:
        """First descendant tag node (inclusive) with the given name."""
        wanted = tag.lower()
        for node in self.iter_tags():
            if node.tag == wanted:
                return node
        return None


class TagTree:
    """A parsed page: a root :class:`TagNode` plus page-level metadata.

    ``source_size`` records the byte length of the original HTML, which
    the size-based clustering baseline and the cluster-ranking criteria
    use (the paper measures "page size in bytes").
    """

    __slots__ = ("root", "source_size", "url")

    def __init__(self, root: TagNode, source_size: int = 0, url: str = "") -> None:
        self.root = root
        self.source_size = source_size
        self.url = url

    def __repr__(self) -> str:
        return f"TagTree(root=<{self.root.tag}>, nodes={self.root.size()})"

    def iter(self) -> Iterator[Node]:
        return self.root.iter()

    def iter_tags(self) -> Iterator[TagNode]:
        return self.root.iter_tags()

    def iter_content(self) -> Iterator[ContentNode]:
        return self.root.iter_content()

    def text(self, separator: str = " ") -> str:
        return self.root.text(separator)

    def size(self) -> int:
        return self.root.size()

    def tag_counts(self) -> dict[str, int]:
        """Frequency of each tag name in the tree (the raw tag signature)."""
        counts: dict[str, int] = {}
        for node in self.iter_tags():
            counts[node.tag] = counts.get(node.tag, 0) + 1
        return counts
