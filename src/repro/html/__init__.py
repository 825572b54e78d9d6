"""HTML substrate: parser, tidy-style cleanup, tag trees, and paths.

The paper models every page as a *tag tree* (a DOM variant where tag
nodes span start-tag..end-tag and content nodes are the text leaves),
preprocessed with HTML Tidy. This package implements that substrate
from scratch:

- :mod:`repro.html.parser` — a lenient one-pass parser: HTML text →
  tree, applying the HTML recovery rules as it scans.
- :mod:`repro.html.tidy` — the subset of HTML Tidy behaviour THOR
  relies on (implicit closes, case folding, junk removal).
- :mod:`repro.html.tree` — :class:`TagNode` / :class:`ContentNode` /
  :class:`TagTree`.
- :mod:`repro.html.paths` — XPath-style path expressions
  (``html/body/table[3]``) and the q-letter simplified paths used by
  the subtree distance function.
- :mod:`repro.html.metrics` — fanout / depth / size measures.
- :mod:`repro.html.serialize` — tree back to HTML text.
"""

from repro.html.tree import ContentNode, Node, TagNode, TagTree
from repro.html.parser import parse
from repro.html.paths import node_path, resolve_path, simplify_path
from repro.html.serialize import to_html
from repro.html.tidy import tidy

__all__ = [
    "ContentNode",
    "Node",
    "TagNode",
    "TagTree",
    "parse",
    "node_path",
    "resolve_path",
    "simplify_path",
    "to_html",
    "tidy",
]
