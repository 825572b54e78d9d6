"""The subset of HTML Tidy behaviour the paper relies on.

The paper preprocessed every crawled page with Dave Raggett's HTML Tidy
before parsing. For THOR's algorithms the relevant effects are:

1. tag/attribute names lower-cased,
2. implicitly closed elements made explicit (so the tree is well
   formed),
3. comments, doctypes and processing instructions removed,
4. character references normalized.

:func:`tidy` parses (scanning and recovering in one pass) and
serializes, returning *clean* HTML that any strict parser would
accept. Because our own parser already applies the same recovery
rules, ``tidy`` is idempotent: ``tidy(tidy(x)) == tidy(x)``.
"""

from __future__ import annotations

from repro.html.parser import parse
from repro.html.serialize import to_html


def tidy(html: str, pretty: bool = False) -> str:
    """Return a cleaned, well-formed rendering of ``html``.

    >>> tidy("<BODY><P>one<P>two")
    '<html><body><p>one</p><p>two</p></body></html>'
    """
    return to_html(parse(html), pretty=pretty)
