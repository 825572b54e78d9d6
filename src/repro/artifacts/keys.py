"""Content-addressed keys for the artifact store.

Every artifact is keyed by the SHA-256 of the *content it was derived
from* plus the version tags of the code that derived it. A key can
therefore never serve a stale artifact: changing the page HTML changes
the hash, and changing the derivation (parser semantics, record
layout, extractor pipeline) must be accompanied by a version bump
below, which changes every key of that kind at once — the old entries
simply stop being referenced and age out via GC.

Key layout: ``sha256(content) + ':' + sha256(parameter-tag)`` where the
parameter tag folds in the version constants and any derivation
parameters (e.g. ``require_branching`` for candidate records).

Vector spaces have no key: they are rebuilt, never stored, and the
in-process cache of :mod:`repro.runtime` keys them by content itself.
"""

from __future__ import annotations

import hashlib

#: Bump when :mod:`repro.html.parser` output changes for the same HTML.
PARSER_VERSION = 1

#: Bump when the candidate-record layout or derivation changes
#: (:func:`repro.core.single_page.page_candidate_records`).
RECORD_VERSION = 1

#: Bump when the page-signature layout changes (tag counts, term
#: counts, max fanout — :func:`repro.artifacts.pages.put_signature`).
SIGNATURE_VERSION = 1

#: Bump when the term-extraction pipeline (tokenize → stem) changes.
EXTRACTOR_VERSION = 1

#: Bump when the fitted-model bundle layout changes
#: (:mod:`repro.incremental.model`).
MODEL_VERSION = 1


def sha256_hex(text: str) -> str:
    """Hex SHA-256 of a unicode string (UTF-8 encoded)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _tagged(content_hash: str, tag: str) -> str:
    return f"{content_hash}-{sha256_hex(tag)[:16]}"


def page_tree_key(html: str) -> str:
    """Key of the parsed tag tree of one page."""
    return _tagged(sha256_hex(html), f"tree:v{PARSER_VERSION}")


def page_signature_key(html: str) -> str:
    """Key of a page's clustering signatures (tag/term counts)."""
    return _tagged(
        sha256_hex(html),
        f"signature:v{SIGNATURE_VERSION}:parser{PARSER_VERSION}"
        f":extractor{EXTRACTOR_VERSION}",
    )


def candidate_records_key(html: str, require_branching: bool) -> str:
    """Key of a page's Phase-2 candidate-subtree records."""
    return _tagged(
        sha256_hex(html),
        f"records:v{RECORD_VERSION}:parser{PARSER_VERSION}"
        f":extractor{EXTRACTOR_VERSION}:branching{int(require_branching)}",
    )


def model_key(site: str, config_fingerprint: str) -> str:
    """Key of a site's persisted fitted model (incremental re-extraction).

    Unlike the content-addressed kinds, a model is a *named slot*: one
    per (site, config fingerprint), last-writer-wins. The config
    fingerprint keeps a model fitted under one pipeline configuration
    from ever serving a run under another; ``MODEL_VERSION`` retires
    every stored model at once when the bundle layout changes.
    """
    return _tagged(
        sha256_hex(f"model:{site}:{config_fingerprint}"),
        f"model:v{MODEL_VERSION}:signature{SIGNATURE_VERSION}"
        f":parser{PARSER_VERSION}",
    )


__all__ = [
    "EXTRACTOR_VERSION",
    "MODEL_VERSION",
    "PARSER_VERSION",
    "RECORD_VERSION",
    "SIGNATURE_VERSION",
    "candidate_records_key",
    "model_key",
    "page_signature_key",
    "page_tree_key",
    "sha256_hex",
]
