"""Keys for the artifact store.

Two kinds of artifact are *named slots*, one per site run, written
last-writer-wins: a site's page pack (:func:`page_pack_key`) and its
fitted model (:func:`model_key`). A slot's key names the site and the
version tags of the code that derived its contents. What keeps a slot
from serving a stale value is inside it: each page of a pack is looked
up by the SHA-256 of its HTML, so a changed page misses, and a model
carries the content keys of the pages it was fitted on. Changing a
derivation (parser semantics, signature or bundle layout, extractor
pipeline) must come with a version bump below, which changes every key
of that kind at once — the old entries simply stop being referenced
and age out via GC.

Key layout: ``sha256(name) + '-' + sha256(parameter-tag)[:16]`` where
the parameter tag folds in the version constants.

Vector spaces have no key: they are rebuilt, never stored, and the
in-process cache of :mod:`repro.runtime` keys them by content itself.
"""

from __future__ import annotations

import hashlib

#: Bump when :mod:`repro.html.parser` output changes for the same HTML.
PARSER_VERSION = 2

#: Bump when the layout of a page-pack bundle changes (tag counts,
#: term counts, max fanout, template fingerprint, tree codec —
#: :mod:`repro.artifacts.pages`).
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


def page_pack_key(site: str) -> str:
    """Key of a site's page pack: every page bundle of its latest run.

    One slot per site, last-writer-wins like the site model. It holds
    what a page's parse and signature analysis derive, so it carries
    the parser, signature and extractor versions, and no pipeline
    configuration: any clustering or Phase-2 setting reads the same
    pages.
    """
    return _tagged(
        sha256_hex(f"pages:{site}"),
        f"pages:signature{SIGNATURE_VERSION}:parser{PARSER_VERSION}"
        f":extractor{EXTRACTOR_VERSION}",
    )


def model_key(site: str, config_fingerprint: str) -> str:
    """Key of a site's persisted fitted model (incremental re-extraction).

    A named slot per (site, config fingerprint), last-writer-wins. The
    config fingerprint keeps a model fitted under one pipeline
    configuration from ever serving a run under another;
    ``MODEL_VERSION`` retires every stored model at once when the
    bundle layout changes.
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
    "SIGNATURE_VERSION",
    "model_key",
    "page_pack_key",
    "sha256_hex",
]
