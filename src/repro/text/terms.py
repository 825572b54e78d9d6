"""Content-term extraction pipeline: tokenize → lower → (stop) → stem.

This is the preprocessing the paper applies to page content before
building content signatures (Section 3.1.2) and subtree content vectors
(Section 3.2.1 Step 2): "We preprocess each subtree's content by
stemming the prefixes and suffixes from each term [Porter]."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.text.porter import porter_stem
from repro.text.stopwords import STOPWORDS
from repro.text.tokenize import tokenize_words


@dataclass(frozen=True)
class TermExtractor:
    """Configurable term-extraction pipeline.

    - ``stem``: apply Porter stemming (paper: on).
    - ``remove_stopwords``: drop stopwords before stemming (paper:
      unstated; off by default — TFIDF already demotes them).
    - ``min_length``: drop tokens shorter than this (after stemming).
    """

    stem: bool = True
    remove_stopwords: bool = False
    min_length: int = 1

    def extract(
        self, text: str, stems: Optional[dict[str, str]] = None
    ) -> list[str]:
        """Extract terms from raw text.

        ``stems`` is a word → stem memo that the caller owns and scopes
        (one run, one cluster call); without one the call keeps its
        own. It changes how often :func:`porter_stem` runs, never what
        a call returns.

        >>> TermExtractor().extract("Connected connections connecting!")
        ['connect', 'connect', 'connect']
        >>> memo = {}
        >>> TermExtractor().extract("Connected connected", memo), memo
        (['connect', 'connect'], {'connected': 'connect'})
        """
        if stems is None:
            stems = {}
        terms = []
        for word in tokenize_words(text):
            if self.remove_stopwords and word in STOPWORDS:
                continue
            if self.stem:
                stem = stems.get(word)
                if stem is None:
                    stem = stems[word] = porter_stem(word)
                word = stem
            if len(word) >= self.min_length:
                terms.append(word)
        return terms

    def extract_counts(
        self, text: str, stems: Optional[dict[str, str]] = None
    ) -> dict[str, int]:
        """Extract terms and return their frequency map (insertion
        order = first occurrence)."""
        counts: dict[str, int] = {}
        for term in self.extract(text, stems):
            counts[term] = counts.get(term, 0) + 1
        return counts

    def extract_many(self, texts: Iterable[str]) -> list[str]:
        """Extract terms from several text fragments, concatenated."""
        terms: list[str] = []
        for text in texts:
            terms.extend(self.extract(text))
        return terms


#: Module-level default extractor matching the paper's setup.
DEFAULT_EXTRACTOR = TermExtractor()


def extract_terms(text: str) -> list[str]:
    """Extract terms with the default (paper-faithful) pipeline."""
    return DEFAULT_EXTRACTOR.extract(text)
