"""Vector-space substrate: sparse vectors, TFIDF weighting, similarity.

Implements the vector model of Section 3.1.2: pages (and subtrees) are
sparse vectors of (feature, weight) pairs, weighted with the paper's
TFIDF variant ``w = log(tf+1) · log((n+1)/n_k)``, normalized, and
compared with cosine similarity.

:mod:`repro.vsm.matrix` adds the dense numpy kernels
(:class:`~repro.vsm.matrix.VectorSpace` and the batched kernels); it
is intentionally *not* imported here — the clusterers import it
directly.
"""

from repro.vsm.vector import SparseVector
from repro.vsm.weighting import CorpusWeighter, paper_tfidf_weight, raw_tf_vector
from repro.vsm.similarity import cosine_similarity, dot_product, minkowski_distance
from repro.vsm.centroid import centroid

__all__ = [
    "SparseVector",
    "CorpusWeighter",
    "paper_tfidf_weight",
    "raw_tf_vector",
    "cosine_similarity",
    "dot_product",
    "minkowski_distance",
    "centroid",
]
