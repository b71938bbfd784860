"""repro — fast indexes and algorithms for set similarity selection queries.

A complete reproduction of Hadjieleftheriou, Chandel, Koudas & Srivastava,
"Fast Indexes and Algorithms for Set Similarity Selection Queries"
(ICDE 2008): the IDF similarity measure, its semantic properties, inverted
list indexes with skip lists and extendible hashing, the TA/NRA family plus
the paper's iNRA, iTA, SF and Hybrid algorithms, a relational (SQL-style)
baseline, and the full experimental harness.

Quickstart::

    from repro import StringMatcher

    matcher = StringMatcher(["Main St., Main", "Main St., Maine"])
    for text, score in matcher.match("Main St., Mane", threshold=0.5):
        print(f"{score:.3f}  {text}")
"""

from .algorithms import (
    AlgorithmResult,
    SearchResult,
    SelectionAlgorithm,
    algorithm_names,
    make_algorithm,
)
from .core.collection import SetCollection, SetRecord
from .core.errors import ReproError
from .core.query import PreparedQuery
from .core.search import SetSimilaritySearcher, StringMatcher
from .core.similarity import (
    bm25_score,
    idf_similarity,
    measure_from_name,
    tfidf_cosine,
)
from .core.linkage import FieldedMatch, FieldedMatcher
from .core.join import (
    JoinPair,
    JoinResult,
    similarity_clusters,
    similarity_self_join,
)
from .core.tokenize import QGramTokenizer, WordQGramTokenizer, WordTokenizer
from .algorithms.topk import TopKSearcher
from .algorithms.prefixfilter import PrefixFilterSearcher
from .core.unweighted import CosineSetSearcher
from .core.updatable import UpdatableSearcher
from .core.weighted import WeightedSelector
from .core.weights import IdfStatistics
from .core.errors import (
    CircuitOpenError,
    CorruptIndexError,
    ServiceOverloadError,
)
from .faults import (
    TornWriteError,
    TransientIOError,
    use_fault_plan,
)
from .service import ServiceConfig, ServiceResult, SimilarityService
from .storage.invlist import InvertedIndex
from .storage.persist import (
    DurableUpdatableSearcher,
    RecoveryReport,
    load_searcher,
    save_searcher,
)

__version__ = "1.0.0"

__all__ = [
    "AlgorithmResult",
    "SearchResult",
    "SelectionAlgorithm",
    "algorithm_names",
    "make_algorithm",
    "SetCollection",
    "SetRecord",
    "ReproError",
    "PreparedQuery",
    "SetSimilaritySearcher",
    "StringMatcher",
    "bm25_score",
    "idf_similarity",
    "measure_from_name",
    "tfidf_cosine",
    "QGramTokenizer",
    "WordQGramTokenizer",
    "WordTokenizer",
    "FieldedMatch",
    "FieldedMatcher",
    "JoinPair",
    "JoinResult",
    "similarity_clusters",
    "similarity_self_join",
    "TopKSearcher",
    "CosineSetSearcher",
    "PrefixFilterSearcher",
    "UpdatableSearcher",
    "DurableUpdatableSearcher",
    "WeightedSelector",
    "IdfStatistics",
    "InvertedIndex",
    "ServiceConfig",
    "ServiceResult",
    "SimilarityService",
    "CircuitOpenError",
    "CorruptIndexError",
    "ServiceOverloadError",
    "TornWriteError",
    "TransientIOError",
    "use_fault_plan",
    "RecoveryReport",
    "load_searcher",
    "save_searcher",
    "__version__",
]
