"""Core concepts: tokenization, weighting, similarity, queries, properties."""

from .collection import SetCollection, SetRecord, collection_summary
from .errors import (
    ConfigurationError,
    EmptyQueryError,
    IndexNotBuiltError,
    InvalidThresholdError,
    ReproError,
    SchemaError,
    StorageError,
    UnknownAlgorithmError,
)
from .properties import (
    best_case_score,
    lambda_cutoffs,
    length_bounds,
    magnitude_upper_bound,
    tf_boosted_length_bounds,
    validate_threshold,
    within_length_bounds,
)
from .query import PreparedQuery, prepare
from .similarity import (
    Bm25Measure,
    Bm25PrimeMeasure,
    IdfMeasure,
    SimilarityMeasure,
    TfIdfMeasure,
    bm25_score,
    idf_similarity,
    measure_from_name,
    tfidf_cosine,
)
from .tokenize import (
    QGramTokenizer,
    Tokenizer,
    WordQGramTokenizer,
    WordTokenizer,
    jaccard,
    tokenizer_from_name,
)
from .weights import IdfStatistics, contribution, normalized_length

__all__ = [
    "SetCollection",
    "SetRecord",
    "collection_summary",
    "ConfigurationError",
    "EmptyQueryError",
    "IndexNotBuiltError",
    "InvalidThresholdError",
    "ReproError",
    "SchemaError",
    "StorageError",
    "UnknownAlgorithmError",
    "best_case_score",
    "lambda_cutoffs",
    "length_bounds",
    "magnitude_upper_bound",
    "tf_boosted_length_bounds",
    "validate_threshold",
    "within_length_bounds",
    "PreparedQuery",
    "prepare",
    "Bm25Measure",
    "Bm25PrimeMeasure",
    "IdfMeasure",
    "SimilarityMeasure",
    "TfIdfMeasure",
    "bm25_score",
    "idf_similarity",
    "measure_from_name",
    "tfidf_cosine",
    "QGramTokenizer",
    "Tokenizer",
    "WordQGramTokenizer",
    "WordTokenizer",
    "jaccard",
    "tokenizer_from_name",
    "IdfStatistics",
    "contribution",
    "normalized_length",
]
