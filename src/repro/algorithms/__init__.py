"""Selection algorithms over inverted lists.

Importing this package registers every algorithm with the by-name factory:

>>> from repro.algorithms import make_algorithm, algorithm_names
>>> algorithm_names()
['hybrid', 'inra', 'ita', 'nra', 'sf', 'sort-by-id', 'ta']
"""

from .base import (
    AlgorithmResult,
    QueryLists,
    SearchResult,
    SelectionAlgorithm,
    StreamingAlgorithm,
    algorithm_names,
    make_algorithm,
    register_algorithm,
)
from .candidates import Candidate, HashCandidateSet, PartitionedCandidateSet
from .prefixfilter import PrefixFilterSearcher
from .streaming import first_match, stream_search
from .hybrid import Hybrid
from .inra import INRA
from .ita import ITA
from .nra import NRA
from .sf import ShortestFirst
from .sortbyid import SortByIdMerge
from .ta import TA

__all__ = [
    "AlgorithmResult",
    "QueryLists",
    "SearchResult",
    "SelectionAlgorithm",
    "StreamingAlgorithm",
    "algorithm_names",
    "make_algorithm",
    "register_algorithm",
    "Candidate",
    "HashCandidateSet",
    "PartitionedCandidateSet",
    "PrefixFilterSearcher",
    "first_match",
    "stream_search",
    "Hybrid",
    "INRA",
    "ITA",
    "NRA",
    "ShortestFirst",
    "SortByIdMerge",
    "TA",
]
