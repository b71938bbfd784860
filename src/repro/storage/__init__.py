"""Simulated disk-resident index structures with I/O accounting."""

from .btree import BPlusTree
from .exthash import ExtendibleHash
from .invlist import (
    InvertedIndex,
    TokenPostings,
    WeightOrderCursor,
)
from .pages import IOStats, PagedFile, SequentialCursor, bytes_human
from .skiplist import SkipList

__all__ = [
    "BPlusTree",
    "ExtendibleHash",
    "InvertedIndex",
    "TokenPostings",
    "WeightOrderCursor",
    "IOStats",
    "PagedFile",
    "SequentialCursor",
    "bytes_human",
    "SkipList",
]
