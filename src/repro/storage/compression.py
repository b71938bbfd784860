"""Posting-list compression: delta + varint coding with real codecs.

Figure 5's storage explosion (indexes 9-26x the data) is the paper's cost
of speed; the standard mitigation in inverted-index engines is gap
compression.  This module implements it concretely, not as a size formula:

* :func:`encode_varint` / :func:`decode_varint` — LEB128-style unsigned
  variable-length integers;
* :func:`zigzag_encode` / :func:`zigzag_decode` — signed-to-unsigned
  mapping for deltas that can regress (id gaps within equal lengths are
  positive, but quantized length deltas of the *id-ordered* layout are
  not);
* :class:`CompressedPostings` — a weight-ordered postings list stored as
  (quantized length delta, id delta) varint pairs, with exact round-trip
  up to the declared length quantum;
* :func:`compressed_size_report` — Figure 5's decomposition with the
  compressed sizes alongside the raw ones.

Lengths are floats; they are quantized to a fixed-point grid (default
2^-16) before delta coding.  The quantum bounds the absolute length error,
which matters only for window boundary decisions — a quantum of 2^-16 is
three orders below the score tolerance, and the round-trip tests pin it.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from ..core.errors import StorageError
from .invlist import POSTING_BYTES

DEFAULT_QUANTUM = 1.0 / (1 << 16)


def encode_varint(value: int, out: bytearray) -> None:
    """Append an unsigned LEB128 varint."""
    if value < 0:
        raise StorageError("varint requires a non-negative integer")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def decode_varint(data: bytes, offset: int) -> Tuple[int, int]:
    """Decode one varint; returns (value, next offset)."""
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise StorageError("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 70:
            raise StorageError("varint too long")


def zigzag_encode(value: int) -> int:
    """Map signed to unsigned: 0,-1,1,-2,2 -> 0,1,2,3,4."""
    return (value << 1) ^ (value >> 63) if value >= 0 else ((-value) << 1) - 1


def zigzag_decode(value: int) -> int:
    return (value >> 1) if not value & 1 else -((value + 1) >> 1)


class CompressedPostings:
    """A weight-ordered postings list, delta+varint coded.

    Entries must arrive sorted by ``(length, id)`` (the index's invariant).
    Lengths are quantized; ids within the same quantized length are
    ascending, so both delta streams are non-negative — but zigzag is used
    anyway because the id stream *resets* (goes backwards) whenever the
    length bucket advances.
    """

    def __init__(
        self,
        entries: Iterable[Tuple[float, int]],
        quantum: float = DEFAULT_QUANTUM,
    ) -> None:
        if quantum <= 0:
            raise StorageError("quantum must be positive")
        self.quantum = quantum
        buf = bytearray()
        previous_q = 0
        previous_id = 0
        count = 0
        last_key = None
        for length, set_id in entries:
            key = (length, set_id)
            if last_key is not None and key < last_key:
                raise StorageError(
                    "postings must be sorted by (length, id)"
                )
            last_key = key
            quantized = int(round(length / quantum))
            encode_varint(quantized - previous_q, buf)
            encode_varint(zigzag_encode(set_id - previous_id), buf)
            previous_q = quantized
            previous_id = set_id
            count += 1
        self._data = bytes(buf)
        self._count = count

    def __len__(self) -> int:
        return self._count

    def size_bytes(self) -> int:
        return len(self._data)

    def decode(self) -> List[Tuple[float, int]]:
        """Full round-trip decode (lengths on the quantized grid)."""
        out: List[Tuple[float, int]] = []
        offset = 0
        quantized = 0
        set_id = 0
        for _ in range(self._count):
            delta_q, offset = decode_varint(self._data, offset)
            delta_id, offset = decode_varint(self._data, offset)
            quantized += delta_q
            set_id += zigzag_decode(delta_id)
            out.append((quantized * self.quantum, set_id))
        return out


def compressed_size_report(index, quantum: float = DEFAULT_QUANTUM) -> dict:
    """Raw vs compressed bytes for an index's weight-ordered lists."""
    raw = 0
    compressed = 0
    for token in index.tokens():
        entries = index.postings(token)
        raw += len(entries) * POSTING_BYTES
        compressed += CompressedPostings(entries, quantum).size_bytes()
    return {
        "raw_bytes": raw,
        "compressed_bytes": compressed,
        "ratio": (raw / compressed) if compressed else float("inf"),
    }
