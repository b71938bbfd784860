"""Append-only operations log — durable inserts for the updatable searcher.

:class:`~repro.core.updatable.UpdatableSearcher` keeps every set in
memory; a crash loses all inserts since construction.  This module adds
the standard write-ahead fix:

* :class:`OperationsLog` — a JSONL file where every record carries a
  CRC-32 of its payload and is fsynced on append.  Replay verifies each
  record and *truncates at the first torn or corrupt one* (a crash
  mid-append must not poison the log — everything before the tear
  replays, everything after is dropped and reported).
* :class:`DurableUpdatableSearcher` — an :class:`UpdatableSearcher`
  that logs every set to an operations log **before** applying it in
  memory, and replays the log on construction.  ``compact()`` rewrites
  the log atomically (temp file + ``os.replace``) from live state,
  dropping torn tails and bounding file growth.

Fault points: ``storage.oplog_append`` and ``storage.oplog_replay``
(see :mod:`repro.faults`).
"""

from __future__ import annotations

import json
import os
import zlib
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.errors import StorageError
from ..core.updatable import UpdatableSearcher
from ..faults import runtime as faults_runtime

__all__ = ["OperationsLog", "DurableUpdatableSearcher"]


def _frame(op: Dict[str, Any]) -> bytes:
    try:
        payload = json.dumps(op, ensure_ascii=False, sort_keys=True)
    except TypeError as exc:
        raise StorageError(
            f"operation is not JSON-serializable: {exc}"
        ) from None
    body = payload.encode("utf-8")
    return b"%08x %s\n" % (zlib.crc32(body) & 0xFFFFFFFF, body)


def _parse_line(line: bytes) -> Optional[Dict[str, Any]]:
    """Decode one framed record; None when the frame fails verification."""
    if b" " not in line:
        return None
    crc_hex, _, body = line.partition(b" ")
    try:
        expected = int(crc_hex, 16)
    except ValueError:
        return None
    if (zlib.crc32(body) & 0xFFFFFFFF) != expected:
        return None
    try:
        op = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    return op if isinstance(op, dict) else None


class OperationsLog:
    """CRC-framed, fsynced, append-only JSONL log with tolerant replay."""

    def __init__(self, path) -> None:
        self.path = Path(path)

    def exists(self) -> bool:
        return self.path.exists()

    def append(self, op: Dict[str, Any]) -> None:
        """Durably append one operation (fsync before returning)."""
        faults_runtime.maybe_fire("storage.oplog_append")
        data = faults_runtime.maybe_mangle("storage.oplog_append", _frame(op))
        with open(self.path, "ab") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())

    def replay(self) -> Tuple[List[Dict[str, Any]], int]:
        """All verified operations, plus how many records were dropped.

        Replay stops at the first record that fails its CRC or does not
        parse — by construction everything after a torn append is
        suspect — so the return is ``(intact_prefix, dropped_count)``.
        """
        if not self.path.exists():
            return [], 0
        faults_runtime.maybe_fire("storage.oplog_replay")
        data = faults_runtime.maybe_mangle(
            "storage.oplog_replay", self.path.read_bytes()
        )
        ops: List[Dict[str, Any]] = []
        lines = data.split(b"\n")
        # A well-formed log ends with a newline, so the final split
        # element is empty; anything else is a torn tail.
        dropped = 0
        for i, line in enumerate(lines):
            if not line:
                continue
            op = _parse_line(line)
            if op is None:
                dropped = sum(1 for rest in lines[i:] if rest)
                break
            ops.append(op)
        return ops, dropped

    def compact(self, ops: Sequence[Dict[str, Any]]) -> None:
        """Atomically rewrite the log to exactly ``ops``."""
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "wb") as fh:
            for op in ops:
                fh.write(_frame(op))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)

    def size_bytes(self) -> int:
        return self.path.stat().st_size if self.path.exists() else 0


class DurableUpdatableSearcher(UpdatableSearcher):
    """An updatable searcher whose inserts survive a crash.

    Every set — the initial ones included — is framed into the
    operations log under ``directory`` before it is applied, so
    reconstructing with the same directory replays the full state::

        s = DurableUpdatableSearcher(tmp)      # fresh
        s.add(["a", "b"])                      # logged, then applied
        s2 = DurableUpdatableSearcher(tmp)     # replays: len(s2) == 1

    ``replayed`` / ``dropped`` report what construction found; a torn
    tail (crash mid-append) is dropped and compacted away.
    """

    def __init__(
        self,
        directory,
        initial_sets: Optional[Sequence[Sequence[str]]] = None,
        payloads: Optional[Sequence[Any]] = None,
        auto_rebuild_fraction: float = 0.25,
        log_name: str = "oplog.jsonl",
    ) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        self.log = OperationsLog(directory / log_name)

        replayed_ops, self.dropped = self.log.replay()
        self.replayed = len(replayed_ops)
        if replayed_ops and initial_sets:
            raise StorageError(
                "directory already holds an operations log; "
                "initial_sets would double-apply (pass one or the other)"
            )

        tokens: List[Sequence[str]] = []
        their_payloads: List[Any] = []
        if replayed_ops:
            for op in replayed_ops:
                if op.get("kind") != "add":
                    raise StorageError(
                        f"operations log holds unknown op kind "
                        f"{op.get('kind')!r}"
                    )
                tokens.append(op["tokens"])
                their_payloads.append(op.get("payload"))
        elif initial_sets:
            tokens = list(initial_sets)
            their_payloads = (
                list(payloads)
                if payloads is not None
                else [None] * len(tokens)
            )

        super().__init__(
            initial_sets=tokens,
            payloads=their_payloads,
            auto_rebuild_fraction=auto_rebuild_fraction,
        )

        if not replayed_ops and tokens:
            # Fresh log: frame the initial sets so a reload needs
            # nothing but the directory.
            for toks, payload in zip(tokens, their_payloads):
                self.log.append(self._op(toks, payload))
        elif self.dropped:
            self.compact()

    @staticmethod
    def _op(tokens: Sequence[str], payload: Any) -> Dict[str, Any]:
        return {"kind": "add", "tokens": list(tokens), "payload": payload}

    def add(self, tokens: Sequence[str], payload: Any = None) -> int:
        """Durably insert one set: logged (fsynced) before it is applied,
        so a crash between the two replays the insert instead of losing
        it, and a failed append leaves memory unchanged."""
        with self._writer:  # one writer at a time: log order is id order
            self.log.append(self._op(tokens, payload))
            return super().add(tokens, payload)

    def compact(self) -> int:
        """Rewrite the log from live state; returns the record count."""
        with self._writer:
            ops = [
                self._op(Counter(rec.counts).elements(), rec.payload)
                for rec in self.collection
            ]
            self.log.compact(ops)
        return len(ops)
