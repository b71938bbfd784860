"""Crash-safe on-disk persistence for collections and inverted indexes.

The paper's indexes are disk resident and built once; this module gives
the library the matching lifecycle: build, :func:`save_searcher`, ship,
and :func:`load_searcher` — and it does so *crash-safely*: a process
killed at any point during a save leaves the directory loadable as
either the old or the new index state, never corrupt (simulated and
asserted by ``tests/test_recovery.py`` through the :mod:`repro.faults`
layer).

A load re-parses ``collection.jsonl`` (stored token counts, so nothing
is re-tokenized), rebuilds the weight-ordered lists and skip lists from
it, and then cross-checks the rebuild against ``postings.bin``.  Hash
indexes and id-ordered lists are not stored; the loaded index builds
them on first use, like a fresh one.

Generation layout (format version 2)::

    index-dir/
      CURRENT              # text: name of the live generation
      gen-000001/
        manifest.json      # version, flags, counts, per-file sha256
        collection.jsonl   # one JSON object per set, in id order
        postings.bin       # framed weight-ordered postings per token

A save writes a fresh generation into a hidden temp directory, fsyncs
every file, writes the manifest *last* (so a manifest can never name
data that was not flushed), promotes the temp directory with a rename,
and finally flips ``CURRENT`` via atomic ``os.replace``.  Readers see
the old generation until that final rename.

Loading verifies manifest → checksums → postings-vs-collection; any
damage is attributed to a specific component in a structured
:class:`RecoveryReport`.  When the current generation is damaged the
loader quarantines it (rename to ``<gen>.corrupt``) and falls back to
the newest intact generation; only when *no* generation survives does
it raise :class:`~repro.core.errors.CorruptIndexError` carrying the
report.

The flat single-directory layout of format version 1
(``manifest.json`` + data files at top level) is still read; nothing
writes it any more.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import struct
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..core.collection import SetCollection
from ..core.errors import CorruptIndexError, StorageError
from ..core.search import SetSimilaritySearcher
from ..faults import runtime as faults_runtime
from .invlist import InvertedIndex

FORMAT_VERSION = 2
SUPPORTED_VERSIONS = (1, 2)

_POSTING = struct.Struct("<dQ")
_COUNT = struct.Struct("<I")

_CURRENT = "CURRENT"
_GEN_PREFIX = "gen-"
_TMP_PREFIX = ".tmp-"
_QUARANTINE_SUFFIX = ".corrupt"

COLLECTION_FILE = "collection.jsonl"
POSTINGS_FILE = "postings.bin"
MANIFEST_FILE = "manifest.json"


class DamageRecord:
    """One attributed failure: which generation, which component, why."""

    __slots__ = ("generation", "component", "detail")

    def __init__(self, generation: str, component: str, detail: str) -> None:
        self.generation = generation
        self.component = component
        self.detail = detail

    def __repr__(self) -> str:
        return (
            f"DamageRecord(generation={self.generation!r}, "
            f"component={self.component!r}, detail={self.detail!r})"
        )


class RecoveryReport:
    """Structured account of what a load found and what it did about it.

    Attached to every loaded searcher as ``searcher.recovery_report``
    (``clean`` is True for an undamaged load) and carried by
    :class:`~repro.core.errors.CorruptIndexError` when recovery failed.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.damage: List[DamageRecord] = []
        self.generations_tried: List[str] = []
        self.loaded_generation: Optional[str] = None
        self.quarantined: List[str] = []
        self.legacy = False

    @property
    def clean(self) -> bool:
        return not self.damage

    @property
    def recovered(self) -> bool:
        """True when damage was found but an intact generation loaded."""
        return bool(self.damage) and self.loaded_generation is not None

    def components(self) -> List[str]:
        return [d.component for d in self.damage]

    def record(self, generation: str, component: str, detail: str) -> None:
        self.damage.append(DamageRecord(generation, component, detail))

    def summary(self) -> str:
        if self.clean:
            return f"clean load of {self.loaded_generation or self.path}"
        parts = [
            f"{d.generation}/{d.component}: {d.detail}" for d in self.damage
        ]
        outcome = (
            f"recovered via {self.loaded_generation}"
            if self.loaded_generation
            else "unrecoverable"
        )
        return f"{outcome}; damage: " + "; ".join(parts)

    def __repr__(self) -> str:
        return f"RecoveryReport({self.summary()})"


class _ComponentFailure(StorageError):
    """Internal: a load stage failed; carries the component name."""

    def __init__(self, component: str, detail: str) -> None:
        super().__init__(f"{component}: {detail}")
        self.component = component
        self.detail = detail


# ----------------------------------------------------------------------
# low-level I/O with fault points
# ----------------------------------------------------------------------
def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _fsync_fd(fd: int) -> None:
    faults_runtime.maybe_fire("persist.fsync")
    os.fsync(fd)


def _fsync_dir(path: Path) -> None:
    fd = os.open(str(path), os.O_RDONLY)
    try:
        _fsync_fd(fd)
    finally:
        os.close(fd)


def _write_file(path: Path, data: bytes, site: str) -> None:
    """Write + flush + fsync one file, exposing ``site`` as a fault point."""
    faults_runtime.maybe_fire(site)
    data = faults_runtime.maybe_mangle(site, data)
    with open(path, "wb") as fh:
        fh.write(data)
        fh.flush()
        _fsync_fd(fh.fileno())


def _read_file(path: Path, site: str) -> bytes:
    faults_runtime.maybe_fire(site)
    return faults_runtime.maybe_mangle(site, path.read_bytes())


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------
def _collection_bytes(collection: SetCollection) -> bytes:
    lines = []
    for rec in collection:
        try:
            lines.append(
                json.dumps(
                    {
                        "tokens": sorted(rec.tokens),
                        "counts": rec.counts,
                        "payload": rec.payload,
                    },
                    ensure_ascii=False,
                )
            )
        except TypeError as exc:
            raise StorageError(
                f"payload of set {rec.set_id} is not JSON-serializable: "
                f"{exc}"
            ) from None
    return ("\n".join(lines) + "\n" if lines else "").encode("utf-8")


def _postings_bytes(index) -> Tuple[bytes, int]:
    chunks = []
    num_postings = 0
    for token in sorted(index.tokens()):
        encoded = token.encode("utf-8")
        chunks.append(_COUNT.pack(len(encoded)))
        chunks.append(encoded)
        cursor = index.cursor(token)
        entries = []
        while not cursor.exhausted():
            entries.append(cursor.next())
        chunks.append(_COUNT.pack(len(entries)))
        for length, set_id in entries:
            chunks.append(_POSTING.pack(length, set_id))
        num_postings += len(entries)
    return b"".join(chunks), num_postings


def _stored_index(index: InvertedIndex) -> InvertedIndex:
    """The index whose postings a load of ``index.collection`` rebuilds.

    A load computes statistics over every stored set.  An updatable
    searcher scores the sets inserted since its last rebuild under older
    statistics, so their stored lengths would fail the load's cross-check:
    such an index is stored as the rebuild the load will make.
    """
    collection = index.collection
    if collection.stats.num_sets == len(collection):
        return index
    rebuilt = SetCollection.from_token_sets(rec.tokens for rec in collection)
    return InvertedIndex(rebuilt, with_skip_lists=False)


def _build_manifest(
    searcher: SetSimilaritySearcher,
    num_postings: int,
    checksums: Dict[str, str],
) -> Dict[str, Any]:
    index = searcher.index
    return {
        "format_version": FORMAT_VERSION,
        "num_sets": len(searcher.collection),
        "num_tokens": len(list(index.tokens())),
        "num_postings": num_postings,
        # Always true: both are built on first use.  Written for loaders
        # that still read them; this one ignores them.
        "with_id_lists": True,
        "with_skip_lists": index.with_skip_lists,
        "with_hash_index": True,
        "checksums": checksums,
    }


def _write_payload_files(directory: Path, searcher) -> Dict[str, Any]:
    """Write data files first (fsynced), then the manifest naming them.

    The ordering is the point: a manifest must never name bytes that
    were not flushed, so a crash between the two leaves a directory
    whose manifest (old or absent) matches what is actually on disk.
    """
    collection_data = _collection_bytes(searcher.collection)
    postings_data, num_postings = _postings_bytes(_stored_index(searcher.index))
    _write_file(
        directory / COLLECTION_FILE, collection_data, "persist.write_collection"
    )
    _write_file(
        directory / POSTINGS_FILE, postings_data, "persist.write_postings"
    )
    manifest = _build_manifest(
        searcher,
        num_postings,
        {
            COLLECTION_FILE: _sha256(collection_data),
            POSTINGS_FILE: _sha256(postings_data),
        },
    )
    _write_file(
        directory / MANIFEST_FILE,
        json.dumps(manifest, indent=2).encode("utf-8"),
        "persist.write_manifest",
    )
    return manifest


# ----------------------------------------------------------------------
# generation bookkeeping
# ----------------------------------------------------------------------
def _generation_dirs(directory: Path) -> List[str]:
    """Names of complete generation directories, oldest first."""
    names = []
    for entry in directory.iterdir():
        if (
            entry.is_dir()
            and entry.name.startswith(_GEN_PREFIX)
            and not entry.name.endswith(_QUARANTINE_SUFFIX)
            and entry.name[len(_GEN_PREFIX) :].isdigit()
        ):
            names.append(entry.name)
    return sorted(names, key=lambda n: int(n[len(_GEN_PREFIX) :]))


def _next_generation_name(directory: Path) -> str:
    highest = 0
    for entry in directory.iterdir():
        name = entry.name
        if name.startswith(_TMP_PREFIX):
            name = name[len(_TMP_PREFIX) :]
        if name.endswith(_QUARANTINE_SUFFIX):
            name = name[: -len(_QUARANTINE_SUFFIX)]
        if name.startswith(_GEN_PREFIX) and name[len(_GEN_PREFIX) :].isdigit():
            highest = max(highest, int(name[len(_GEN_PREFIX) :]))
    return f"{_GEN_PREFIX}{highest + 1:06d}"


def _set_current(directory: Path, gen_name: str) -> None:
    """Atomically repoint ``CURRENT`` (temp file + ``os.replace``)."""
    tmp = directory / (_CURRENT + ".tmp")
    _write_file(tmp, (gen_name + "\n").encode("utf-8"), "persist.promote")
    os.replace(tmp, directory / _CURRENT)
    _fsync_dir(directory)


def _clean_stale_tmp(directory: Path) -> None:
    for entry in directory.iterdir():
        if entry.is_dir() and entry.name.startswith(_TMP_PREFIX):
            shutil.rmtree(entry, ignore_errors=True)


# ----------------------------------------------------------------------
# save
# ----------------------------------------------------------------------
def save_searcher(searcher: SetSimilaritySearcher, path) -> Dict[str, Any]:
    """Persist a searcher's collection and index to a directory.

    Writes a new crash-safe generation and flips ``CURRENT`` to it only
    after everything is durable.  Returns the manifest that was written.
    """
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    _clean_stale_tmp(directory)
    gen_name = _next_generation_name(directory)
    tmp_dir = directory / (_TMP_PREFIX + gen_name)
    tmp_dir.mkdir()
    manifest = _write_payload_files(tmp_dir, searcher)
    _fsync_dir(tmp_dir)
    # Promotion: rename the fully-flushed temp directory, make the
    # rename durable, then flip CURRENT.  A crash before the final
    # replace leaves CURRENT on the old generation; after it, on the
    # new one.  Either way the directory loads.
    faults_runtime.maybe_fire("persist.promote")
    os.rename(tmp_dir, directory / gen_name)
    _fsync_dir(directory)
    _set_current(directory, gen_name)
    return manifest


# ----------------------------------------------------------------------
# load
# ----------------------------------------------------------------------
def load_searcher(path) -> SetSimilaritySearcher:
    """Load a searcher persisted by :func:`save_searcher`.

    Detects the layout (``CURRENT`` ⇒ generational, top-level
    ``manifest.json`` ⇒ legacy flat), verifies integrity, and recovers
    from a damaged current generation by quarantining it and falling
    back to the newest intact one.  The returned searcher carries a
    ``recovery_report`` attribute (:class:`RecoveryReport`); when no
    intact state exists, raises
    :class:`~repro.core.errors.CorruptIndexError` whose ``report``
    names every damaged component.
    """
    directory = Path(path)
    if (directory / _CURRENT).exists():
        return _load_generational(directory)
    if (directory / MANIFEST_FILE).exists():
        return _load_flat(directory)
    raise StorageError(f"no persisted index under {directory}")


def _load_generational(directory: Path) -> SetSimilaritySearcher:
    report = RecoveryReport(str(directory))
    known = _generation_dirs(directory)

    current: Optional[str] = None
    try:
        raw = _read_file(directory / _CURRENT, "persist.read_manifest")
        name = raw.decode("utf-8", errors="replace").strip()
        if name in known:
            current = name
        else:
            report.record(
                _CURRENT, "pointer", f"names missing generation {name!r}"
            )
    except OSError as exc:
        report.record(_CURRENT, "pointer", str(exc))

    candidates = []
    if current is not None:
        candidates.append(current)
    candidates.extend(
        sorted(
            (g for g in known if g != current),
            key=lambda n: int(n[len(_GEN_PREFIX) :]),
            reverse=True,
        )
    )

    failed: List[str] = []
    for gen in candidates:
        report.generations_tried.append(gen)
        try:
            searcher = _load_generation(directory / gen)
        except _ComponentFailure as exc:
            report.record(gen, exc.component, exc.detail)
            failed.append(gen)
            continue
        except OSError as exc:
            report.record(gen, "io", str(exc))
            failed.append(gen)
            continue
        report.loaded_generation = gen
        if failed or current != gen:
            _quarantine(directory, failed, report)
            try:
                _set_current(directory, gen)
            except OSError as exc:
                report.record(gen, "pointer-repair", str(exc))
        searcher.recovery_report = report
        return searcher

    raise CorruptIndexError(
        f"no intact generation under {directory}: {report.summary()}",
        report=report,
    )


def _quarantine(
    directory: Path, generations: List[str], report: RecoveryReport
) -> None:
    """Best-effort rename of damaged generations out of the candidate set."""
    for gen in generations:
        target = directory / (gen + _QUARANTINE_SUFFIX)
        n = 1
        while target.exists():
            target = directory / f"{gen}{_QUARANTINE_SUFFIX}.{n}"
            n += 1
        try:
            os.rename(directory / gen, target)
            report.quarantined.append(target.name)
        except OSError:
            pass


def _load_flat(directory: Path) -> SetSimilaritySearcher:
    report = RecoveryReport(str(directory))
    report.legacy = True
    try:
        searcher = _load_generation(directory)
    except _ComponentFailure as exc:
        report.record("flat", exc.component, exc.detail)
        raise CorruptIndexError(
            f"flat index under {directory} is damaged: {report.summary()}",
            report=report,
        ) from None
    except OSError as exc:
        report.record("flat", "io", str(exc))
        raise CorruptIndexError(
            f"flat index under {directory} is unreadable: {report.summary()}",
            report=report,
        ) from None
    report.loaded_generation = "flat"
    searcher.recovery_report = report
    return searcher


def _load_generation(gen_dir: Path) -> SetSimilaritySearcher:
    """Load one directory (a generation, or a flat legacy layout).

    Raises :class:`_ComponentFailure` naming the first component whose
    verification failed; never returns a searcher that would score
    differently from the saved one.
    """
    manifest_path = gen_dir / MANIFEST_FILE
    if not manifest_path.exists():
        raise _ComponentFailure("manifest", "manifest.json is missing")
    try:
        manifest = json.loads(
            _read_file(manifest_path, "persist.read_manifest").decode("utf-8")
        )
    except (ValueError, UnicodeDecodeError) as exc:
        raise _ComponentFailure(
            "manifest", f"manifest.json does not parse: {exc}"
        ) from None
    if not isinstance(manifest, dict):
        raise _ComponentFailure("manifest", "manifest.json is not an object")
    version = manifest.get("format_version")
    if version not in SUPPORTED_VERSIONS:
        raise _ComponentFailure(
            "manifest", f"unsupported format version {version!r}"
        )

    required = ("num_sets", "num_tokens", "num_postings", "with_skip_lists")
    missing = [key for key in required if key not in manifest]
    if missing:
        raise _ComponentFailure(
            "manifest", f"manifest.json lacks keys {missing}"
        )

    collection_path = gen_dir / COLLECTION_FILE
    postings_path = gen_dir / POSTINGS_FILE
    if not collection_path.exists():
        raise _ComponentFailure("collection", "collection.jsonl is missing")
    if not postings_path.exists():
        raise _ComponentFailure("postings", "postings.bin is missing")
    collection_data = _read_file(collection_path, "persist.read_collection")
    postings_data = _read_file(postings_path, "persist.read_postings")

    checksums = manifest.get("checksums")
    if checksums:
        for name, data in (
            (COLLECTION_FILE, collection_data),
            (POSTINGS_FILE, postings_data),
        ):
            expected = checksums.get(name)
            if expected is None:
                raise _ComponentFailure(
                    "manifest", f"no checksum recorded for {name}"
                )
            actual = _sha256(data)
            if actual != expected:
                component = (
                    "collection" if name == COLLECTION_FILE else "postings"
                )
                raise _ComponentFailure(
                    component,
                    f"checksum mismatch for {name}: manifest says "
                    f"{expected[:12]}…, file hashes to {actual[:12]}…",
                )

    collection = _parse_collection(collection_data, manifest)
    searcher = SetSimilaritySearcher(
        collection, with_skip_lists=manifest["with_skip_lists"]
    )
    _verify_postings(searcher, postings_data, manifest)
    return searcher


def _parse_collection(data: bytes, manifest: Dict[str, Any]) -> SetCollection:
    collection = SetCollection()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _ComponentFailure(
            "collection", f"collection.jsonl is not UTF-8: {exc}"
        ) from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            tokens = []
            for token, count in record["counts"].items():
                tokens.extend([token] * count)
            collection.add(tokens, payload=record["payload"])
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise _ComponentFailure(
                "collection", f"line {lineno} does not parse: {exc}"
            ) from None
    collection.freeze()
    if len(collection) != manifest["num_sets"]:
        raise _ComponentFailure(
            "collection",
            f"holds {len(collection)} sets, manifest says "
            f"{manifest['num_sets']}",
        )
    return collection


def _verify_postings(
    searcher: SetSimilaritySearcher, data: bytes, manifest: Dict[str, Any]
) -> None:
    try:
        _verify_postings_inner(searcher, data, manifest)
    except (struct.error, UnicodeDecodeError, IndexError) as exc:
        # Corrupted framing: counts or token bytes no longer parse.
        raise _ComponentFailure(
            "postings", f"postings.bin is corrupt: {exc}"
        ) from None


def _verify_postings_inner(
    searcher: SetSimilaritySearcher, data: bytes, manifest: Dict[str, Any]
) -> None:
    offset = 0
    tokens_seen = 0
    postings_seen = 0
    index = searcher.index
    while offset < len(data):
        (token_len,) = _COUNT.unpack_from(data, offset)
        offset += _COUNT.size
        token = data[offset : offset + token_len].decode("utf-8")
        if len(token.encode("utf-8")) != token_len:
            raise _ComponentFailure(
                "postings", f"truncated token frame at offset {offset}"
            )
        offset += token_len
        (count,) = _COUNT.unpack_from(data, offset)
        offset += _COUNT.size
        cursor = index.cursor(token)
        if cursor is None:
            raise _ComponentFailure(
                "postings", f"stored token {token!r} missing from rebuilt index"
            )
        for _ in range(count):
            length, set_id = _POSTING.unpack_from(data, offset)
            offset += _POSTING.size
            if cursor.exhausted():
                raise _ComponentFailure(
                    "postings",
                    f"list for {token!r} shorter than stored postings",
                )
            got_length, got_id = cursor.next()
            if got_id != set_id or abs(got_length - length) > 1e-9:
                raise _ComponentFailure(
                    "postings",
                    f"posting mismatch for {token!r}: stored "
                    f"({length}, {set_id}), rebuilt ({got_length}, {got_id})",
                )
        if not cursor.exhausted():
            raise _ComponentFailure(
                "postings", f"list for {token!r} longer than stored postings"
            )
        tokens_seen += 1
        postings_seen += count
    if tokens_seen != manifest["num_tokens"]:
        raise _ComponentFailure(
            "postings",
            f"holds {tokens_seen} tokens, manifest says "
            f"{manifest['num_tokens']}",
        )
    if postings_seen != manifest["num_postings"]:
        raise _ComponentFailure(
            "postings",
            f"holds {postings_seen} postings, manifest says "
            f"{manifest['num_postings']}",
        )
