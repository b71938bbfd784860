"""Crash-safe on-disk persistence for collections and inverted indexes.

The paper's indexes are disk resident and built once; this module gives
the library the matching lifecycle: build, :func:`save_searcher`, ship,
and :func:`load_searcher` — and it does so *crash-safely*: a process
killed at any point during a save leaves the directory loadable as
either the old or the new index state, never corrupt (simulated and
asserted by ``tests/test_recovery.py`` through the :mod:`repro.faults`
layer).

A saved generation holds only the collection.  The weight-ordered lists
are a pure function of it (each token's holders sorted by ``(len, id)``
under the collection's IDF statistics), so a load parses
``collection.jsonl`` (stored token counts, so nothing is re-tokenized)
and builds the index from it.  Storing the lists would save a load no
time: decoding them and proving them equal to a build costs about what
the build does.  Hash indexes and id-ordered lists are built on first
use, like in any fresh index.

Generation layout (format version 3)::

    index-dir/
      CURRENT              # text: name of the live generation
      gen-000001/
        manifest.json      # version, skip-list flag, counts, sha256
        collection.jsonl   # one JSON object per set, in id order

A save writes a fresh generation into a hidden temp directory, fsyncs
every file, writes the manifest *last* (so a manifest can never name
data that was not flushed), promotes the temp directory with a rename,
and finally flips ``CURRENT`` via atomic ``os.replace``.  Readers see
the old generation until that final rename.

Loading verifies manifest → checksum → collection → the built index's
counts; any damage is attributed to a specific component in a structured
:class:`RecoveryReport`.  When the current generation is damaged the
loader quarantines it (rename to ``<gen>.corrupt``) and falls back to
the newest intact generation; only when *no* generation survives does
it raise :class:`~repro.core.errors.CorruptIndexError` carrying the
report.

Format 2 generations and the flat single-directory layout of format 1
(``manifest.json`` + data files at top level) are still read; nothing
writes them any more.  They also hold ``postings.bin``, the lists as
they were stored then: a load builds the index from the collection as
above and accepts the directory only if that file is byte for byte what
the build encodes, so a stored list a build would not reproduce is
``postings`` damage, checksum or not.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import shutil
import struct
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..core.collection import SetCollection
from ..core.errors import CorruptIndexError, StorageError
from ..core.search import SetSimilaritySearcher
from ..faults import runtime as faults_runtime
from .invlist import InvertedIndex, _gc_paused

FORMAT_VERSION = 3
SUPPORTED_VERSIONS = (1, 2, 3)

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
    encode = json.JSONEncoder(ensure_ascii=False).encode
    lines = []
    for rec in collection:
        try:
            lines.append(
                encode(
                    {
                        "tokens": sorted(rec.tokens),
                        "counts": rec.counts,
                        "payload": rec.payload,
                    }
                )
            )
        except TypeError as exc:
            raise StorageError(
                f"payload of set {rec.set_id} is not JSON-serializable: "
                f"{exc}"
            ) from None
    return ("\n".join(lines) + "\n" if lines else "").encode("utf-8")


def _postings_bytes(index: InvertedIndex) -> bytes:
    """``postings.bin`` as formats 1 and 2 stored it for ``index``: per
    token, in sorted order, its UTF-8 name and its ``(len, id)`` list,
    each behind a ``<I`` count."""
    chunks = []
    for token in sorted(index.tokens()):
        encoded = token.encode("utf-8")
        chunks.append(_COUNT.pack(len(encoded)))
        chunks.append(encoded)
        entries = index.postings(token)
        chunks.append(_COUNT.pack(len(entries)))
        chunks.extend(itertools.starmap(_POSTING.pack, entries))
    return b"".join(chunks)


def _counts(index: InvertedIndex) -> Dict[str, int]:
    """The index shape the manifest records and a load checks."""
    return {
        "num_tokens": len(index.tokens()),
        "num_postings": index.num_postings(),
    }


def _write_payload_files(directory: Path, searcher) -> Dict[str, Any]:
    """Write the collection first (fsynced), then the manifest naming it.

    The ordering is the point: a manifest must never name bytes that
    were not flushed, so a crash between the two leaves a directory
    whose manifest (old or absent) matches what is actually on disk.
    """
    collection_data = _collection_bytes(searcher.collection)
    _write_file(
        directory / COLLECTION_FILE, collection_data, "persist.write_collection"
    )
    manifest = {
        "format_version": FORMAT_VERSION,
        "num_sets": len(searcher.collection),
        **_counts(searcher.index),
        "with_skip_lists": searcher.index.with_skip_lists,
        "checksums": {COLLECTION_FILE: _sha256(collection_data)},
    }
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
    # ``True == 1``: without the type test a flag would pass as format 1.
    if type(version) is not int or version not in SUPPORTED_VERSIONS:
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
    if not collection_path.exists():
        raise _ComponentFailure("collection", "collection.jsonl is missing")
    collection_data = _read_file(collection_path, "persist.read_collection")

    checksums = manifest.get("checksums")
    if not isinstance(checksums, dict):
        checksums = {}
    expected = checksums.get(COLLECTION_FILE)
    if expected is None:
        # Format 1 wrote no checksums; from format 2 on one is required.
        if version >= 2:
            raise _ComponentFailure(
                "manifest", f"no checksum recorded for {COLLECTION_FILE}"
            )
    else:
        actual = _sha256(collection_data)
        if actual != expected:
            raise _ComponentFailure(
                "collection",
                f"checksum mismatch for {COLLECTION_FILE}: manifest says "
                f"{expected[:12]}…, file hashes to {actual[:12]}…",
            )

    with _gc_paused():
        collection = _parse_collection(collection_data, manifest)
        searcher = SetSimilaritySearcher(
            collection, with_skip_lists=manifest["with_skip_lists"]
        )

    postings_path = gen_dir / POSTINGS_FILE
    if postings_path.exists():
        stored = _read_file(postings_path, "persist.read_postings")
        if stored != _postings_bytes(searcher.index):
            raise _ComponentFailure(
                "postings",
                f"{POSTINGS_FILE} differs from the lists a build of the "
                "collection makes",
            )
    for key, value in _counts(searcher.index).items():
        if value != manifest[key]:
            raise _ComponentFailure(
                "manifest",
                f"the built index has {key} = {value}, manifest says "
                f"{manifest[key]}",
            )
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
            counts = record["counts"]
            payload = record["payload"]
            values = counts.values()
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise _ComponentFailure(
                "collection", f"line {lineno} does not parse: {exc}"
            ) from None
        for count in values:
            if type(count) is not int or count < 1:
                raise _ComponentFailure(
                    "collection",
                    f"line {lineno} holds count {count!r}, not a positive "
                    "integer",
                )
        collection.add_counts(counts, payload)
    collection.freeze()
    if len(collection) != manifest["num_sets"]:
        raise _ComponentFailure(
            "collection",
            f"holds {len(collection)} sets, manifest says "
            f"{manifest['num_sets']}",
        )
    return collection
