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

Generation layout (format version 4)::

    index-dir/
      CURRENT              # text: name of the live generation
      gen-000001/
        manifest.json      # version, skip-list flag, counts, sha256
        collection.jsonl   # per set, in id order: [payload, token, …]
        inserts.jsonl      # optional: CRC-framed sets added since the save

A ``collection.jsonl`` line is one compact JSON array: the set's payload,
then its tokens, each written as many times as it counts, in the order of
the record's ``counts``.  A load rebuilds ``counts`` in that key order,
so ``[null,"ab","ab","bc"]`` is ``{"ab": 2, "bc": 1}``.  Each token that
a load, a tail replay or a build brings in maps to its collection's one
string for it (:class:`~repro.core.collection.SetCollection`), so the
loaded sets hold every distinct token once.

A save writes a fresh generation into a hidden temp directory, fsyncs
every file, writes the manifest *last* (so a manifest can never name
data that was not flushed), promotes the temp directory with a rename,
and finally flips ``CURRENT`` via atomic ``os.replace``.  Readers see
the old generation until that final rename.  Then it deletes every
generation but the new one and the one ``CURRENT`` named before.

A save writes no ``inserts.jsonl``; :class:`DurableUpdatableSearcher`
appends each insert to it, as ``["add", payload, token, …]``.  A load
indexes the tail's verified lines after the collection and reports the
rest as dropped; it leaves them on disk, and the next append cuts them
off (see :func:`_read_inserts`).

Loading verifies manifest → checksum → collection → the built index's
counts; any damage is attributed to a specific component in a structured
:class:`RecoveryReport`.  When the current generation is damaged the
loader quarantines it (rename to ``<gen>.corrupt``) and falls back to
the newest intact generation; only when *no* generation survives does
it raise :class:`~repro.core.errors.CorruptIndexError` carrying the
report.  A read that raises ``OSError`` proves no damage (it may be
transient), so the load raises it and renames nothing; neither is a
manifest naming a format newer than :data:`FORMAT_VERSION` damage: the
load raises :class:`~repro.core.errors.StorageError`.

Formats 1 to 3 are still read; nothing writes them any more.  Their
lines are JSON objects, ``{"counts": …, "payload": …}`` (earlier
format-3 lines also hold ``"tokens"``, the keys of ``counts``, which a
load ignores), and so are the lines of a format-3 tail.  Format 2
generations and the flat single-directory layout of format 1
(``manifest.json`` + data files at top level) also hold
``postings.bin``, the lists as they were stored then: a load builds the
index from the collection as above and accepts the directory only if
that file is byte for byte what the build encodes, so a stored list a
build would not reproduce is ``postings`` damage, checksum or not.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import operator
import os
import shutil
import struct
import zlib
from collections import Counter
from functools import partial
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.collection import SetCollection
from ..core.errors import CorruptIndexError, StorageError
from ..core.search import SetSimilaritySearcher
from ..core.updatable import UpdatableSearcher
from ..core.weights import tf_counts
from ..faults import runtime as faults_runtime
from .invlist import InvertedIndex, _gc_paused

FORMAT_VERSION = 4
SUPPORTED_VERSIONS = (1, 2, 3, 4)

_POSTING = struct.Struct("<dQ")
_COUNT = struct.Struct("<I")

_CURRENT = "CURRENT"
_GEN_PREFIX = "gen-"
_TMP_PREFIX = ".tmp-"
_QUARANTINE_SUFFIX = ".corrupt"

COLLECTION_FILE = "collection.jsonl"
POSTINGS_FILE = "postings.bin"
MANIFEST_FILE = "manifest.json"
INSERTS_FILE = "inserts.jsonl"


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
        #: The loaded generation's ``format_version``.
        self.format_version: Optional[int] = None
        #: Lines of the loaded generation's ``inserts.jsonl`` replayed and
        #: dropped.
        self.replayed = 0
        self.dropped = 0

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
_encode = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode


def _record_json(
    what: str, counts: Dict[str, int], payload: Any, head: Sequence[str] = ()
) -> str:
    """A set's saved line, ``[*head, payload, token, …]``, each token
    written as many times as it counts, in ``counts`` key order.  A
    token that is not a string (JSON would make it one) or a count that
    is not a positive integer is a :class:`StorageError` naming
    ``what``."""
    if not all(map(isinstance, counts, itertools.repeat(str))):
        raise StorageError(f"{what}'s tokens must be strings")
    tokens: Iterable[str] = counts
    values = counts.values()
    if any(map(operator.ne, values, itertools.repeat(1))):  # a multiset
        if not all(type(n) is int and n > 0 for n in values):
            raise StorageError(f"{what}'s counts must be positive integers")
        tokens = itertools.chain.from_iterable(
            map(itertools.repeat, counts, values)
        )
    try:
        return _encode([*head, payload, *tokens])
    except (TypeError, ValueError) as exc:
        raise StorageError(f"{what} is not JSON-serializable: {exc}") from None


def _collection_bytes(collection: SetCollection) -> bytes:
    lines = [
        _record_json(f"set {rec.set_id}", rec.counts, rec.payload)
        for rec in collection
    ]
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


def _current_name(directory: Path) -> Optional[str]:
    """The generation ``CURRENT`` names, or None when there is none."""
    try:
        return (directory / _CURRENT).read_text(encoding="utf-8").strip()
    except (OSError, UnicodeDecodeError):
        return None


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
    after everything is durable, then deletes every generation but the
    new one and the one ``CURRENT`` named before.  Returns the manifest
    that was written.
    """
    # Encoded first: a set that cannot be saved leaves no trace on disk.
    collection_data = _collection_bytes(searcher.collection)
    manifest = {
        "format_version": FORMAT_VERSION,
        "num_sets": len(searcher.collection),
        **_counts(searcher.index),
        "with_skip_lists": searcher.index.with_skip_lists,
        "checksums": {COLLECTION_FILE: _sha256(collection_data)},
    }
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    _clean_stale_tmp(directory)
    keep = {_current_name(directory)}
    gen_name = _next_generation_name(directory)
    tmp_dir = directory / (_TMP_PREFIX + gen_name)
    tmp_dir.mkdir()
    # The collection first (fsynced), then the manifest naming it: a
    # manifest never names bytes that were not flushed.
    _write_file(
        tmp_dir / COLLECTION_FILE, collection_data, "persist.write_collection"
    )
    _write_file(
        tmp_dir / MANIFEST_FILE,
        json.dumps(manifest, indent=2).encode("utf-8"),
        "persist.write_manifest",
    )
    _fsync_dir(tmp_dir)
    # Promotion: rename the fully-flushed temp directory, make the
    # rename durable, then flip CURRENT.  A crash before the final
    # replace leaves CURRENT on the old generation; after it, on the
    # new one.  Either way the directory loads.
    faults_runtime.maybe_fire("persist.promote")
    os.rename(tmp_dir, directory / gen_name)
    _fsync_dir(directory)
    _set_current(directory, gen_name)
    keep.add(gen_name)
    for gen in _generation_dirs(directory):
        if gen not in keep:
            shutil.rmtree(directory / gen, ignore_errors=True)
    return manifest


# ----------------------------------------------------------------------
# load
# ----------------------------------------------------------------------
#: Makes a load's searcher from the verified sets and skip-list flag.
_Build = Callable[..., SetSimilaritySearcher]


def load_searcher(path) -> SetSimilaritySearcher:
    """Load a searcher persisted by :func:`save_searcher`.

    Detects the layout (``CURRENT`` ⇒ generational, top-level
    ``manifest.json`` ⇒ legacy flat), verifies integrity, and recovers
    from a damaged current generation by quarantining it and falling
    back to the newest intact one.  The sets of the generation's
    ``inserts.jsonl`` tail, if it has one, are indexed after its
    collection.  The returned searcher carries a ``recovery_report``
    attribute (:class:`RecoveryReport`); when no intact state exists,
    raises :class:`~repro.core.errors.CorruptIndexError` whose
    ``report`` names every damaged component.  An ``OSError`` from a
    read is raised as it is, with nothing renamed.
    """
    return _load(Path(path), SetSimilaritySearcher)[0]


def _load(
    directory: Path, build: _Build
) -> Tuple[SetSimilaritySearcher, int]:
    """The loaded searcher and the length in bytes of its generation's
    verified tail prefix."""
    report = RecoveryReport(str(directory))
    current: Optional[str] = None
    if (directory / _CURRENT).exists():
        known = _generation_dirs(directory)
        raw = _read_file(directory / _CURRENT, "persist.read_manifest")
        name = raw.decode("utf-8", errors="replace").strip()
        if name in known:
            current = name
        else:
            report.record(
                _CURRENT, "pointer", f"names missing generation {name!r}"
            )
        candidates = [current] if current is not None else []
        candidates.extend(
            sorted(
                (g for g in known if g != current),
                key=lambda n: int(n[len(_GEN_PREFIX) :]),
                reverse=True,
            )
        )
    elif (directory / MANIFEST_FILE).exists():
        report.legacy = True
        current = "flat"
        candidates = [current]
    else:
        raise StorageError(f"no persisted index under {directory}")

    failed: List[str] = []
    for gen in candidates:
        report.generations_tried.append(gen)
        gen_dir = directory if report.legacy else directory / gen
        try:
            searcher, tail_end = _load_generation(gen_dir, gen, build, report)
        except _ComponentFailure as exc:
            report.record(gen, exc.component, exc.detail)
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
        return searcher, tail_end

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


def _load_generation(
    gen_dir: Path, name: str, build: _Build, report: RecoveryReport
) -> Tuple[SetSimilaritySearcher, int]:
    """Load one directory (a generation, or a flat legacy layout), and
    the length of its tail's verified prefix.

    Raises :class:`_ComponentFailure` naming the first component whose
    verification failed; never returns a searcher that would score
    differently from the saved one.  On success the tail's replayed and
    dropped lines go into ``report``.
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
    if type(version) is int and version > FORMAT_VERSION:
        # Written by a newer version: not damage, so nothing is renamed.
        raise StorageError(
            f"{gen_dir} holds format {version}, newer than the format "
            f"{FORMAT_VERSION} this version reads"
        )
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

    parse = _parse_arrays if version >= 4 else _parse_objects
    with _gc_paused():
        collection = _parse_collection(collection_data, manifest, parse)
        added, tail_end, dropped = _read_inserts(gen_dir / INSERTS_FILE)
        parse(collection, added, "inserts")
        searcher = build(
            collection.freeze(), with_skip_lists=manifest["with_skip_lists"]
        )

    # ``postings.bin`` (formats 1 and 2) pins the saved sets' lists
    # alone, so a tail beside it fails this check.
    postings_path = gen_dir / POSTINGS_FILE
    if postings_path.exists():
        stored = _read_file(postings_path, "persist.read_postings")
        if stored != _postings_bytes(searcher.index):
            raise _ComponentFailure(
                "postings",
                f"{POSTINGS_FILE} differs from the lists a build of the "
                "collection makes",
            )
    # A replayed set adds one posting per token, and a list for each
    # token that no saved set holds.
    added_df = Counter(
        token
        for set_id in range(manifest["num_sets"], len(collection))
        for token in collection[set_id].counts
    )
    stats = searcher.collection.stats
    expected_counts = {
        "num_tokens": manifest["num_tokens"]
        + sum(1 for token, n in added_df.items() if stats.doc_freq(token) == n),
        "num_postings": manifest["num_postings"] + sum(added_df.values()),
    }
    for key, value in _counts(searcher.index).items():
        if value != expected_counts[key]:
            raise _ComponentFailure(
                "manifest",
                f"the built index has {key} = {value}, expected "
                f"{expected_counts[key]} from the manifest",
            )
    report.format_version = version
    report.replayed = len(added)
    report.dropped = dropped
    if dropped:
        report.record(
            name,
            "inserts",
            f"dropped {dropped} torn or corrupt line(s) of {INSERTS_FILE} "
            f"after {len(added)} verified",
        )
    return searcher, tail_end


#: Appends one set per line of a collection file or tail to a collection.
_Parse = Callable[[SetCollection, Sequence[Any], str], None]


def _parse_collection(
    data: bytes, manifest: Dict[str, Any], parse: _Parse
) -> SetCollection:
    """The saved sets, not yet frozen: a load appends the tail's.  Lines
    end at ``\n`` only: a JSON string may hold U+2028 or U+0085 as is."""
    collection = SetCollection()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _ComponentFailure(
            "collection", f"collection.jsonl is not UTF-8: {exc}"
        ) from None
    parse(collection, text.split("\n"), "collection")
    if len(collection) != manifest["num_sets"]:
        raise _ComponentFailure(
            "collection",
            f"holds {len(collection)} sets, manifest says "
            f"{manifest['num_sets']}",
        )
    return collection


def _parse_arrays(
    collection: SetCollection, lines: Sequence[Any], component: str
) -> None:
    """Append one set per format-4 line, ``[payload, token, …]`` with
    each token a string.  A tail line (``component`` is ``"inserts"``)
    starts with its kind, and only ``"add"`` is known."""
    first = 2 if component == "inserts" else 1
    add = collection.add
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise _ComponentFailure(
                component, f"line {lineno} does not parse: {exc}"
            ) from None
        if type(record) is not list or len(record) < first:
            raise _ComponentFailure(
                component,
                f"line {lineno} is not a [{'kind, ' * (first - 1)}payload, "
                "token, …] array",
            )
        if first == 2 and record[0] != "add":
            raise StorageError(
                f"{INSERTS_FILE} line {lineno} holds unknown op kind "
                f"{record[0]!r}"
            )
        tokens = record[first:]
        if not all(map(isinstance, tokens, itertools.repeat(str))):
            raise _ComponentFailure(
                component, f"line {lineno} holds a token that is not a string"
            )
        add(tokens, record[first - 1])


def _parse_objects(
    collection: SetCollection, lines: Sequence[Any], component: str
) -> None:
    """Append one set per line of formats 1 to 3, a JSON object: its
    ``counts``, each a positive integer, and its ``payload``.  A tail
    line (``component`` is ``"inserts"``) also names its kind, and only
    ``"add"`` is known."""
    tail = component == "inserts"
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            if tail and record.get("kind") != "add":
                raise StorageError(
                    f"{INSERTS_FILE} line {lineno} holds unknown op kind "
                    f"{record.get('kind')!r}"
                )
            counts = record["counts"]
            payload = record["payload"]
            values = counts.values()
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise _ComponentFailure(
                component, f"line {lineno} does not parse: {exc}"
            ) from None
        for count in values:
            if type(count) is not int or count < 1:
                raise _ComponentFailure(
                    component,
                    f"line {lineno} holds count {count!r}, not a positive "
                    "integer",
                )
        collection.add_counts(counts, payload)


# ----------------------------------------------------------------------
# durable inserts: a generation's tail
# ----------------------------------------------------------------------
def _insert_frame(counts: Dict[str, int], payload: Any) -> bytes:
    """One tail line: ``<crc32 hex> ["add", payload, token, …]\n``."""
    body = _record_json(
        "a durable insert", counts, payload, ("add",)
    ).encode("utf-8")
    return b"%08x %s\n" % (zlib.crc32(body), body)


def _read_inserts(path: Path) -> Tuple[List[bytes], int, int]:
    """The records of a tail's verified prefix, one JSON line each, that
    prefix's length in bytes, and how many lines follow it.

    A line is verified when it ends in a newline and passes its CRC.
    From the first one that does not on, the tail is torn or corrupt.
    A load writes nothing: :func:`_append_insert` cuts those lines off
    before the next append.
    """
    if not path.exists():
        return [], 0, 0
    data = _read_file(path, "persist.read_inserts")
    added = []
    end = 0
    for line in data.split(b"\n")[:-1]:
        body = line[9:]
        if line[8:9] != b" " or line[:8] != b"%08x" % zlib.crc32(body):
            break
        added.append(body)
        end += len(line) + 1
    return added, end, sum(1 for line in data[end:].split(b"\n") if line)


def _append_insert(path: Path, end: int, frame: bytes) -> int:
    """Append one frame, fsynced, to a tail whose verified prefix is
    ``end`` bytes long, cutting off what a failed append left past it;
    returns the new length."""
    faults_runtime.maybe_fire("persist.append_insert")
    data = faults_runtime.maybe_mangle("persist.append_insert", frame)
    with open(path, "ab") as fh:
        if fh.tell() > end:
            fh.truncate(end)
        fh.write(data)
        fh.flush()
        _fsync_fd(fh.fileno())
    if end == 0:
        _fsync_dir(path.parent)  # the file's name is durable too
    return end + len(data)


class DurableUpdatableSearcher(UpdatableSearcher):
    """An updatable searcher whose inserts survive a crash.

    ``directory`` is a :func:`save_searcher` directory: a fresh one gets
    the initial sets as its first generation, an existing one is loaded
    with its skip-list flag (``recovery_report`` counts the tail lines
    replayed and dropped) and, when its generation is older than format
    4, compacted into a new one, so a tail holds one line shape.
    :meth:`add` appends each set to the ``inserts.jsonl`` of the
    generation ``CURRENT`` names and fsyncs it before applying it; the
    first append after a load cuts off the lines the load dropped.  A
    restart starts epoch 0 over every set, so it answers like a fresh
    build.
    """

    def __init__(
        self,
        directory,
        initial_sets: Optional[Sequence[Sequence[str]]] = None,
        payloads: Optional[Sequence[Any]] = None,
        auto_rebuild_fraction: float = 0.25,
    ) -> None:
        directory = Path(directory)
        existing = (directory / _CURRENT).exists() or (
            directory / MANIFEST_FILE
        ).exists()
        if existing and initial_sets:
            raise StorageError(
                f"{directory} already holds an index; initial_sets would "
                "double-apply (pass one or the other)"
            )
        super().__init__(initial_sets, payloads, auto_rebuild_fraction)
        self.directory = directory
        self.recovery_report = RecoveryReport(str(directory))
        self._tail: Optional[Path] = None
        self._tail_end = 0
        if existing:  # epoch 0 over every set
            _, self._tail_end = _load(directory, partial(self._publish, 0))
            report = self.recovery_report
            self._tail = directory / report.loaded_generation / INSERTS_FILE
        if not existing or report.format_version < FORMAT_VERSION:
            self.compact()  # a fresh directory, or an older format

    def add(self, tokens: Sequence[str], payload: Any = None) -> int:
        """Durably insert one set; returns its id.  A set the searcher
        would reject changes nothing; a crash after the append replays
        it, and a failed append leaves memory unchanged."""
        with self._writer:  # one writer at a time: tail order is id order
            counts = tf_counts(list(tokens))
            length = self.stats_epoch.length(counts)
            frame = _insert_frame(counts, payload)
            # The tail a restart reads, also after a save that failed
            # once CURRENT had flipped, or one not made by compact().
            name = _current_name(self.directory)
            if name is None:
                raise StorageError(
                    f"{self.directory} has no CURRENT to follow"
                )
            tail = self.directory / name / INSERTS_FILE
            if tail != self._tail:
                self._tail = tail
                self._tail_end = tail.stat().st_size if tail.exists() else 0
            self._tail_end = _append_insert(tail, self._tail_end, frame)
            return self._insert(counts, length, payload)

    def compact(self) -> Dict[str, Any]:
        """Save the live sets as a new generation, whose tail starts
        empty; returns its manifest."""
        with self._writer:
            return save_searcher(self, self.directory)
