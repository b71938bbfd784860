"""Fault plans: parsed specs, seeded dice, and the Null twin.

A *fault plan* is a set of rules, each binding a fault **site** pattern
to a fault **kind** with trigger parameters.  The spec grammar (used by
the ``REPRO_FAULTS`` environment variable and
:func:`repro.faults.use_fault_plan`) is::

    spec     := clause (";" clause)*
    clause   := "seed=" int          -- global PRNG seed (default 0)
              | rule
    rule     := site ":" kind (":" key "=" value)*
    site     := dotted name, "*" wildcards allowed (fnmatch)
    kind     := "transient"          -- raise TransientIOError
              | "torn"               -- raise TornWriteError
              | "flip"               -- flip bytes in data passing through
              | "latency"            -- sleep before the operation
    key      := "p"                  -- trigger probability   (default 1.0)
              | "count"              -- max triggers, then dormant (default
                                        unlimited)
              | "after"              -- skip the first N matching hits
                                        (default 0)
              | "ms"                 -- latency in milliseconds (latency
                                        only, default 1.0)
              | "bytes"              -- bytes to corrupt (flip only,
                                        default 1)

Examples::

    seed=42;storage.read_page:transient:p=0.05
    persist.write_collection:torn:after=1;persist.fsync:latency:ms=2
    persist.read_*:flip:p=0.01:bytes=3:count=1

Determinism: every trigger decision draws from one
:class:`random.Random` seeded by the plan's ``seed`` under a lock, so a
single-threaded run of the same operations against the same spec
reproduces the *identical* fault sequence (asserted by
``tests/test_faults.py``).  Under free-running threads the per-thread
interleaving is scheduler-dependent, but the total set of draws still
depends only on the work submitted.

:class:`NullFaultPlan` is the disabled twin (same pattern as
:class:`repro.obs.NullRegistry`): ``armed`` is False and every
operation is a no-op, so instrumented hot paths pay one attribute test
when injection is off — measured ≤ 2 % on the SF hot path by
``benchmarks/bench_faults_overhead.py``.
"""

from __future__ import annotations

import threading
import time
from fnmatch import fnmatchcase
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import FaultSpecError, TornWriteError, TransientIOError

__all__ = [
    "KINDS",
    "FaultRule",
    "FaultPlan",
    "NullFaultPlan",
    "parse_fault_spec",
]

KINDS = ("transient", "torn", "flip", "latency")

#: Kinds applied by :meth:`FaultPlan.fire` (control-flow faults) vs.
#: :meth:`FaultPlan.mangle` (data faults).
_FIRE_KINDS = ("transient", "torn", "latency")


class FaultRule:
    """One parsed rule: where, what, and how often."""

    __slots__ = (
        "site", "kind", "probability", "count", "after",
        "latency_ms", "flip_bytes", "hits", "triggered",
    )

    def __init__(
        self,
        site: str,
        kind: str,
        probability: float = 1.0,
        count: Optional[int] = None,
        after: int = 0,
        latency_ms: float = 1.0,
        flip_bytes: int = 1,
    ) -> None:
        if kind not in KINDS:
            raise FaultSpecError(
                f"unknown fault kind {kind!r}; known kinds: {KINDS}"
            )
        if not (0.0 <= probability <= 1.0):
            raise FaultSpecError(
                f"probability must be in [0, 1], got {probability!r}"
            )
        if count is not None and count < 0:
            raise FaultSpecError(f"count must be >= 0, got {count!r}")
        if after < 0:
            raise FaultSpecError(f"after must be >= 0, got {after!r}")
        if latency_ms < 0:
            raise FaultSpecError(f"ms must be >= 0, got {latency_ms!r}")
        if flip_bytes < 1:
            raise FaultSpecError(f"bytes must be >= 1, got {flip_bytes!r}")
        self.site = site
        self.kind = kind
        self.probability = probability
        self.count = count
        self.after = after
        self.latency_ms = latency_ms
        self.flip_bytes = flip_bytes
        self.hits = 0  # matching passes through this rule's site
        self.triggered = 0  # times the rule actually injected

    def matches(self, site: str) -> bool:
        return fnmatchcase(site, self.site)

    def exhausted(self) -> bool:
        return self.count is not None and self.triggered >= self.count

    def __repr__(self) -> str:
        return (
            f"FaultRule({self.site}:{self.kind}, p={self.probability}, "
            f"triggered={self.triggered})"
        )


def _parse_clause(clause: str) -> FaultRule:
    parts = clause.split(":")
    if len(parts) < 2:
        raise FaultSpecError(
            f"rule {clause!r} must be 'site:kind[:key=value...]'"
        )
    site, kind = parts[0].strip(), parts[1].strip()
    if not site:
        raise FaultSpecError(f"rule {clause!r} has an empty site")
    kwargs: Dict[str, float] = {}
    for raw in parts[2:]:
        if "=" not in raw:
            raise FaultSpecError(
                f"rule option {raw!r} must be 'key=value'"
            )
        key, value = (s.strip() for s in raw.split("=", 1))
        try:
            if key == "p":
                kwargs["probability"] = float(value)
            elif key == "count":
                kwargs["count"] = int(value)
            elif key == "after":
                kwargs["after"] = int(value)
            elif key == "ms":
                kwargs["latency_ms"] = float(value)
            elif key == "bytes":
                kwargs["flip_bytes"] = int(value)
            else:
                raise FaultSpecError(
                    f"unknown rule option {key!r} "
                    "(known: p, count, after, ms, bytes)"
                )
        except ValueError as exc:
            if isinstance(exc, FaultSpecError):
                raise
            raise FaultSpecError(
                f"bad value for {key!r} in {clause!r}: {value!r}"
            ) from None
    return FaultRule(site, kind, **kwargs)  # type: ignore[arg-type]


def parse_fault_spec(
    spec: str, sleeper: Optional[Callable[[float], None]] = None
) -> "FaultPlan":
    """Parse a spec string (grammar in the module docstring)."""
    seed = 0
    rules: List[FaultRule] = []
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        if ":" not in clause:
            key, _, value = clause.partition("=")
            if key.strip() != "seed" or not _:
                raise FaultSpecError(
                    f"clause {clause!r} is neither 'seed=N' nor a rule"
                )
            try:
                seed = int(value.strip())
            except ValueError:
                raise FaultSpecError(
                    f"seed must be an integer, got {value!r}"
                ) from None
            continue
        rules.append(_parse_clause(clause))
    if not rules:
        raise FaultSpecError(f"spec {spec!r} declares no fault rules")
    return FaultPlan(rules, seed=seed, sleeper=sleeper)


class FaultPlan:
    """An armed set of fault rules sharing one seeded PRNG.

    ``fire(site)`` applies control-flow rules (transient / torn /
    latency); ``mangle(site, data)`` applies data rules (flip).  Both
    are thread-safe; the injection journal (:attr:`journal`) records
    ``(site, kind)`` in trigger order so tests can assert exact replay.

    ``sleeper`` receives latency injections in *seconds*; tests pass a
    recording stub so no real sleeping happens.
    """

    armed = True

    def __init__(
        self,
        rules: Sequence[FaultRule],
        seed: int = 0,
        sleeper: Optional[Callable[[float], None]] = None,
    ) -> None:
        # `random` is imported lazily so a disabled process never pays
        # for it; plans are only built when injection is requested.
        import random

        self.rules: Tuple[FaultRule, ...] = tuple(rules)
        self.seed = seed
        self.sleeper = sleeper if sleeper is not None else time.sleep
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self.journal: List[Tuple[str, str]] = []

    # ------------------------------------------------------------------
    def _decide(self, rule: FaultRule) -> bool:
        """One trigger decision (caller holds the lock).

        Every matching pass consumes exactly one PRNG draw whether or
        not it triggers, so the decision sequence depends only on the
        operation sequence — the replay guarantee.
        """
        draw = self._rng.random()
        rule.hits += 1
        if rule.exhausted() or rule.hits <= rule.after:
            return False
        if draw >= rule.probability:
            return False
        rule.triggered += 1
        return True

    def _record(self, site: str, kind: str) -> None:
        self.journal.append((site, kind))
        # Late import: `faults` sits at rank 0 next to `obs`, so the
        # registry dependency must not bind at module import time.
        from ..obs import metrics as obs_metrics

        registry = obs_metrics.get_registry()
        if registry.enabled:
            registry.counter(
                "faults_injected_total",
                "Faults injected by the repro.faults layer.",
                ("site", "kind"),
            ).labels(site=site, kind=kind).inc()

    # ------------------------------------------------------------------
    def fire(self, site: str) -> None:
        """Apply control-flow rules for one pass through ``site``.

        May sleep (latency), raise :class:`TransientIOError`
        (transient) or raise :class:`TornWriteError` (torn); does
        nothing when no rule triggers.
        """
        sleep_ms = 0.0
        error: Optional[Exception] = None
        with self._lock:
            for rule in self.rules:
                if rule.kind not in _FIRE_KINDS or not rule.matches(site):
                    continue
                if not self._decide(rule):
                    continue
                self._record(site, rule.kind)
                if rule.kind == "latency":
                    sleep_ms += rule.latency_ms
                elif error is None:
                    cls = (
                        TransientIOError
                        if rule.kind == "transient"
                        else TornWriteError
                    )
                    error = cls(site)
        if sleep_ms > 0.0:
            self.sleeper(sleep_ms / 1000.0)
        if error is not None:
            raise error

    def mangle(self, site: str, data: bytes) -> bytes:
        """Apply data-corruption rules to bytes passing through ``site``.

        Returns the (possibly corrupted) bytes; rules that do not
        trigger leave the data untouched.
        """
        if not data:
            return data
        with self._lock:
            mutated: Optional[bytearray] = None
            for rule in self.rules:
                if rule.kind != "flip" or not rule.matches(site):
                    continue
                if not self._decide(rule):
                    continue
                self._record(site, "flip")
                if mutated is None:
                    mutated = bytearray(data)
                for _ in range(rule.flip_bytes):
                    pos = self._rng.randrange(len(mutated))
                    mutated[pos] ^= 1 << self._rng.randrange(8)
        return bytes(mutated) if mutated is not None else data

    # ------------------------------------------------------------------
    def injected_total(self) -> int:
        with self._lock:
            return len(self.journal)

    def counts(self) -> Dict[Tuple[str, str], int]:
        """Injection counts keyed by ``(site, kind)``."""
        out: Dict[Tuple[str, str], int] = {}
        with self._lock:
            for entry in self.journal:
                out[entry] = out.get(entry, 0) + 1
        return out

    def __repr__(self) -> str:
        return (
            f"FaultPlan(rules={len(self.rules)}, seed={self.seed}, "
            f"injected={len(self.journal)})"
        )


class NullFaultPlan:
    """The disabled twin: same surface, no state, never fires.

    One shared instance (``repro.faults.runtime.NULL_PLAN``) occupies
    the global slot while injection is off; hot paths test ``armed``
    and skip everything else.
    """

    armed = False
    rules: Tuple[FaultRule, ...] = ()
    journal: List[Tuple[str, str]] = []

    def fire(self, site: str) -> None:
        pass

    def mangle(self, site: str, data: bytes) -> bytes:
        return data

    def injected_total(self) -> int:
        return 0

    def counts(self) -> Dict[Tuple[str, str], int]:
        return {}

    def __repr__(self) -> str:
        return "NullFaultPlan()"
