"""Tests for the seeded fault-injection layer (``repro.faults``).

The contract under test, per ``docs/robustness.md``:

* specs parse per the documented grammar, bad specs fail loudly;
* a plan is deterministic — same seed, same operation sequence, same
  injected faults, byte-for-byte — which is what makes chaos failures
  replayable;
* rules gate on site pattern, probability, ``count`` and ``after``;
* the disarmed Null twin injects nothing and costs no state;
* every injection is journaled and counted in ``faults_injected_total``;
* the fault points ``docs/robustness.md`` lists are exactly the ones
  the source wires.
"""

import ast
import os
import re
from pathlib import Path

import pytest

from repro.faults import (
    FaultPlan,
    FaultSpecError,
    NullFaultPlan,
    TornWriteError,
    TransientIOError,
    arm,
    disarm,
    get_plan,
    parse_fault_spec,
    use_fault_plan,
)
from repro.faults import runtime as faults_runtime
from repro.obs import metrics as obs_metrics


class TestSpecParsing:
    def test_full_grammar(self):
        plan = parse_fault_spec(
            "seed=42; storage.read_page:transient:p=0.05;"
            "persist.*:torn:count=2:after=1;"
            "svc:latency:ms=2.5; data:flip:bytes=3"
        )
        assert plan.seed == 42
        kinds = [r.kind for r in plan.rules]
        assert kinds == ["transient", "torn", "latency", "flip"]
        assert plan.rules[0].probability == 0.05
        assert plan.rules[1].count == 2 and plan.rules[1].after == 1
        assert plan.rules[2].latency_ms == 2.5
        assert plan.rules[3].flip_bytes == 3

    @pytest.mark.parametrize(
        "bad",
        [
            "",  # no rules at all
            "seed=x;a:transient",  # non-integer seed
            "justaword",  # neither seed nor rule
            "site:explode",  # unknown kind
            "site:transient:p=1.5",  # probability out of range
            "site:transient:frequency=1",  # unknown option
            "site:flip:bytes=0",  # bytes must be >= 1
            ":transient",  # empty site
        ],
    )
    def test_bad_specs_raise(self, bad):
        with pytest.raises(FaultSpecError):
            parse_fault_spec(bad)

    def test_wildcard_sites_match(self):
        plan = parse_fault_spec("persist.*:transient:p=1")
        with pytest.raises(TransientIOError):
            plan.fire("persist.fsync")
        plan.fire("storage.read_page")  # no rule matches: no-op


class TestDeterminism:
    @staticmethod
    def _run(plan, passes=200):
        """Drive a fixed operation sequence; return observable outcomes."""
        outcomes = []
        for _ in range(passes):
            try:
                plan.fire("storage.read_page")
                outcomes.append("ok")
            except TransientIOError:
                outcomes.append("transient")
        return outcomes

    def test_same_seed_replays_identically(self):
        spec = "seed=7;storage.read_page:transient:p=0.1"
        a, b = parse_fault_spec(spec), parse_fault_spec(spec)
        assert self._run(a) == self._run(b)
        assert a.journal == b.journal
        assert a.injected_total() > 0  # the plan actually fired

    def test_different_seed_differs(self):
        a = parse_fault_spec("seed=7;storage.read_page:transient:p=0.1")
        b = parse_fault_spec("seed=8;storage.read_page:transient:p=0.1")
        assert self._run(a) != self._run(b)

    def test_mangle_is_deterministic_too(self):
        spec = "seed=3;persist.read_postings:flip:p=1:bytes=2"
        data = bytes(range(64))
        a = parse_fault_spec(spec).mangle("persist.read_postings", data)
        b = parse_fault_spec(spec).mangle("persist.read_postings", data)
        assert a == b and a != data and len(a) == len(data)


class TestRuleGating:
    def test_count_and_after(self):
        plan = parse_fault_spec(
            "storage.read_page:transient:count=1:after=2"
        )
        fired = []
        for i in range(6):
            try:
                plan.fire("storage.read_page")
            except TransientIOError:
                fired.append(i)
        # Skips the first two matching passes, fires once, then dormant.
        assert fired == [2]

    def test_torn_kind_raises_torn_error(self):
        plan = parse_fault_spec("persist.write_manifest:torn")
        with pytest.raises(TornWriteError):
            plan.fire("persist.write_manifest")

    def test_latency_uses_the_sleeper(self):
        slept = []
        plan = parse_fault_spec(
            "svc:latency:ms=4", sleeper=slept.append
        )
        plan.fire("svc")
        assert slept == [0.004]

    def test_mangle_leaves_other_sites_alone(self):
        plan = parse_fault_spec("persist.read_postings:flip:p=1")
        data = b"\x00" * 32
        assert plan.mangle("persist.read_inserts", data) == data

    def test_fault_errors_are_oserrors(self):
        # Injected faults model infrastructure failures, so they flow
        # through the same handlers as real I/O errors.
        assert issubclass(TransientIOError, OSError)
        assert issubclass(TornWriteError, OSError)
        err = TransientIOError("storage.read_page")
        assert err.site == "storage.read_page"


class TestRuntime:
    @pytest.mark.skipif(
        bool(os.environ.get(faults_runtime.ENV_VAR, "").strip()),
        reason="REPRO_FAULTS armed this process at import (chaos smoke)",
    )
    def test_disarmed_by_default(self):
        assert isinstance(get_plan(), NullFaultPlan)
        assert not get_plan().armed
        faults_runtime.maybe_fire("storage.read_page")  # no-op
        assert faults_runtime.maybe_mangle("x", b"abc") == b"abc"

    def test_use_fault_plan_scopes_and_restores(self):
        before = get_plan()
        with use_fault_plan("seed=1;x:transient:p=0") as plan:
            assert get_plan() is plan
            assert plan.armed
        assert get_plan() is before

    def test_arm_disarm(self):
        before = get_plan()
        plan = arm("seed=1;x:transient:p=0")
        try:
            assert get_plan() is plan
            disarm()
            assert isinstance(get_plan(), NullFaultPlan)
        finally:
            # Put back whatever was armed (the chaos smoke runs the
            # whole suite under an env-armed plan).
            if before.armed:
                arm(before)

    def test_arm_accepts_a_plan_object(self):
        plan = FaultPlan(parse_fault_spec("x:transient:p=0").rules, seed=5)
        with use_fault_plan(plan) as installed:
            assert installed is plan

    def test_injections_counted_in_metrics(self):
        with obs_metrics.use_registry(obs_metrics.MetricsRegistry()) as reg:
            with use_fault_plan("seed=1;site.a:transient:count=2"):
                for _ in range(3):
                    try:
                        faults_runtime.maybe_fire("site.a")
                    except TransientIOError:
                        pass
            counter = reg.get("faults_injected_total")
            assert counter.labels(site="site.a", kind="transient").value == 2

    def test_journal_and_counts(self):
        with use_fault_plan("seed=1;a:transient;b:torn") as plan:
            for site in ("a", "b", "a"):
                try:
                    faults_runtime.maybe_fire(site)
                except OSError:
                    pass
        assert plan.journal == [
            ("a", "transient"), ("b", "torn"), ("a", "transient")
        ]
        assert plan.counts() == {
            ("a", "transient"): 2, ("b", "torn"): 1
        }


# ----------------------------------------------------------------------
# the documented fault points are the wired ones
# ----------------------------------------------------------------------
_ROOT = Path(__file__).resolve().parent.parent
_SITE_CALLS = {"maybe_fire", "maybe_mangle", "_write_file", "_read_file"}


def _wired_sites():
    """Every string literal passed to a fault-point call in ``src/repro``."""
    sites = set()
    for path in (_ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if getattr(func, "attr", getattr(func, "id", None)) in _SITE_CALLS:
                sites.update(
                    arg.value
                    for arg in node.args
                    if isinstance(arg, ast.Constant)
                    and isinstance(arg.value, str)
                )
    return sites


def _documented_sites():
    text = (_ROOT / "docs" / "robustness.md").read_text(encoding="utf-8")
    paragraph = text.split("Fault points currently wired", 1)[1]
    paragraph = paragraph.split("\n\n", 1)[0]
    return set(re.findall(r"`([a-z_]+\.[a-z_]+)`", paragraph))


def test_documented_fault_points_are_the_wired_ones():
    assert _documented_sites() == _wired_sites()
