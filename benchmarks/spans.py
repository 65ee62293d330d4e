"""Span tracer for the traced benchmark run.

The tracer wraps the entry points of every ghzverify layer in timing
wrappers.  It is installed only in the traced process, only from these
benchmark files, and it leaves the package's source untouched.  Entry points
are resolved by name when the tracer is installed:

* every public module-level function of each layer module;
* every module-level name in any ghzverify module that refers to one of those
  functions, so names that callers import (``simnet.run_round``,
  ``simnet.round_rng``) are timed as well;
* the methods listed in ``METHODS``;
* the strategy callables of every strategy that ``adversary.make_strategy``
  returns while the tracer is installed.

A missing entry point is skipped, so it reports zero calls instead of
failing.  Each call records a span ``(name, start, end, parent, job)``; spans
stay in memory until ``collect`` folds them into per-name totals.  A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import importlib
import inspect
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("qstate", "protocol", "adversary", "sources", "analytics", "simnet", "cli")

# (layer, class, method, span name): methods timed besides module functions
METHODS = (
    ("qstate", "PureState", "__post_init__", "qstate.validate"),
    ("qstate", "DensityMatrix", "__post_init__", "qstate.validate"),
    ("protocol", "PassStats", "from_records", "protocol.PassStats.from_records"),
    ("simnet", "Transcript", "messages_jsonl", "simnet.Transcript.messages_jsonl"),
    ("simnet", "Transcript", "records_jsonl", "simnet.Transcript.records_jsonl"),
    ("simnet", "Transcript", "summary_json", "simnet.Transcript.summary_json"),
    ("simnet", "Transcript", "summary_dict", "simnet.Transcript.summary_dict"),
)

# attributes of a strategy object that are called once per round
STRATEGY_CALLABLES = (
    ("sample_side_info", "adversary.sample_side_info"),
    ("respond", "adversary.respond"),
)

CHECK_SPAN = "bench.check"
SAMPLE_SPAN = "qstate.sample_outcomes"

SERIALIZE_SPANS = frozenset(name for _, _, _, name in METHODS if name.startswith("simnet."))

# (inner, outer): count inner spans that run inside an outer span
NESTED = (
    ("qstate.setting_pass_probability", "protocol.exact_pass_probability_xy"),
    ("adversary.helstrom_guess_probability", "adversary.xy_optimal_pass_probability"),
)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Records spans around calls into the package while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.job = -1
        self.suspended = False
        self.valid_rounds = 0

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- wrappers ---------------------------------------------------------

    def wrap(self, name, fn, *, tag=None, post=None):
        """Return ``fn`` wrapped so each unsuspended call records a span.

        ``tag(args)`` may return a more specific span name per call;
        ``post(result)`` may replace the result.
        """
        spans, stack, nid, tracer = self.spans, self._stack, self.name_id(name), self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.suspended:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                parent = stack[-1] if stack else -1
                spans[sid] = (nid if tag is None else tag(args), t0, t1, parent, tracer.job)
            return result if post is None else post(result)

        return wrapper

    def span(self, name: str):
        """Context manager recording one span of the benchmark's own work,
        with the package wrappers suspended inside it."""
        return _BenchSpan(self, self.name_id(name))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    # -- installation -----------------------------------------------------

    def install(self):
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"ghzverify.{layer}")
            except ImportError:
                continue
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                wrappers[obj] = self.wrap(f"{layer}.{attr}", obj, **self._hooks(f"{layer}.{attr}"))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ghzverify" or mod_name.startswith("ghzverify.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        for layer, cls_name, attr, name in METHODS:
            cls = getattr(modules.get(layer), cls_name, None)
            raw = getattr(cls, "__dict__", {}).get(attr)
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self.wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self.wrap(name, raw))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _hooks(self, name: str) -> dict:
        if name == SAMPLE_SPAN:
            return {"tag": self._sample_tag}
        if name == "protocol.run_round":
            return {"post": self._count_valid}
        if name == "adversary.make_strategy":
            return {"post": self._wrap_strategy}
        return {}

    def _sample_tag(self, args) -> int:
        state = args[0] if args else None
        kind = "pure" if type(state).__name__ == "PureState" else "density"
        return self.name_id(f"{SAMPLE_SPAN}.{kind}.n{getattr(state, 'n', 0)}")

    def _count_valid(self, record):
        if getattr(record, "passed", None) is not None:
            self.valid_rounds += 1
        return record

    def _wrap_strategy(self, strategy):
        if not dataclasses.is_dataclass(strategy):
            return strategy
        changes = {
            attr: self.wrap(name, getattr(strategy, attr))
            for attr, name in STRATEGY_CALLABLES
            if callable(getattr(strategy, attr, None))
        }
        try:
            return dataclasses.replace(strategy, **changes)
        except (TypeError, ValueError):
            return strategy

    # -- aggregation ------------------------------------------------------

    def collect(self) -> "Totals":
        """Fold the recorded spans into totals and forget them."""
        totals = Totals.from_spans(self.names, self.spans)
        totals.valid_rounds = self.valid_rounds
        self.spans.clear()
        self.valid_rounds = 0
        return totals

    def write(self, path: Path, spans: list, totals: "Totals"):
        """Write one pass's spans and the run's totals as gzipped JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "span_fields": ["name", "start", "end", "parent", "job"],
            "names": self.names,
            "spans": spans,
            "totals": {k: dict(v) if isinstance(v, dict) else v for k, v in vars(totals).items()},
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))


class _BenchSpan:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        tr = self.tracer
        self.sid = len(tr.spans)
        tr.spans.append(None)
        tr._stack.append(self.sid)
        tr.suspended = True
        self.t0 = perf_counter()

    def __exit__(self, *exc):
        tr = self.tracer
        t1 = perf_counter()
        tr.suspended = False
        tr._stack.pop()
        parent = tr._stack[-1] if tr._stack else -1
        tr.spans[self.sid] = (self.nid, self.t0, t1, parent, tr.job)
        return False


@dataclasses.dataclass
class Totals:
    """Per-name span totals over one or more traced passes."""

    calls: dict = dataclasses.field(default_factory=lambda: defaultdict(int))
    incl_s: dict = dataclasses.field(default_factory=lambda: defaultdict(float))
    self_s: dict = dataclasses.field(default_factory=lambda: defaultdict(float))
    # inclusive time and count of spans whose parent is in another layer
    outer_s: dict = dataclasses.field(default_factory=lambda: defaultdict(float))
    outer_calls: dict = dataclasses.field(default_factory=lambda: defaultdict(int))
    serialize_s: float = 0.0
    root_s: float = 0.0
    nested: dict = dataclasses.field(default_factory=lambda: defaultdict(int))
    valid_rounds: int = 0

    @classmethod
    def from_spans(cls, names: list[str], spans: list) -> "Totals":
        t = cls()
        child = [0.0] * len(spans)
        for nid, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        nested_ids = {}
        for inner, outer in NESTED:
            if inner in names and outer in names:
                nested_ids[names.index(inner)] = (names.index(outer), f"{inner}<{outer}")
        for i, (nid, t0, t1, parent, _) in enumerate(spans):
            name = names[nid]
            dur = t1 - t0
            t.calls[name] += 1
            t.incl_s[name] += dur
            t.self_s[name] += dur - child[i]
            parent_name = names[spans[parent][0]] if parent >= 0 else None
            if parent_name is None:
                t.root_s += dur
            if parent_name is None or layer_of(parent_name) != layer_of(name):
                t.outer_s[layer_of(name)] += dur
                t.outer_calls[layer_of(name)] += 1
            if name in SERIALIZE_SPANS and parent_name not in SERIALIZE_SPANS:
                t.serialize_s += dur
            if nid in nested_ids:
                outer_id, key = nested_ids[nid]
                p = parent
                while p >= 0 and spans[p][0] != outer_id:
                    p = spans[p][3]
                if p >= 0:
                    t.nested[key] += 1
        return t

    def add(self, other: "Totals"):
        for field in ("calls", "incl_s", "self_s", "outer_s", "outer_calls", "nested"):
            mine = getattr(self, field)
            for key, value in getattr(other, field).items():
                mine[key] += value
        self.serialize_s += other.serialize_s
        self.root_s += other.root_s
        self.valid_rounds += other.valid_rounds

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if layer_of(k) == layer)
