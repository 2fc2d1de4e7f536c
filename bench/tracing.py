"""Spans around braidgate's public calls, recorded from the benchmark.

``instrument`` replaces each traced public function, in every braidgate
module that refers to it, by a wrapper that records a span while an item
is open.  Calls the program makes to another traced function (``tau``
inside ``skein_check``, ``rep_exact`` inside ``tau``) therefore nest, and
a layer's self time is its span minus the spans it caused.  Outside an
item (checks, warm-up) the wrappers only forward the call.  Counts that
describe the work (letters applied, states enumerated) are derived from
the call's arguments by the algorithm each function documents.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import checks

CLI_VERBS = ("ybe", "gate", "braid", "invariant", "sim", "catalog", "selftest")


def _rep_counts(b, *args, **kwargs):
    return {"letters": len(b.letters), "dim": 2**b.n}


def _circuit_counts(c, *args, **kwargs):
    return {"letters": len(c.items), "dim": 2**c.n}


def _states(b, *args, **kwargs):
    return {"states": 2 ** len(b.letters)}


def _labelings(b, *args, **kwargs):
    return {"labelings": 2 ** (max(checks.strand_components(b.n, b.letters)) + 1)}


def _outcomes(u, *args, **kwargs):
    return {"outcomes": len(u) ** 2}


# span name -> counter function of the call's arguments (or None)
TRACED = {
    "rep.rep_exact": _rep_counts,
    "rep.rep_matrix": _rep_counts,
    "rep.circuit_matrix": _circuit_counts,
    "invariants.tau": None,
    "invariants.skein_check": None,
    "invariants.bracket_oracle": _states,
    "invariants.bracket3": None,
    "invariants.linking_state_sum": _labelings,
    "braid.closure_info": None,
    "quantum.sample_trace_probability": None,
    "quantum.exact_trace_probability": None,
    "quantum.teleport_protocol": _outcomes,
    "gates.check_ybe_braided": None,
    "gates.is_entangling": None,
    "gates.cnot_count_class": None,
}
SPANS = tuple(TRACED) + ("cli.import",) + tuple(f"cli.verb.{v}" for v in CLI_VERBS)

# (suffix, unit) of the four statistics reported for every span, per item
STATS = (("calls", "count"), ("ms", "ms"), ("self_ms", "ms"), ("share", "%"))
COUNTS = (
    ("rep.letters", "count"),
    ("rep.dim", "count"),
    ("invariants.bracket_oracle.states", "count"),
    ("invariants.linking_state_sum.labelings", "count"),
    ("quantum.teleport_protocol.outcomes", "count"),
    ("cli.stdout_bytes", "bytes"),
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {"item.ms": "ms"}
    for span in SPANS:
        for stat, unit in STATS:
            units[f"{span}.{stat}"] = unit
    units.update(COUNTS)
    return units


class Tracer:
    """Spans kept in memory: id, parent id, item index, name, start, end
    (seconds on the perf_counter clock) and counts."""

    def __init__(self):
        self.spans: list[dict] = []
        self.item: int | None = None
        self._stack: list[int] = []

    def _open(self, name, parent, counts) -> dict:
        rec = {"id": len(self.spans), "parent": parent, "item": self.item, "name": name}
        rec.update(counts)
        self.spans.append(rec)
        return rec

    @contextmanager
    def span(self, name: str, **counts):
        parent = self._stack[-1] if self._stack else None
        rec = self._open(name, parent, counts)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def open_item(self, index: int):
        self.item = index
        try:
            with self.span("item"):
                yield
        finally:
            self.item = None

    def record(self, name: str, start: float, end: float, parent: int | None = None, **counts) -> int:
        """A span measured elsewhere (a child process); returns its id."""
        if parent is None:
            parent = self._stack[-1] if self._stack else None
        rec = self._open(name, parent, counts)
        rec["start"], rec["end"] = start, end
        return rec["id"]


def instrument(tracer: Tracer):
    """Route every traced braidgate function through a span; returns a
    function that undoes it."""
    modules = [m for k, m in list(sys.modules.items()) if k == "braidgate" or k.startswith("braidgate.")]
    undo = []
    for span_name, counter in TRACED.items():
        mod_name, func_name = span_name.split(".")
        original = getattr(sys.modules[f"braidgate.{mod_name}"], func_name)

        def wrapper(*args, _orig=original, _name=span_name, _counter=counter, **kwargs):
            if tracer.item is None:
                return _orig(*args, **kwargs)
            counts = _counter(*args, **kwargs) if _counter else {}
            with tracer.span(_name, **counts):
                return _orig(*args, **kwargs)

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    undo.append((mod, attr, original))

    def restore():
        for mod, attr, original in undo:
            setattr(mod, attr, original)

    return restore


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-item calls, inclusive ms, self ms and share of item time for each
    span name, plus the work counts; names absent from the run read 0."""
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    items = [s for s in spans if s["name"] == "item"]
    n_items = max(len(items), 1)
    item_total = sum(s["end"] - s["start"] for s in items) or 1.0
    calls, total, self_t, count = (defaultdict(float) for _ in range(4))
    rep_calls = 0
    for s in spans:
        name, dur = s["name"], s["end"] - s["start"]
        calls[name] += 1
        total[name] += dur
        self_t[name] += dur - child_time[s["id"]]
        for key in ("states", "labelings", "outcomes"):
            if key in s:
                count[f"{name}.{key}"] += s[key]
        if name.startswith("rep."):
            rep_calls += 1
            count["rep.letters"] += s["letters"]
            count["rep.dim"] += s["dim"]
        if name.startswith("cli.verb."):
            count["cli.stdout_bytes"] += s["stdout_bytes"]
    out = {"item.ms": 1e3 * item_total / n_items}
    for span in SPANS:
        out[f"{span}.calls"] = calls[span] / n_items
        out[f"{span}.ms"] = 1e3 * total[span] / n_items
        out[f"{span}.self_ms"] = 1e3 * self_t[span] / n_items
        out[f"{span}.share"] = 100.0 * self_t[span] / item_total
    verbs = sum(calls[f"cli.verb.{v}"] for v in CLI_VERBS)
    for name, _ in COUNTS:
        if name == "rep.dim":
            out[name] = count[name] / rep_calls if rep_calls else 0.0
        elif name == "cli.stdout_bytes":
            out[name] = count[name] / verbs if verbs else 0.0
        else:
            out[name] = count[name] / n_items
    return out
