"""In-memory spans and the benchmark-side wrappers that record them.

A traced phase records a span tree: the workload, one span per body seed,
one per workload instance on oracle-batch, and one per call into a casplit
layer: each `Simulation.run`, the channel precompute, the eta computation,
emission, config parsing and the oracle calls.  Per-slot calls (the
protocol-stack phases and controller `decide`/`observe`) are not spans:
each run span keeps their call count and summed time, so the trace stays
small and a span's self time is its duration minus its child spans and
its per-slot sums.  Nothing inside casplit is changed; every wrapper is
installed on the outside and removed again when the traced phase ends.
"""

from __future__ import annotations

import json
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from casplit import experiments, oracle, scenario, trace
from casplit.engine import Simulation
from casplit.experiments import ETA_POLICIES

STACK_CALLS = ("buffer_difference", "pdcp_ingest", "pdcp_dispatch", "xn_tick",
               "rlc_serve", "ue_receive", "rlc_occupancy", "xn_inflight")
CONTROLLER_CALLS = ("decide", "observe")
REF_MODES = ("pcc", "scc")


class Span:
    __slots__ = ("name", "parent", "start", "end", "attrs", "children", "per_slot")

    def __init__(self, name: str, parent: "Span | None", attrs: dict):
        self.name = name
        self.parent = parent
        self.attrs = attrs
        self.children: list[Span] = []
        self.per_slot: dict[str, list] = {}  # call name -> [calls, seconds]
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return (self.duration - sum(c.duration for c in self.children)
                - sum(s for _, s in self.per_slot.values()))

    def to_dict(self, origin: float) -> dict:
        out = {"name": self.name, "start_s": self.start - origin,
               "duration_s": self.duration, "self_s": self.self_s}
        if self.attrs:
            out["attrs"] = self.attrs
        if self.per_slot:
            out["per_slot"] = self.per_slot  # call -> [calls, seconds]
        if self.children:
            out["children"] = [c.to_dict(origin) for c in self.children]
        return out


class Tracer:
    """Span tree of one traced phase, kept in memory until `write`."""

    def __init__(self):
        self.roots: list[Span] = []
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1] if self._open else None
        span = Span(name, parent, attrs)
        (parent.children if parent else self.roots).append(span)
        self._open.append(span)
        span.start = perf_counter()
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._open.pop()

    def walk(self):
        todo = list(self.roots)
        while todo:
            span = todo.pop()
            yield span
            todo.extend(span.children)

    def write(self, path: Path) -> None:
        origin = self.roots[0].start if self.roots else 0.0
        payload = [s.to_dict(origin) for s in self.roots]
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8")


# -- wrappers ----------------------------------------------------------------


def _timed(fn, acc: list):
    def call(*args):
        t0 = perf_counter()
        out = fn(*args)
        acc[1] += perf_counter() - t0
        acc[0] += 1
        return out
    return call


def _traced_run(tracer: Tracer, run):
    """`Simulation.run` as a span, with its stack and controller calls summed."""
    def traced(sim):
        per_slot = {}
        for name in STACK_CALLS:
            per_slot[f"stack.{name}"] = acc = [0, 0.0]
            setattr(sim.stack, name, _timed(getattr(sim.stack, name), acc))
        if sim.controller is not None:
            for name in CONTROLLER_CALLS:
                per_slot[f"controller.{name}"] = acc = [0, 0.0]
                setattr(sim.controller, name, _timed(getattr(sim.controller, name), acc))
        with tracer.span("run", policy=sim.policy, mode=sim.mode) as span:
            result = run(sim)
        span.per_slot = per_slot
        # Packet counts come from the end state, so no per-slot cost is added.
        dispatched = sum(sim.stack.out_counts)
        span.attrs.update(
            slots=result.t_slots,
            dispatched=dispatched,
            dispatch_actions=int(((result.a_p != 0) | (result.a_s != 0)).sum()),
            served=dispatched - sum(result.final_rlc) - sum(result.final_inflight),
            delivered=result.total_delivered,
        )
        return result
    return traced


def _spanned(tracer: Tracer, name: str, fn, attrs=None):
    def call(*args, **kwargs):
        with tracer.span(name) as span:
            out = fn(*args, **kwargs)
        if attrs is not None:
            span.attrs.update(attrs(out, *args))
        return out
    return call


@contextmanager
def _patched(patches):
    """Install (owner, attribute, wrapper-factory) patches; undo them on exit."""
    saved = []
    try:
        for owner, attr, wrap in patches:
            orig = getattr(owner, attr)
            saved.append((owner, attr, orig))
            setattr(owner, attr, wrap(orig))
        yield
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def instrumented(tracer: Tracer):
    """Context manager that records spans around every layer call."""
    def layer(name, attrs=None):
        return lambda fn: _spanned(tracer, name, fn, attrs)

    caps = layer("scenario.build_caps", lambda out, *a: {"carrier_slots": int(out.size)})
    return _patched([
        (Simulation, "run", lambda fn: _traced_run(tracer, fn)),
        (experiments, "build_caps", caps),
        (scenario, "build_caps", caps),
        (experiments, "utilization_ratio", layer("metrics.utilization_ratio")),
        (experiments, "_emit", layer("experiments.emit")),
        (trace, "write_trace", layer("trace.write_trace", lambda out, path, result, *a: {
            "rows": result.t_slots, "bytes": Path(path).stat().st_size})),
        (trace, "write_summary", layer("trace.write_summary")),
        (scenario, "from_file", layer("scenario.from_file")),
        (oracle, "brute_force_min_T", layer("oracle.brute_force", lambda out, *a: {
            "states_explored": out.states_explored})),
        (oracle, "replay_witness", layer("oracle.replay_witness")),
    ])


@contextmanager
def run_alloc_peaks(peaks: list):
    """Append each `Simulation.run`'s tracemalloc peak (bytes) to ``peaks``."""
    def wrap(run):
        def measured(sim):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = run(sim)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
            return result
        return measured

    tracemalloc.start()
    try:
        with _patched([(Simulation, "run", wrap)]):
            yield
    finally:
        tracemalloc.stop()


# -- per-layer metrics -------------------------------------------------------

# (name, unit, better); every traced run reports all of them, 0 where the
# workload never calls the layer.
LAYER_METRICS = (
    [("scenario.build_caps.s", "s", "lower"),
     ("scenario.build_caps.calls", "count", "lower"),
     ("scenario.build_caps.ns_per_carrier_slot", "ns", "lower"),
     ("engine.run.ref.s", "s", "lower"),
     ("engine.run.ref.slots", "count", "lower"),
     ("engine.run.ref.share", "ratio", "lower")]
    + [(f"engine.run.{p}.{m}", u, "lower") for p in ETA_POLICIES
       for m, u in (("us_per_slot", "us"), ("slots", "count"))]
    + [("engine.run.self_us_per_slot", "us", "lower"),
       ("engine.run.accounted_ratio", "ratio", "lower"),
       ("engine.run.peak_alloc_mb", "MB", "lower")]
    + [(f"stack.{c}.us_per_slot", "us", "lower") for c in STACK_CALLS]
    + [("stack.dispatched", "count", "higher"),
       ("stack.served", "count", "higher"),
       ("stack.delivered", "count", "higher"),
       ("stack.dispatch_useful_ratio", "ratio", "higher")]
    + [(f"controller.{p}.{m}", u, "lower") for p in ETA_POLICIES
       for m, u in (("decide_us", "us"), ("observe_us", "us"), ("calls", "count"))]
    + [("metrics.utilization_ratio.s", "s", "lower"),
       ("scenario.from_file.s", "s", "lower"),
       ("trace.write_trace.s", "s", "lower"),
       ("trace.write_trace.rows", "count", "lower"),
       ("trace.write_trace.bytes", "bytes", "lower"),
       ("trace.write_summary.s", "s", "lower"),
       ("experiments.emit.s", "s", "lower"),
       ("oracle.brute_force.s", "s", "lower"),
       ("oracle.brute_force.states_explored", "count", "lower"),
       ("oracle.brute_force.states_per_s", "1/s", "higher"),
       ("oracle.replay_witness.s", "s", "lower"),
       ("oracle.fuzzy_run.s", "s", "lower"),
       ("trace_overhead", "ratio", "lower")]
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, untraced_body_s: float, untraced_run_s: float,
                  alloc_peaks: list[int]) -> dict[str, float]:
    """Per-layer numbers of one traced phase.

    Times named ``.s`` and counts are per body; ``us_per_slot`` divides by
    the slots of the runs concerned.  ``untraced_*`` are the same bodies'
    wall time and summed run time measured with tracing off.
    """
    named: dict[str, list[Span]] = {}
    for span in tracer.walk():
        named.setdefault(span.name, []).append(span)
    bodies = named.get("seed", [])
    n = len(bodies)

    def total(name, key=None):
        return sum(s.attrs[key] if key else s.duration for s in named.get(name, []))

    runs = named.get("run", [])
    all_slots = sum(r.attrs["slots"] for r in runs)
    body_s = sum(b.duration for b in bodies)
    refs = [r for r in runs if r.attrs["mode"] in REF_MODES]
    ref_s = sum(r.duration for r in refs)
    out = {
        "scenario.build_caps.s": _ratio(total("scenario.build_caps"), n),
        "scenario.build_caps.calls": _ratio(len(named.get("scenario.build_caps", [])), n),
        "scenario.build_caps.ns_per_carrier_slot": 1e9 * _ratio(
            total("scenario.build_caps"), total("scenario.build_caps", "carrier_slots")),
        "engine.run.ref.s": _ratio(ref_s, n),
        "engine.run.ref.slots": _ratio(sum(r.attrs["slots"] for r in refs), n),
        "engine.run.ref.share": _ratio(ref_s, body_s),
    }
    for p in ETA_POLICIES:
        mine = [r for r in runs if r.attrs["policy"] == p]
        slots = sum(r.attrs["slots"] for r in mine)
        out[f"engine.run.{p}.us_per_slot"] = 1e6 * _ratio(sum(r.duration for r in mine), slots)
        out[f"engine.run.{p}.slots"] = _ratio(slots, n)
        calls = {c: [0, 0.0] for c in CONTROLLER_CALLS}
        for r in mine:
            for c in CONTROLLER_CALLS:
                k, s = r.per_slot.get(f"controller.{c}", (0, 0.0))
                calls[c][0] += k
                calls[c][1] += s
        out[f"controller.{p}.decide_us"] = 1e6 * _ratio(calls["decide"][1], calls["decide"][0])
        out[f"controller.{p}.observe_us"] = 1e6 * _ratio(calls["observe"][1], calls["observe"][0])
        out[f"controller.{p}.calls"] = _ratio(calls["decide"][0], n)
    run_s = sum(r.duration for r in runs)
    out["engine.run.self_us_per_slot"] = 1e6 * _ratio(sum(r.self_s for r in runs), all_slots)
    overhead = _ratio(body_s, untraced_body_s)
    # Run self time plus the layer spans and sums inside runs, scaled back by
    # the trace overhead, against the untraced run time: 1.0 when the
    # per-layer split accounts for the whole untraced loop.
    out["engine.run.accounted_ratio"] = _ratio(run_s, overhead * untraced_run_s)
    out["engine.run.peak_alloc_mb"] = max(alloc_peaks, default=0) / 2**20
    for c in STACK_CALLS:
        out[f"stack.{c}.us_per_slot"] = 1e6 * _ratio(
            sum(r.per_slot[f"stack.{c}"][1] for r in runs), all_slots)
    dispatched = sum(r.attrs["dispatched"] for r in runs)
    out["stack.dispatched"] = _ratio(dispatched, n)
    out["stack.served"] = _ratio(sum(r.attrs["served"] for r in runs), n)
    out["stack.delivered"] = _ratio(sum(r.attrs["delivered"] for r in runs), n)
    out["stack.dispatch_useful_ratio"] = _ratio(
        dispatched, sum(r.attrs["dispatch_actions"] for r in runs))
    fuzzy_in_instances = [r for r in runs if r.attrs["policy"] == "fuzzy_pid"
                          and r.parent is not None and r.parent.name == "instance"]
    explored = total("oracle.brute_force", "states_explored")
    out.update({
        "metrics.utilization_ratio.s": _ratio(total("metrics.utilization_ratio"), n),
        "scenario.from_file.s": _ratio(total("scenario.from_file"), n),
        "trace.write_trace.s": _ratio(total("trace.write_trace"), n),
        "trace.write_trace.rows": _ratio(total("trace.write_trace", "rows"), n),
        "trace.write_trace.bytes": _ratio(total("trace.write_trace", "bytes"), n),
        "trace.write_summary.s": _ratio(total("trace.write_summary"), n),
        "experiments.emit.s": _ratio(total("experiments.emit"), n),
        "oracle.brute_force.s": _ratio(total("oracle.brute_force"), n),
        "oracle.brute_force.states_explored": _ratio(explored, n),
        "oracle.brute_force.states_per_s": _ratio(explored, total("oracle.brute_force")),
        "oracle.replay_witness.s": _ratio(total("oracle.replay_witness"), n),
        "oracle.fuzzy_run.s": _ratio(sum(r.duration for r in fuzzy_in_instances), n),
        "trace_overhead": overhead,
    })
    return out
