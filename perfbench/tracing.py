"""In-memory span tracer for the benchmark's traced run.

The tracer replaces library functions at the names their callers look
up (``splitdecode.protocol.private_partial``, not the defining module's
name) with wrappers that record one span per call: a name, a start, an
end, the enclosing span on the same thread, and the request or round id
the session runner has set. Nothing under ``src/`` changes; ``installed()``
restores every original on exit.

A target that a later refactor removes is listed in ``missing`` and
skipped, so the metrics that depend on it read 0 instead of crashing.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import itertools
import json
import statistics
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int  # -1 at the top of a thread's stack
    ctx: str | None  # "req:<user>" or "round:<step>"

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One name to wrap: ``module`` + dotted ``path`` inside it.

    kind "span" records a span per call; kind "count" only counts calls,
    under ``name`` plus ".<ancestor>" when a span named ``under`` encloses
    the call on the same thread. ``measure(bound_args, result)`` returns
    extra numbers kept with the span.
    """

    module: str
    path: str
    name: str
    kind: str = "span"
    under: str | None = None
    measure: object = None

    @property
    def qualname(self) -> str:
        return f"{self.module}.{self.path}"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.values: dict[int, dict] = {}
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.measure_errors: list[str] = []
        self.context: str | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap_span(self, target: Target, fn):
        tracer = self
        signature = inspect.signature(fn) if target.measure else None

        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1][0] if stack else -1
            ctx = tracer.context
            stack.append((sid, target.name))
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append((sid, target.name, start, end, parent, ctx))
            if signature is not None:
                tracer._measure(sid, target, signature, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _measure(self, sid, target, signature, args, kwargs, result):
        try:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self.values[sid] = target.measure(bound.arguments, result)
        except Exception as exc:  # a refactored signature must not stop the run
            note = f"{target.qualname}: {type(exc).__name__}: {exc}"
            if note not in self.measure_errors:
                self.measure_errors.append(note)

    def span(self, name: str, fn):
        """Wrap one of the benchmark's own functions, so its time is kept
        out of the self time of the library span that encloses it."""
        return self._wrap_span(Target(module="", path=name, name=name), fn)

    def _wrap_count(self, target: Target, fn):
        tracer = self

        def counted(*args, **kwargs):
            key = target.name
            if target.under and any(n == target.under for _, n in tracer._stack()):
                key = f"{target.name}.{target.under}"
            tracer.counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self, targets):
        for target in targets:
            owner, attr = _resolve(target)
            if owner is None:
                self.missing.append(target.qualname)
                continue
            original = getattr(owner, attr)
            wrap = self._wrap_span if target.kind == "span" else self._wrap_count
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrap(target, original))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self, targets):
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()

    def finished(self) -> list[Span]:
        return sorted((Span(*s) for s in self.spans), key=lambda s: s.sid)

    def dump(self, path, meta: dict):
        """Write every span as JSON; names and contexts are indices into
        the "names" and "contexts" tables, times are ns from the first span."""
        spans = sorted(self.spans)
        names = sorted({s[1] for s in spans})
        contexts = sorted({s[5] for s in spans if s[5] is not None})
        name_ix = {n: i for i, n in enumerate(names)}
        ctx_ix = {c: i for i, c in enumerate(contexts)}
        t0 = min((s[2] for s in spans), default=0)
        doc = dict(meta)
        doc["missing"] = self.missing
        doc["measure_errors"] = self.measure_errors
        doc["counts"] = dict(self.counts)
        doc["names"] = names
        doc["contexts"] = contexts
        doc["span_fields"] = ["id", "name", "start_ns", "end_ns", "parent", "ctx"]
        doc["spans"] = [
            [sid, name_ix[name], start - t0, end - t0, parent, ctx_ix.get(ctx, -1)]
            for sid, name, start, end, parent, ctx in spans
        ]
        doc["values"] = {str(k): v for k, v in sorted(self.values.items())}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _resolve(target: Target):
    """(object holding the attribute, attribute name), or (None, None)."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None, None
    *parents, attr = target.path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if not callable(getattr(owner, attr, None)):
        return None, None
    return owner, attr


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the part of it that child spans cover.

    Children are clipped to the parent's interval and overlapping
    children are merged, so covered time is never counted twice.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0
        cursor = s.start
        for start, end in sorted(children.get(s.sid, ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out[s.sid] = s.duration - covered
    return out


# -- what the traced run wraps ------------------------------------------


def _prefill_tokens(args, result) -> dict:
    return {"tokens": len(args["tokens"])}


def _virtual_prompts(args, result) -> dict:
    prompts = [tuple(p) for p in result.prompts]
    shared = 0
    for column in zip(*prompts):
        if len(set(column)) != 1:
            break
        shared += 1
    return {"prompts": len(prompts), "shared_prefix": shared, "length": len(prompts[0])}


def _padded_kv_bytes(args, result) -> dict:
    parts, layer, head = args["parts"], args["layer"], args["head"]
    rows = max(p.k[layer][head].shape[0] for p in parts)
    head_dim = args["qs"].shape[-1]
    # K_pad and V_pad: batch x rows x head_dim float64 each
    return {"bytes": 2 * len(parts) * rows * head_dim * 8}


PROTOCOL = "splitdecode.protocol"
MODEL = "splitdecode.model"

TARGETS = (
    Target(PROTOCOL, "user_prefill", "protocol.user_prefill"),
    Target(PROTOCOL, "model_batch_step", "protocol.model_batch_step"),
    Target(PROTOCOL, "controller_gate", "protocol.controller_gate"),
    Target(PROTOCOL, "UserParty.handle_frame", "protocol.user_handler"),
    Target(PROTOCOL, "SocketLink.recv", "protocol.link_recv"),
    Target(PROTOCOL, "prefill", "model.prefill", measure=_prefill_tokens),
    Target(MODEL, "prefill", "model.prefill", measure=_prefill_tokens),
    Target(MODEL, "decode_step_monolithic", "model.decode_step"),
    Target(MODEL, "stable_softmax_stats", "numerics.softmax", kind="count", under="model.prefill"),
    Target(PROTOCOL, "multi_segment_gqs", "obfuscation.decoys"),
    Target(PROTOCOL, "build_virtual_prompts", "obfuscation.virtual_prompts", measure=_virtual_prompts),
    Target(PROTOCOL, "private_partial", "partition.private"),
    Target(PROTOCOL, "batched_public_partials", "partition.public", measure=_padded_kv_bytes),
    Target(PROTOCOL, "serialize", "wire.serialize"),
    Target(PROTOCOL, "deserialize", "wire.deserialize"),
    Target(PROTOCOL, "parse_header", "wire.parse_header"),
)

CODEC_SPANS = ("wire.serialize", "wire.deserialize", "wire.parse_header")

# name -> unit; the order is the print order
LAYER_UNITS = {
    "model.prefill_ms": "ms",
    "model.prefill_tokens": "count",
    "model.decode_step_ms": "ms",
    "model.weight_copies": "count",
    "numerics.softmax_calls_per_prefill_token": "1/token",
    "obfuscation.decoy_ms": "ms",
    "obfuscation.virtual_prompts": "count",
    "obfuscation.shared_prefix_ratio": "1",
    "partition.private_calls_per_round": "count",
    "partition.private_ms_per_round": "ms",
    "partition.public_calls_per_round": "count",
    "partition.public_ms_per_round": "ms",
    "partition.public_bytes_moved_per_round": "B",
    "wire.frames_per_round": "count",
    "wire.codec_ms_per_round": "ms",
    "wire.bytes_per_round": "B",
    "wire.payload_ratio": "1",
    "protocol.round_ms": "ms",
    "protocol.model_self_ms_per_round": "ms",
    "protocol.user_handler_ms_per_round": "ms",
    "protocol.link_wait_ms_per_round": "ms",
    "protocol.user_prefill_self_ms": "ms",
    "protocol.gate_ms_per_round": "ms",
    "protocol.gate_decisions": "count",
    "protocol.gate_pass_ratio": "1",
    "protocol.streams_killed": "count",
    "protocol.streams_per_round": "count",
    "trace.overhead_ratio": "1",
}


@dataclass(frozen=True)
class TracedSession:
    """What the session runner knows about the traced session, besides spans."""

    requests: int
    round_s: list  # wall time of each decode round
    streams_per_round: list
    frames: int  # link frames during decode rounds, both directions
    frame_bytes: int
    payload_bytes: int
    gate_decisions: int
    gate_passed: int
    streams_killed: int
    weight_copies: int
    overhead_ratio: float


def layer_metrics(tracer: Tracer, info: TracedSession) -> dict[str, float]:
    """Per-layer numbers of one traced session; a layer the workload
    does not run (or whose hook is missing) reads 0."""
    spans = tracer.finished()
    own = self_times(spans)
    rounds = max(len(info.round_s), 1)
    ms = 1e-6

    def in_rounds(names, self_only=False) -> tuple[int, float]:
        calls, total = 0, 0
        for s in spans:
            if s.name in names and s.ctx and s.ctx.startswith("round:"):
                calls += 1
                total += own[s.sid] if self_only else s.duration
        return calls, total

    def per_request(names, value) -> float:
        totals = Counter({f"req:{r}": 0 for r in range(info.requests)})
        for s in spans:
            if s.name in names and s.ctx in totals:
                totals[s.ctx] += value(s)
        return statistics.median(totals.values()) if totals else 0.0

    def extra(key):
        return lambda s: tracer.values.get(s.sid, {}).get(key, 0)

    prefill_tokens = sum(extra("tokens")(s) for s in spans if s.name == "model.prefill")
    vps = [
        tracer.values[s.sid]
        for s in spans
        if s.name == "obfuscation.virtual_prompts" and s.sid in tracer.values
    ]
    decode_steps = [s.duration * ms for s in spans if s.name == "model.decode_step"]
    private_calls, private_ns = in_rounds({"partition.private"})
    public_calls, public_ns = in_rounds({"partition.public"})
    public_bytes = sum(extra("bytes")(s) for s in spans if s.name == "partition.public")
    softmax_in_prefill = tracer.counts.get("numerics.softmax.model.prefill", 0)

    return {
        "model.prefill_ms": per_request({"model.prefill"}, lambda s: s.duration) * ms,
        "model.prefill_tokens": per_request({"model.prefill"}, extra("tokens")),
        "model.decode_step_ms": statistics.median(decode_steps) if decode_steps else 0.0,
        "model.weight_copies": info.weight_copies,
        "numerics.softmax_calls_per_prefill_token": (
            softmax_in_prefill / prefill_tokens if prefill_tokens else 0.0
        ),
        "obfuscation.decoy_ms": per_request(
            {"obfuscation.decoys", "obfuscation.virtual_prompts"}, lambda s: s.duration
        ) * ms,
        "obfuscation.virtual_prompts": (
            statistics.mean(v["prompts"] for v in vps) if vps else 0.0
        ),
        "obfuscation.shared_prefix_ratio": (
            statistics.mean(v["shared_prefix"] / v["length"] for v in vps) if vps else 0.0
        ),
        "partition.private_calls_per_round": private_calls / rounds,
        "partition.private_ms_per_round": private_ns * ms / rounds,
        "partition.public_calls_per_round": public_calls / rounds,
        "partition.public_ms_per_round": public_ns * ms / rounds,
        "partition.public_bytes_moved_per_round": public_bytes / rounds,
        "wire.frames_per_round": info.frames / rounds,
        "wire.codec_ms_per_round": in_rounds(set(CODEC_SPANS))[1] * ms / rounds,
        "wire.bytes_per_round": info.frame_bytes / rounds,
        "wire.payload_ratio": info.payload_bytes / info.frame_bytes if info.frame_bytes else 0.0,
        "protocol.round_ms": statistics.median(info.round_s) * 1e3 if info.round_s else 0.0,
        "protocol.model_self_ms_per_round": (
            in_rounds({"protocol.model_batch_step"}, self_only=True)[1] * ms / rounds
        ),
        "protocol.user_handler_ms_per_round": (
            in_rounds({"protocol.user_handler"}, self_only=True)[1] * ms / rounds
        ),
        "protocol.link_wait_ms_per_round": (
            in_rounds({"protocol.link_recv"}, self_only=True)[1] * ms / rounds
        ),
        "protocol.user_prefill_self_ms": per_request(
            {"protocol.user_prefill"}, lambda s: own[s.sid]
        ) * ms,
        "protocol.gate_ms_per_round": in_rounds({"protocol.controller_gate"})[1] * ms / rounds,
        "protocol.gate_decisions": info.gate_decisions,
        "protocol.gate_pass_ratio": (
            info.gate_passed / info.gate_decisions if info.gate_decisions else 0.0
        ),
        "protocol.streams_killed": info.streams_killed,
        "protocol.streams_per_round": (
            statistics.mean(info.streams_per_round) if info.streams_per_round else 0.0
        ),
        "trace.overhead_ratio": info.overhead_ratio,
    }
