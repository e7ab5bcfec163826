"""Per-layer tracing for the traced run: timing wrappers around public
functions of the ``repro`` layers, installed from here and removed again.

Nothing in ``src/`` changes.  Each wrapper opens a span (name, start, end
on the system-wide monotonic clock, parent on the same thread) and folds
it into per-name aggregates as it closes, so memory stays flat however
many row sweeps a run makes.  Spans of the service's choreography
(submit, dispatch, a worker's entry and exit) are also kept whole as
*events*, because their metrics pair records across processes.

Worker processes are forked from the traced service, so they inherit the
wrappers; an ``os.register_at_fork`` hook empties the child's copy of the
parent's state, and the child appends what it recorded to a file in the
trace directory each time a job body (``execute_job``/``prepare_group``)
returns.

The wrap points are listed in :meth:`Tracer.install`.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import threading
import time
from collections import defaultdict

from common import median, quantile

#: Spans whose self time is computed within the pipeline tier: a stage's
#: self time is its wall minus nested pipeline-tier spans (none), the
#: pipeline's is CUDAlign.run minus its stages and manifest write.
PIPELINE_TIER = frozenset({f"core.stage{k}" for k in range(1, 7)}
                          | {"core.pipeline", "telemetry.manifest"})

#: Spans kept whole (cross-process pairing and percentiles).
EVENT_SPANS = frozenset({"gateway.submit", "service.dispatch",
                         "service.execute_job", "service.prepare_group"})

#: Named layers must cover at least this share of every alignment's
#: CUDAlign.run wall; the remainder is reported as core.pipeline.self_s.
ACCOUNTING_TOLERANCE = 0.05


class Tracer:
    """Span aggregation for one process (and, via files, its children)."""

    def __init__(self, trace_dir: str | None = None):
        self.trace_dir = trace_dir
        self._pid = os.getpid()
        self._patches: list[tuple[object, str, object, object]] = []
        self._reset()
        os.register_at_fork(after_in_child=self._after_fork)

    def _reset(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.agg: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self.events: list[dict] = []
        self.alignments: list[dict] = []

    def _after_fork(self) -> None:
        self._reset()

    # ------------------------------------------------------------- spans
    def _frames(self) -> list:
        frames = getattr(self._local, "frames", None)
        if frames is None:
            frames = self._local.frames = []
        return frames

    def call(self, name, fn, args, kwargs, on_result):
        frames = self._frames()
        frame = {"name": name, "start": time.monotonic(), "children": 0.0,
                 "tier_children": 0.0, "stages": defaultdict(float),
                 "attrs": {}}
        nested = any(f["name"] == name for f in frames)
        frames.append(frame)
        try:
            result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(frame, args, kwargs, result)
            return result
        finally:
            end = time.monotonic()
            frames.pop()
            self._close(frame, end, frames[-1] if frames else None, nested)

    def _close(self, frame, end, parent, nested) -> None:
        name = frame["name"]
        dur = end - frame["start"]
        tier = name in PIPELINE_TIER
        if parent is not None:
            parent["children"] += dur
            if tier:
                parent["tier_children"] += dur
                parent["stages"][name] += dur
        self_s = dur - (frame["tier_children"] if tier
                        else frame["children"])
        with self._lock:
            agg = self.agg[name]
            if not nested:
                agg["calls"] += 1
                agg["s"] += dur
            agg["self_s"] += self_s
            for key, value in frame["attrs"].items():
                if isinstance(value, (int, float)):
                    agg[key] += value
            if name in EVENT_SPANS:
                self.events.append({"name": name, "start": frame["start"],
                                    "end": end, "pid": os.getpid(),
                                    **frame["attrs"]})
            if name == "core.pipeline":
                self.alignments.append({"wall": dur, "self": self_s,
                                        "stages": dict(frame["stages"])})

    # ------------------------------------------------------------ wrapping
    def _wrap(self, owner, attr, name, on_result=None, flush=False) -> None:
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = name(args) if callable(name) else name
            try:
                return tracer.call(span, original, args, kwargs, on_result)
            finally:
                if flush:
                    tracer.flush_child()

        self._patches.append((owner, attr, original, wrapper))

    def install(self) -> "Tracer":
        """Register every wrap point (patched in by :meth:`patch`)."""
        import repro.align.batched as batched
        import repro.core.pipeline as pipeline
        import repro.core.stage1 as stage1
        import repro.core.stage4 as stage4
        import repro.core.stage5 as stage5
        import repro.sequences as sequences
        import repro.sequences.fasta as fasta
        import repro.service.job as job
        import repro.service.worker as worker
        from repro.align.rowscan import RowSweeper
        from repro.gateway.dispatcher import ServiceDispatcher
        from repro.integrity import codec
        from repro.service.cache import ResultCache
        from repro.service.service import AlignmentService
        from repro.storage.sra import SpecialLineStore

        def attrs(**getters):
            def on_result(frame, args, kwargs, result):
                for key, get in getters.items():
                    frame["attrs"][key] = get(args, result)
            return on_result

        def sweep_name(args):
            kind = type(args[0])
            return ("align.rowscan" if kind is RowSweeper
                    else f"align.sweep.{kind.__name__}")

        for k in range(1, 7):
            self._wrap(pipeline, f"run_stage{k}", f"core.stage{k}")
        self._wrap(pipeline.CUDAlign, "run", "core.pipeline",
                   attrs(cells=lambda a, r: r.m * r.n))
        self._wrap(pipeline, "write_manifest", "telemetry.manifest",
                   attrs(bytes=lambda a, r: os.path.getsize(r)))
        self._wrap(RowSweeper, "advance", sweep_name,
                   attrs(cells=lambda a, r: r * a[0].n))
        self._wrap(batched, "sweep_batched", "align.batched",
                   attrs(lanes=lambda a, r: len(a[0])))
        self._wrap(stage4, "find_midpoint", "align.myers_miller")
        self._wrap(stage5, "global_align", "align.full_matrix")
        self._wrap(SpecialLineStore, "save", "storage.sra.save",
                   attrs(bytes=lambda a, r: a[2].nbytes))
        self._wrap(SpecialLineStore, "load", "storage.sra.load",
                   attrs(bytes=lambda a, r: r.nbytes))
        self._wrap(stage1, "save_checkpoint", "core.checkpoint",
                   attrs(bytes=lambda a, r: os.path.getsize(a[0])))
        self._wrap(codec, "write_artifact", "integrity.write_artifact",
                   attrs(bytes=lambda a, r: len(a[1])))
        self._wrap(codec, "append_journal_record", "integrity.journal_append")
        for module in (fasta, sequences, job):
            self._wrap(module, "read_fasta", "sequences.load")
        self._wrap(job.JobSpec, "load_sequences", "sequences.load")
        self._wrap(ServiceDispatcher, "submit", "gateway.submit",
                   attrs(job_id=lambda a, r: a[1].job_id))
        self._wrap(worker.WorkerPool, "dispatch", "service.dispatch",
                   attrs(jobs=lambda a, r: [a[1].job_id],
                         grouped=lambda a, r: False))
        self._wrap(worker.WorkerPool, "dispatch_group", "service.dispatch",
                   attrs(jobs=lambda a, r: [x.job_id for x in a[1]],
                         grouped=lambda a, r: True))
        self._wrap(worker, "execute_job", "service.execute_job",
                   attrs(job_id=lambda a, r: a[0].job_id), flush=True)
        self._wrap(worker, "prepare_group", "service.prepare_group",
                   attrs(jobs=lambda a, r: [s.job_id for s in a[0]]),
                   flush=True)
        self._wrap(ResultCache, "get", "service.cache.get",
                   attrs(hits=lambda a, r: int(r is not None)))
        self._wrap(AlignmentService, "step", "service.step")
        return self

    def patch(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def unpatch(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # ------------------------------------------------------------- export
    def snapshot(self) -> dict:
        with self._lock:
            return {"pid": os.getpid(),
                    "agg": {k: dict(v) for k, v in self.agg.items()},
                    "events": list(self.events),
                    "alignments": list(self.alignments)}

    def flush(self, tag: str) -> None:
        """Append this process's records to the trace directory."""
        if self.trace_dir is None:
            return
        record = self.snapshot()
        self._reset()
        path = os.path.join(self.trace_dir, f"{tag}-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")

    def flush_child(self) -> None:
        """In a forked worker, hand the finished job body's records over
        once no span is open on this thread any more."""
        if os.getpid() != self._pid and not self._frames():
            self.flush("child")


def load_records(trace_dir: str) -> list[dict]:
    records = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "*.jsonl"))):
        with open(path, encoding="utf-8") as handle:
            records.extend(json.loads(line) for line in handle
                           if line.strip())
    return records


def merge(records: list[dict]) -> dict:
    agg: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    events, alignments = [], []
    for record in records:
        for name, values in record["agg"].items():
            for key, value in values.items():
                agg[name][key] += value
        events.extend(record["events"])
        alignments.extend(record["alignments"])
    return {"agg": agg, "events": events, "alignments": alignments}


def layer_metrics(merged: dict, client: dict | None = None
                  ) -> tuple[dict, dict]:
    """The per-layer metrics (name -> (value, unit)) and a detail dict of
    sample counts and accounting checks."""
    agg, events = merged["agg"], merged["events"]
    out: dict[str, tuple[float, str]] = {}
    detail: dict = {}

    def get(name, key):
        return float(agg[name][key]) if name in agg else 0.0

    def put(name, value, unit, samples=None):
        out[name] = (float(value), unit)
        if samples is not None:
            detail.setdefault("samples", {})[name] = samples

    walls = [a["wall"] for a in merged["alignments"]]
    wall = sum(walls)
    for k in range(1, 7):
        put(f"core.stage{k}.self_s", get(f"core.stage{k}", "self_s"), "s")
    put("core.pipeline.self_s", get("core.pipeline", "self_s"), "s")
    stage1 = get("core.stage1", "self_s")
    stages2_5 = sum(get(f"core.stage{k}", "self_s") for k in range(2, 6))
    put("core.stage1.wall_share", stage1 / wall if wall else 0.0, "ratio")
    put("core.stage2_5.wall_share", stages2_5 / wall if wall else 0.0,
        "ratio")
    residuals = []
    for a in merged["alignments"]:
        covered = sum(a["stages"].values())
        residuals.append((a["wall"] - covered) / a["wall"])
        # Self times of the pipeline tier add up to the wall exactly
        # unless spans overlap; a mismatch means the trace is unsound.
        if abs(covered + a["self"] - a["wall"]) > 1e-6 * max(1.0, a["wall"]):
            detail.setdefault("accounting_errors", []).append(a)
    put("core.accounting.max_residual_share",
        max(residuals) if residuals else 0.0, "ratio", len(residuals))
    detail["accounting"] = {
        "alignments": len(residuals),
        "tolerance": ACCOUNTING_TOLERANCE,
        "within_tolerance": all(r <= ACCOUNTING_TOLERANCE
                                for r in residuals),
    }

    calls = get("align.rowscan", "calls")
    cells = get("align.rowscan", "cells")
    put("align.rowscan.calls", calls, "count")
    put("align.rowscan.cells", cells, "cells")
    put("align.rowscan.s", get("align.rowscan", "s"), "s")
    put("align.rowscan.cells_per_call", cells / calls if calls else 0.0,
        "cells/call")
    put("align.batched.calls", get("align.batched", "calls"), "count")
    put("align.batched.lanes", get("align.batched", "lanes"), "count")
    put("align.batched.s", get("align.batched", "s"), "s")
    for layer in ("myers_miller", "full_matrix"):
        put(f"align.{layer}.calls", get(f"align.{layer}", "calls"), "count")
        put(f"align.{layer}.s", get(f"align.{layer}", "s"), "s")
    for name in ("storage.sra.save", "storage.sra.load", "core.checkpoint",
                 "integrity.write_artifact", "telemetry.manifest"):
        put(f"{name}.calls", get(name, "calls"), "count")
        put(f"{name}.bytes", get(name, "bytes"), "B")
        put(f"{name}.s", get(name, "s"), "s")
    for name in ("integrity.journal_append", "sequences.load",
                 "service.step"):
        put(f"{name}.calls", get(name, "calls"), "count")
        put(f"{name}.s", get(name, "s"), "s")
    detail["other_sweepers"] = {
        name: dict(values) for name, values in agg.items()
        if name.startswith("align.sweep.")}

    _service_metrics(events, agg, put, client)
    return out, detail


def _service_metrics(events, agg, put, client) -> None:
    accepted = {e["job_id"]: e["end"] for e in events
                if e["name"] == "gateway.submit"}
    dispatches = sorted((e for e in events if e["name"] == "service.dispatch"),
                        key=lambda e: e["start"])
    entries = [e for e in events if e["name"] in ("service.execute_job",
                                                  "service.prepare_group")]
    executes = [e for e in events if e["name"] == "service.execute_job"]

    waits, first_dispatch = [], {}
    for e in dispatches:
        for job_id in e["jobs"]:
            if job_id not in first_dispatch:
                first_dispatch[job_id] = e["start"]
                if job_id in accepted:
                    waits.append(e["start"] - accepted[job_id])
    put("service.queue_wait_s.p50", median(waits), "s", len(waits))
    put("service.queue_wait_s.p90", quantile(waits, 0.9), "s", len(waits))

    # A dispatch's child enters execute_job (solo) or prepare_group (group)
    # with the same job ids; pair each dispatch with the first such entry
    # after it.
    spawns = []
    for e in dispatches:
        key = tuple(e["jobs"])
        want = "service.prepare_group" if e["grouped"] else \
            "service.execute_job"
        later = [c["start"] for c in entries if c["name"] == want
                 and c["start"] >= e["start"]
                 and tuple(c.get("jobs") or [c.get("job_id")]) == key]
        if later:
            spawns.append(min(later) - e["start"])
    put("service.spawn_s.p50", median(spawns), "s", len(spawns))

    durations = [e["end"] - e["start"] for e in executes]
    put("service.execute_job.calls", len(executes), "count")
    put("service.execute_job.s.p50", median(durations), "s", len(durations))
    sent = sum(len(e["jobs"]) for e in dispatches)
    grouped = sum(len(e["jobs"]) for e in dispatches if e["grouped"])
    put("service.grouped_share", grouped / sent if sent else 0.0, "ratio")
    put("service.attempts_per_job",
        sent / len(first_dispatch) if first_dispatch else 0.0, "ratio")
    lookups = agg["service.cache.get"]["calls"] \
        if "service.cache.get" in agg else 0.0
    hits = agg["service.cache.get"]["hits"] \
        if "service.cache.get" in agg else 0.0
    put("service.cache.lookups", lookups, "count")
    put("service.cache.hits", hits, "count")

    client = client or {}
    posts = client.get("post_s", [])
    results = client.get("result_s", [])
    finished_at = client.get("finished_at", {})
    lags = [finished_at[e["job_id"]] - e["end"] for e in executes
            if e["job_id"] in finished_at]
    put("gateway.post.s.p50", median(posts), "s", len(posts))
    put("gateway.post.s.p90", quantile(posts, 0.9), "s", len(posts))
    put("gateway.result.s.p50", median(results), "s", len(results))
    put("gateway.event_lag_s.p50", median(lags), "s", len(lags))
    put("gateway.refused", client.get("refused", 0), "count")
