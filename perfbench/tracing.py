"""Timing wrappers around the program's public functions.

The benchmark patches each function where its caller looks it up (a class
attribute, or the module global the caller reads), records one span per
call and restores the originals afterwards. Spans live in flat arrays in
memory: name, start, end, parent span and run id. They are written out once
the benchmark ends. Counters are taken at the same boundaries, from the
arguments and results the wrapped call already has.

The untraced run installs only the three stage spans, which the end-to-end
``stage_s.*`` metrics need; the traced run installs every span below.
"""

from __future__ import annotations

import functools
import gzip
import json
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

from pentestflow import cli, execution, gateway, knowledge, pipeline, planning, rag
from pentestflow import recon, report, sandbox, search, versions

STAGE_SPANS = {
    "stage_s.recon": "pipeline.stage.recon",
    "stage_s.analysis": "pipeline.stage.analysis",
    "stage_s.exploit": "pipeline.stage.exploit",
}
LAYERS = (
    "cli",
    "pipeline",
    "gateway",
    "rag",
    "sandbox",
    "versions",
    "knowledge",
    "recon",
    "search",
    "planning",
    "execution",
    "report",
)


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


# -- observers: (tracer, args, kwargs, result, error, before) -> None ----------


def _evicted(t, args, kwargs, result, error, before):
    if error is None:
        t.counts["gateway.evicted_turns"] += (before + 2 - len(args[0].history)) // 2


def _structured(t, args, kwargs, result, error, before):
    if error is None and result.schema_id in ("surface_rank", "exploit_rank") and not result.valid:
        t.counts["planning.fallbacks"] += 1


def _prompt_chars(t, args, kwargs, result, error, before):
    request = _arg(args, kwargs, 1, "request")
    t.counts["gateway.prompt_chars"] += (
        len(request.system_message)
        + sum(len(content) for _, content in request.history)
        + len(request.prompt)
    )


def _indexed(t, args, kwargs, result, error, before):
    if error is None:
        t.counts["rag.index.chunks"] += result


def _embedded(t, args, kwargs, result, error, before):
    t.counts["rag.embed.texts"] += len(_arg(args, kwargs, 1, "texts"))


def _retrieved(t, args, kwargs, result, error, before):
    # every chunk of the corpus is scored; the manifest holds their number
    manifest = args[0].root / _arg(args, kwargs, 1, "corpus_id") / rag.MANIFEST_NAME
    if error is None and manifest.is_file():
        doc = json.loads(manifest.read_text(encoding="utf-8"))
        t.counts["rag.retrieve.chunks_scanned"] += int(doc["chunk_count"])


def _synthesized(t, args, kwargs, result, error, before):
    if error is None and result.context_empty:
        t.counts["rag.synthesize.context_empty"] += 1


def _sandboxed(t, args, kwargs, result, error, before):
    if isinstance(error, (sandbox.ScopeViolation, sandbox.GuardRejection)):
        t.counts["sandbox.refused"] += 1
    elif error is None:
        t.counts["sandbox.truncated"] += int(result.truncated)
        t.counts["sandbox.output_bytes"] += len(result.stdout.encode("utf-8")) + len(
            result.stderr.encode("utf-8")
        )


def _loaded(t, args, kwargs, result, error, before):
    if error is None:
        t.counts["knowledge.load.nodes"] += result.node_count()


def _saved(t, args, kwargs, result, error, before):
    if error is None:
        tree = args[0]
        apps = tree.applications()
        t.counts["knowledge.save.files"] += len(apps) + sum(
            len(tree.vulnerabilities(app)) for app in apps
        )


def _upserted(t, args, kwargs, result, error, before):
    # load rebuilds the tree through upsert; only count new knowledge
    if t.current() != "knowledge.load":
        t.counts["knowledge.upserts"] += 1


def _acquired(t, args, kwargs, result, error, before):
    if error is None:
        t.counts["search.nodes"] += result


def _surface_docs(t, args, kwargs, result, error, before):
    t.counts["search.docs"] += len(_arg(args, kwargs, 3, "docs"))


def _exploit_docs(t, args, kwargs, result, error, before):
    t.counts["search.docs"] += len(_arg(args, kwargs, 2, "docs"))


def _suggested(t, args, kwargs, result, error, before):
    if error is None:
        t.counts["planning.candidates"] += len(result)


def _prepared(t, args, kwargs, result, error, before):
    if error is None:
        t.counts["execution.params"] += len(result)


def _looped(t, args, kwargs, result, error, before):
    if error is None:
        t.counts["execution.loop_steps"] += result.steps_taken
        t.counts["execution.verified"] += int(result.status is execution.OutcomeStatus.SUCCESS)
        t.counts["execution.repeated_error_aborts"] += int(
            result.status is execution.OutcomeStatus.ABORTED_REPEATED_ERROR
        )


def _history_len(args, kwargs):
    return len(args[0].history)


# (owner, attribute, span name or None for count-only, observer, before)
STAGE_PATCHES = [
    (pipeline.PipelineRunner, "run_intelligence", "pipeline.stage.recon", None, None),
    (pipeline.PipelineRunner, "run_analysis", "pipeline.stage.analysis", None, None),
    (pipeline.PipelineRunner, "run_exploitation", "pipeline.stage.exploit", None, None),
]
LAYER_PATCHES = [
    (cli, "main", "cli.main", None, None),
    (pipeline.PipelineRunner, "__init__", "pipeline.init", None, None),
    (pipeline, "save_record", "pipeline.checkpoint", None, None),
    (pipeline.PipelineRunner, "write_report", "pipeline.report", None, None),
    (gateway.ChatSession, "complete_structured", "gateway.complete_structured", _structured, None),
    (gateway.ChatSession, "complete", "gateway.complete", _evicted, _history_len),
    (gateway.ReplayBackend, "send", "model.send", _prompt_chars, None),
    (gateway.ScriptedBackend, "send", "model.send", _prompt_chars, None),
    (rag.RagStore, "index", "rag.index", _indexed, None),
    (rag.HashingEmbedder, "embed", "rag.embed", _embedded, None),
    (rag.RagStore, "retrieve", "rag.retrieve", _retrieved, None),
    (rag.RagStore, "synthesize", "rag.synthesize", _synthesized, None),
    (sandbox.SandboxExecutor, "run", "sandbox.run", _sandboxed, None),
    (sandbox.SandboxExecutor, "check_scope", "sandbox.check_scope", None, None),
    (versions.VersionConstraint, "parse", "versions.parse", None, None),
    (versions.VersionConstraint, "matches", "versions.matches", None, None),
    (knowledge.KnowledgeTree, "load", "knowledge.load", _loaded, None),
    (knowledge.KnowledgeTree, "save", "knowledge.save", _saved, None),
    (knowledge.KnowledgeTree, "query", "knowledge.query", None, None),
    (knowledge.KnowledgeTree, "upsert", None, _upserted, None),
    (pipeline, "run_recon", "recon.run", None, None),
    (recon, "recon_step", "recon.step", None, None),
    (pipeline, "summarize_environment", "recon.summarize", None, None),
    (search.SearchAgent, "acquire", "search.acquire", _acquired, None),
    (search.SearchAgent, "search", "search.query", None, None),
    (search.SearchAgent, "extract_attack_surfaces", "search.surfaces", _surface_docs, None),
    (search.SearchAgent, "extract_exploits", "search.exploits", _exploit_docs, None),
    (planning.PlanningAgent, "suggest_surfaces", "planning.suggest", _suggested, None),
    (planning.PlanningAgent, "plan_exploits", "planning.plan", None, None),
    (execution.ExecutionAgent, "prepare", "execution.prepare", _prepared, None),
    (execution.ExecutionAgent, "exploit_loop", "execution.loop", _looped, None),
    (report, "render_report", "report.render", None, None),
]


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.run_id = -1
        self._run_first = 0
        self.counts: Counter = Counter()

    # -- recording -----------------------------------------------------------

    def current(self) -> str:
        return self._names[self.name[self._stack[-1]]] if self._stack else ""

    def begin_run(self, run_id: int) -> None:
        self.run_id = run_id
        self._run_first = len(self.start)
        self.counts = Counter()

    def _wrap(self, fn, span, observe, before):
        tracer = self
        if span is None:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                observe(tracer, args, kwargs, result, None, None)
                return result

            return counted

        if span not in self._ids:
            self._ids[span] = len(self._names)
            self._names.append(span)
        name_id = self._ids[span]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pre = before(args, kwargs) if before is not None else None
            index = len(tracer.start)
            tracer.name.append(name_id)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.run.append(tracer.run_id)
            tracer.end.append(0.0)
            tracer._stack.append(index)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                tracer.end[index] = perf_counter()
                tracer._stack.pop()
                if observe is not None:
                    observe(tracer, args, kwargs, None, err, pre)
                raise
            tracer.end[index] = perf_counter()
            tracer._stack.pop()
            if observe is not None:
                observe(tracer, args, kwargs, result, None, pre)
            return result

        return traced

    def install(self, full: bool) -> None:
        """Patch the stage spans, plus every layer span when ``full``."""
        self.uninstall()
        for owner, attr, span, observe, before in STAGE_PATCHES + (LAYER_PATCHES if full else []):
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(raw.__func__, span, observe, before))
            else:
                patched = self._wrap(raw, span, observe, before)
            setattr(owner, attr, patched)
            self._undo.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -- reduction -------------------------------------------------------------

    def run_totals(self) -> tuple[dict[str, float], Counter, dict[str, float]]:
        """Total seconds and call count per span name, and self seconds per
        layer, over the spans of the current run."""
        totals: dict[str, float] = {}
        calls: Counter = Counter()
        child: dict[int, float] = {}
        first = self._run_first
        durations = [self.end[i] - self.start[i] for i in range(first, len(self.start))]
        for offset, duration in enumerate(durations):
            parent = self.parent[first + offset]
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + duration
        layer_self = {layer: 0.0 for layer in LAYERS}
        for offset, duration in enumerate(durations):
            index = first + offset
            name = self._names[self.name[index]]
            totals[name] = totals.get(name, 0.0) + duration
            calls[name] += 1
            layer = name.split(".", 1)[0]
            if layer in layer_self:
                layer_self[layer] += duration - child.get(index, 0.0)
        return totals, calls, layer_self

    def write(self, path: Path) -> int:
        """Write every recorded span as gzipped JSON lines; returns the count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for i in range(len(self.start)):
                handle.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": self._names[self.name[i]],
                            "start": self.start[i],
                            "end": self.end[i],
                            "parent": self.parent[i],
                            "run": self.run[i],
                        }
                    )
                    + "\n"
                )
        return len(self.start)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of the current run, named as in BENCHMARK.json."""
    totals, calls, layer_self = tracer.run_totals()
    c = tracer.counts

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    metrics = {
        "cli.main_s": layer_self["cli"],
        "pipeline.init_s": totals.get("pipeline.init", 0.0),
        "pipeline.checkpoint_s": totals.get("pipeline.checkpoint", 0.0),
        "pipeline.report_s": totals.get("pipeline.report", 0.0),
        "gateway.calls": calls["gateway.complete"],
        "gateway.repairs": calls["gateway.complete"] - calls["gateway.complete_structured"],
        "gateway.evicted_turns": c["gateway.evicted_turns"],
        "gateway.prompt_chars": c["gateway.prompt_chars"],
        "gateway.self_s": layer_self["gateway"],
        "gateway.backend_s": totals.get("model.send", 0.0),
        "rag.index.calls": calls["rag.index"],
        "rag.index.chunks": c["rag.index.chunks"],
        "rag.index_s": totals.get("rag.index", 0.0),
        "rag.embed.texts": c["rag.embed.texts"],
        "rag.embed_s": totals.get("rag.embed", 0.0),
        "rag.retrieve.calls": calls["rag.retrieve"],
        "rag.retrieve.chunks_scanned": c["rag.retrieve.chunks_scanned"],
        "rag.retrieve_s": totals.get("rag.retrieve", 0.0),
        "rag.synthesize.context_empty_ratio": ratio(
            c["rag.synthesize.context_empty"], calls["rag.synthesize"]
        ),
        "sandbox.calls": calls["sandbox.run"],
        "sandbox.run_s": totals.get("sandbox.run", 0.0),
        "sandbox.check_scope_s": totals.get("sandbox.check_scope", 0.0),
        "sandbox.refused_ratio": ratio(c["sandbox.refused"], calls["sandbox.run"]),
        "sandbox.truncated": c["sandbox.truncated"],
        "sandbox.output_bytes": c["sandbox.output_bytes"],
        "versions.parse.calls": calls["versions.parse"],
        "versions.parse_s": totals.get("versions.parse", 0.0),
        "versions.matches.calls": calls["versions.matches"],
        "versions.matches_s": totals.get("versions.matches", 0.0),
        "knowledge.load_s": totals.get("knowledge.load", 0.0),
        "knowledge.load.nodes": c["knowledge.load.nodes"],
        "knowledge.save_s": totals.get("knowledge.save", 0.0),
        "knowledge.save.files": c["knowledge.save.files"],
        "knowledge.query.calls": calls["knowledge.query"],
        "knowledge.query_s": totals.get("knowledge.query", 0.0),
        "knowledge.upserts": c["knowledge.upserts"],
        "recon.steps": calls["recon.step"],
        "recon.step_s": totals.get("recon.step", 0.0),
        "recon.summarize_s": totals.get("recon.summarize", 0.0),
        "search.queries": calls["search.query"],
        "search.docs": c["search.docs"],
        "search.acquire_s": totals.get("search.acquire", 0.0),
        "search.nodes_per_doc": ratio(c["search.nodes"], c["search.docs"]),
        "planning.suggest_s": totals.get("planning.suggest", 0.0),
        "planning.plan_s": totals.get("planning.plan", 0.0),
        "planning.candidates": c["planning.candidates"],
        "planning.fallbacks": c["planning.fallbacks"],
        "execution.prepare_s": totals.get("execution.prepare", 0.0),
        "execution.params": c["execution.params"],
        "execution.loop_steps": c["execution.loop_steps"],
        "execution.attempts": calls["execution.loop"],
        "execution.verified_ratio": ratio(c["execution.verified"], calls["execution.loop"]),
        "execution.repeated_error_aborts": c["execution.repeated_error_aborts"],
        "report.render_s": totals.get("report.render", 0.0),
    }
    for layer in LAYERS:
        if layer not in ("cli", "gateway"):
            metrics[f"{layer}.self_s"] = layer_self[layer]
    return metrics


def stage_times(tracer: Tracer) -> dict[str, float]:
    totals, _, _ = tracer.run_totals()
    return {metric: totals.get(span, 0.0) for metric, span in STAGE_SPANS.items()}
