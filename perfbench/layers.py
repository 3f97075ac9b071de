"""Per-layer tracing from outside the program.

The traced run wraps the public entry points of each layer under
``src/repro`` (functions and methods) with a span recorder.  The program
itself is not instrumented: the wrappers are installed by
:meth:`Tracer.install` and removed by :meth:`Tracer.remove`.

A span is ``[name, start, end, parent index]``.  Spans are kept in a
list while the run executes and written out as JSON lines afterwards.
Self time is a span's duration minus the time its child spans cover, so
the self times of all spans add up to at most the traced wall time; the
remainder is reported as ``bench.unattributed_s``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# (span name, module, attribute[, class]) of every wrapped entry point.
# A module-level function is replaced in every ``repro`` module that
# imported it by name, so ``from x import f`` call sites are traced too.
FUNCTIONS = [
    ("lang.load", "repro.lang", "load"),
    ("lang.tokenize", "repro.lang.lexer", "tokenize"),
    ("lang.parse", "repro.lang.parser", "parse"),
    ("lang.resolve", "repro.lang.resolver", "resolve"),
    ("lang.pretty", "repro.lang.pretty", "pretty_program"),
    ("cache.table_digest", "repro.narada.cache", "table_digest"),
    ("serial.digest", "repro.narada.serial", "report_digest"),
    ("synth.materialize", "repro.synth.synthesizer", "materialize"),
    ("trace.compress", "repro.trace.compressed", "compress_trace"),
    ("analysis.analyze", "repro.analysis.analyzer", "analyze_traces"),
    ("analysis.sweep", "repro.analysis.sweep", "run_sweep"),
    ("static.facts", "repro.static.facts", "analyze_program"),
    ("pairs.generate", "repro.pairs.generator", "generate_pairs"),
    ("context.derive", "repro.context.deriver", "derive_plans"),
    ("corpus.generate", "repro.corpus.generator", "generate_corpus"),
    ("corpus.score", "repro.corpus.runner", "score_outcome"),
]
METHODS = [
    ("cache.get", "repro.narada.cache", "ArtifactCache", "get"),
    ("cache.put", "repro.narada.cache", "ArtifactCache", "put"),
    ("runtime.run_test", "repro.runtime.vm", "VM", "run_test"),
    ("synth.synthesize", "repro.synth.synthesizer", "TestSynthesizer", "synthesize"),
    ("synth.collect", "repro.synth.collect", "SeedCollector", "collect"),
    ("fuzz.fuzz", "repro.fuzz.racefuzzer", "RaceFuzzer", "fuzz"),
    ("orchestrator.run", "repro.narada.orchestrator", "PipelineOrchestrator", "run"),
    ("pool.run", "repro.narada.faults", "FaultTolerantPool", "run"),
]
# The stage-level codecs of the serial layer (not the per-value helpers,
# which run millions of times and would drown the run in span overhead).
SERIAL_CODECS = [
    "analysis", "synthesis", "detection", "fuzz_bundle", "static_facts",
    "seed_traces", "test_bundle", "fault_ledger",
]
FUNCTIONS += [
    (f"serial.{verb}", "repro.narada.serial", f"{verb}_{codec}")
    for verb in ("encode", "decode")
    for codec in SERIAL_CODECS
]


class Tracer:
    """Records spans around wrapped calls; installs and removes wrappers."""

    def __init__(self, only: set[str] | None = None) -> None:
        self.only = only
        self.spans: list[list] = []
        self.results: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, results = self.spans, self._stack, self.results
        summarize = SUMMARIES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if summarize is not None:
                results[name].append(summarize(result))
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wanted(self, name: str) -> bool:
        return self.only is None or name in self.only

    def install(self) -> "Tracer":
        import importlib

        for name, module_name, attr in FUNCTIONS:
            if not self._wanted(name):
                continue
            original = getattr(importlib.import_module(module_name), attr)
            traced = self._wrap(name, original)
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "") or "").startswith("repro") and (
                    getattr(module, attr, None) is original
                ):
                    self._set(module, attr, traced)
        for name, module_name, cls_name, attr in METHODS:
            if not self._wanted(name):
                continue
            cls = getattr(importlib.import_module(module_name), cls_name)
            traced = self._wrap(name, cls.__dict__[attr])
            self._set(cls, attr, traced)
        return self

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- analysis --------------------------------------------------------

    def self_times(self) -> tuple[Counter, Counter]:
        """(calls per span name, self seconds per span name)."""
        calls: Counter = Counter()
        own: Counter = Counter()
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            duration = end - start
            if parent >= 0:
                child[parent] += duration
        for index, (name, start, end, _parent) in enumerate(self.spans):
            calls[name] += 1
            own[name] += (end - start) - child[index]
        return calls, own

    def write_jsonl(self, path) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent in self.spans:
                handle.write(
                    json.dumps({"name": name, "start": start, "end": end,
                                "parent": parent}) + "\n"
                )


#: Span names whose return values feed counters: the small summary of
#: each return value that is kept in memory.
SUMMARIES = {
    "synth.synthesize": len,
    "pairs.generate": lambda pairs: (
        len(pairs), sum(1 for v in getattr(pairs, "verdicts", ()) if v.pruned)
    ),
    "cache.get": lambda data: data is not None,
    "fuzz.fuzz": lambda r: (
        r.random_runs, r.directed_attempts, r.memo_hits, r.memo_misses,
        r.trace_events, r.packed_bytes,
    ),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: Tracer | None, wall_s: float, subjects: int, extra: dict
) -> dict[str, float]:
    """Every per-layer metric of a traced pass (0 for layers not run).

    ``extra`` supplies what spans cannot: the cache size on disk, the
    pruned-test count, and the ``pool.*``/``daemon.*`` figures that come
    from the fault ledger and the daemon's responses.
    """
    calls, own = tracer.self_times() if tracer else (Counter(), Counter())
    results = tracer.results if tracer else {}
    fuzz = results.get("fuzz.fuzz", [])
    runs, directed, memo_hits, memo_misses, events, packed = (
        [sum(column) for column in zip(*fuzz)] if fuzz else [0] * 6
    )
    gets = results.get("cache.get", [])
    pairs = results.get("pairs.generate", [])
    candidates = sum(n for n, _ in pairs)
    pruned = sum(p for _, p in pairs)
    m = {
        "lang.load.calls": calls["lang.load"],
        "lang.load_per_subject": _ratio(calls["lang.load"], subjects),
        "lang.load_s": own["lang.load"],
        "lang.tokenize_s": own["lang.tokenize"],
        "lang.parse_s": own["lang.parse"],
        "lang.resolve_s": own["lang.resolve"],
        "lang.pretty_s": own["lang.pretty"],
        "cache.table_digest.calls": calls["cache.table_digest"],
        "cache.table_digest_s": own["cache.table_digest"],
        "cache.get.calls": calls["cache.get"],
        "cache.get_s": own["cache.get"],
        "cache.put.calls": calls["cache.put"],
        "cache.put_s": own["cache.put"],
        "cache.hit_ratio": _ratio(sum(gets), len(gets)),
        "cache.bytes": extra.get("cache_bytes", 0),
        "serial.encode_s": own["serial.encode"],
        "serial.decode_s": own["serial.decode"],
        "serial.digest_s": own["serial.digest"],
        "runtime.run_test.calls": calls["runtime.run_test"],
        "runtime.run_test_s": own["runtime.run_test"],
        "synth.synthesize_s": own["synth.synthesize"],
        "synth.tests": sum(results.get("synth.synthesize", [])),
        "synth.materialize.calls": calls["synth.materialize"],
        "synth.materialize_s": own["synth.materialize"],
        "synth.collect.calls": calls["synth.collect"],
        "synth.collect_s": own["synth.collect"],
        "synth.materialize_per_test": _ratio(calls["synth.materialize"], len(fuzz)),
        "fuzz.units": len(fuzz),
        "fuzz.self_s": own["fuzz.fuzz"],
        "fuzz.random_runs": runs,
        "fuzz.directed_attempts": directed,
        "fuzz.memo_hit_ratio": _ratio(memo_hits, memo_hits + memo_misses),
        "trace.events": events,
        "trace.packed_bytes": packed,
        "trace.compress_s": own["trace.compress"],
        "analysis.analyze_s": own["analysis.analyze"],
        "analysis.sweep.calls": calls["analysis.sweep"],
        "analysis.sweep_s": own["analysis.sweep"],
        "static.facts_s": own["static.facts"],
        "static.prune_ratio": _ratio(pruned, candidates),
        "static.pruned_tests": extra.get("pruned_tests", 0),
        "pairs.generate_s": own["pairs.generate"],
        "pairs.candidates": candidates,
        "context.derive_s": own["context.derive"],
        "corpus.generate_s": own["corpus.generate"],
        "corpus.score.calls": calls["corpus.score"],
        "corpus.score_s": own["corpus.score"],
        "orchestrator.run.calls": calls["orchestrator.run"],
        "orchestrator.self_s": own["orchestrator.run"],
    }
    for key in POOL_METRICS + DAEMON_METRICS:
        m[key] = extra.get(key, 0)
    m["bench.traced_wall_s"] = wall_s
    m["bench.untraced_wall_s"] = extra.get("untraced_wall_s", 0)
    m["bench.trace_overhead"] = _ratio(wall_s, extra.get("untraced_wall_s", 0)) - 1 if extra.get("untraced_wall_s") else 0
    m["bench.unattributed_s"] = max(0.0, wall_s - sum(own.values())) if tracer else 0
    return {k: float(v) for k, v in m.items()}


POOL_METRICS = ["pool.units", "pool.batches", "pool.warm_reuses", "pool.retries", "pool.run_s"]
DAEMON_METRICS = [
    "daemon.server_ms_p50",
    "daemon.transport_ms_p50",
    "daemon.cache_hits",
    "daemon.cache_misses",
    "daemon.hit_ms_p50",
    "daemon.hit_ms_p90",
    "daemon.miss_ms_p50",
    "daemon.miss_ms_p90",
]

def _layer(span_name: str) -> str:
    """The layer a span name belongs to, for the report table."""
    return span_name.split(".")[0]


def report(tracer: Tracer, wall_s: float, untraced_s: float) -> str:
    """Per-layer table: calls, self time and share of the traced wall."""
    calls, own = tracer.self_times()
    layer_calls: Counter = Counter()
    layer_own: Counter = Counter()
    for name in own:
        layer_calls[_layer(name)] += calls[name]
        layer_own[_layer(name)] += own[name]
    lines = [f"{'layer':<14} {'calls':>9} {'self_s':>9} {'share':>7}"]
    for layer, seconds in layer_own.most_common():
        lines.append(
            f"{layer:<14} {layer_calls[layer]:>9} {seconds:>9.3f} "
            f"{_ratio(seconds, wall_s):>7.1%}"
        )
    unattributed = max(0.0, wall_s - sum(layer_own.values()))
    lines.append(
        f"{'(unattributed)':<14} {'':>9} {unattributed:>9.3f} "
        f"{_ratio(unattributed, wall_s):>7.1%}"
    )
    lines.append(
        f"traced wall {wall_s:.3f} s, untraced inline wall {untraced_s:.3f} s "
        f"(tracing overhead {_ratio(wall_s, untraced_s) - 1:+.1%})"
    )
    return "\n".join(lines)
