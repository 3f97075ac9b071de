"""The three workloads: corpus-cold, corpus-warm and daemon-mixed.

Every workload runs the fixed reference corpus (corpus seed 0, 200
subjects, all eight templates, ``random_runs=2``).  The benchmark's own
``--seed`` decides the order in which subjects are run and, on
daemon-mixed, the request schedule; it never changes which subjects
exist, so the race and deadlock counts are properties of the corpus and
repeat exactly (see README.md for why).

Each workload returns an :class:`Outcome`: the metrics, the number of
operations attempted and failed, and every correctness problem found.
Outputs are checked against the corpus oracle or against a property the
method must have, never against stored output.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
from repro.corpus import CorpusConfig, generate_corpus, generate_subject, run_corpus
from repro.corpus import generator as corpus_generator
from repro.narada import ArtifactCache, DaemonClient, PipelineConfig, PipelineOrchestrator
from repro.narada import orchestrator as orchestrator_module

CORPUS_SEED = 0
CORPUS_COUNT = 200
RUNS = 2
JOBS = 2
HITS_PER_MISS = 3
#: Index of the daemon warm-up subject: generated like the corpus, but
#: outside the measured sequence (indices 0..CORPUS_COUNT-1).
WARMUP_INDEX = 9000
#: corpus-cold's set-up (corpus generation) is repeated this many times
#: before every pass; ``setup_s`` is the median of all set-ups of a run.
SETUP_REPEATS = 5
#: daemon-mixed starts this many daemons before the rounds only to time
#: their set-up; with one per round, ``setup_s`` is the median of all.
DAEMON_EXTRA_SETUPS = 3
#: Bound on any single child process of the benchmark.
CHILD_TIMEOUT_S = 150


#: Categories of correctness checks; problems are reported per category.
CHECKS = ("recall", "pruned", "precision", "deadlock", "digest", "cache", "count", "pipeline")


class BenchError(RuntimeError):
    """The benchmark could not run (not a check of the program's output)."""


@dataclass
class Outcome:
    metrics: dict[str, float]
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    """``"<category>: <detail>"``, the category one of CHECKS."""
    report: str = ""


def corpus_config() -> CorpusConfig:
    return CorpusConfig(seed=CORPUS_SEED, count=CORPUS_COUNT)


def pipeline_config() -> PipelineConfig:
    return PipelineConfig(random_runs=RUNS)


def seeded_subjects(seed: int) -> list:
    """The reference corpus, in the run order that ``seed`` picks."""
    # Through the module, so that a traced run sees the call.
    subjects = corpus_generator.generate_corpus(corpus_config())
    random.Random(seed).shuffle(subjects)
    return subjects


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ----------------------------------------------------------------------
# Memory: high-water marks read from /proc.


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def child_pids(pid: int) -> list[int]:
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            children.append(int(entry))
    return children


def peak_rss_mb(pid: int) -> float:
    """High-water RSS of ``pid`` plus that of each of its live children."""
    kb = _vm_hwm_kb(pid) + sum(_vm_hwm_kb(c) for c in child_pids(pid))
    return kb / 1024.0


# ----------------------------------------------------------------------
# Corpus passes.


class ObservedOrchestrator(PipelineOrchestrator):
    """Notes how long each wave takes and what its outcomes hold.

    ``run_corpus`` keeps only scores and digests; the reproduced-race
    count and the cache flag are read here as the outcomes stream past,
    and each ``run`` call (one wave of ``run_stream``) is timed, without
    changing what the pipeline does.
    """

    def run(self, specs, detect=True):
        start = time.perf_counter()
        outcomes = super().run(specs, detect=detect)
        self.waves_ms.append((time.perf_counter() - start) * 1000.0)
        return outcomes

    def run_stream(self, specs, detect=True, batch_size=25):
        self.waves_ms: list[float] = []
        self.reproduced = 0
        self.cached = 0
        self.pruned_tests = 0
        for outcome in super().run_stream(specs, detect=detect, batch_size=batch_size):
            if outcome.detection is not None:
                self.reproduced += outcome.detection.reproduced
                self.pruned_tests += outcome.detection.pruned_tests
            self.cached += outcome.detection_cached
            yield outcome


@dataclass
class Pass:
    wall_s: float
    waves_ms: list[float]
    result: object
    reproduced: int
    cached: int
    pruned_tests: int
    ledger: object
    rss_mb: float
    cache_bytes: int

    @property
    def digests(self) -> dict[str, str]:
        return self.result.digests


def corpus_pass(subjects: list, cache_dir: str, jobs: int) -> Pass:
    """One ``run_corpus`` over ``subjects`` on a fresh orchestrator."""
    # The parsed-table memo of an earlier pass in this process must not
    # serve this one: every pass starts as a fresh process would.
    orchestrator_module._load_table.cache_clear()
    cache = ArtifactCache(cache_dir)
    start = time.perf_counter()
    with ObservedOrchestrator(jobs=jobs, cache=cache, config=pipeline_config()) as orch:
        result = run_corpus(corpus_config(), orch, subjects=subjects)
        wall = time.perf_counter() - start
        rss = peak_rss_mb(os.getpid())
    return Pass(
        wall_s=wall,
        waves_ms=orch.waves_ms,
        result=result,
        reproduced=orch.reproduced,
        cached=orch.cached,
        pruned_tests=orch.pruned_tests,
        ledger=orch.fault_ledger,
        rss_mb=rss,
        cache_bytes=cache.total_bytes(),
    )


def oracle_check(result) -> tuple[int, list[str]]:
    """(failed subjects, problems) of one scored corpus pass.

    A subject whose pipeline failed is a failed operation; every other
    subject must find all oracle races (recall 1.0), have no oracle race
    statically pruned, report no race the oracle lacks, and confirm a
    deadlock only where the oracle predicts deadlock potential.
    """
    failed = 0
    problems = []
    for s in result.scores:
        if s.pipeline_failed:
            failed += 1
            continue
        if s.missed:
            problems.append(f"recall: {s.key} lost oracle races {sorted(s.missed)}")
        if s.pruned_oracle:
            problems.append(f"pruned: {s.key} pruned oracle races {sorted(s.pruned_oracle)}")
        if s.unexpected:
            problems.append(f"precision: {s.key} races absent from the oracle {sorted(s.unexpected)}")
        if s.deadlock_observed and not s.deadlock_expected:
            problems.append(f"deadlock: {s.key} confirmed but the oracle predicts none")
    return failed, problems


def check_passes(passes: list[Pass], reference: dict[str, str] | None) -> tuple[int, list[str]]:
    """Oracle checks on every pass; digests must match ``reference``
    (or, without one, the first pass: the pipeline is deterministic)."""
    failed = 0
    problems = []
    reference = reference if reference is not None else passes[0].digests
    for index, p in enumerate(passes):
        f, found = oracle_check(p.result)
        failed += f
        problems += [f"{x} (pass {index})" for x in found]
        differing = sorted(k for k, d in p.digests.items() if reference.get(k) != d)
        if differing:
            problems.append(f"digest: pass {index} differs for {differing[:5]}")
        if p.reproduced != passes[0].reproduced:
            problems.append(f"count: pass {index} reproduced {p.reproduced} != {passes[0].reproduced}")
    return failed, problems


def corpus_metrics(setup: list[float], passes: list[Pass]) -> dict[str, float]:
    print(f"setup {[round(s, 3) for s in setup]} s, passes "
          f"{[round(p.wall_s, 3) for p in passes]} s", file=sys.stderr)
    return {
        "setup_s": statistics.median(setup),
        # The high-water mark only grows, and later passes add nothing
        # but allocator drift: read it after the same work in every run.
        "peak_rss_mb": passes[0].rss_mb,
        # Over all passes: the median of three or four passes is one
        # pass's figure, and spreads about twice as much between runs.
        "subjects_per_s": sum(p.result.subjects for p in passes) / sum(p.wall_s for p in passes),
        "races_reproduced": float(passes[0].reproduced),
        "deadlocks_confirmed": float(passes[0].result.deadlock_observed),
        # The latency a run_stream consumer sees: one 25-subject wave.
        "latency_p50_ms": statistics.median(ms for p in passes for ms in p.waves_ms),
    }


def timed_passes(seconds: float, one_pass) -> list[Pass]:
    """Whole passes until ``seconds`` have elapsed (at least one)."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(one_pass())
    return passes


# ----------------------------------------------------------------------
# Child processes: own session, always killed and reaped.


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def _wait_gone(pids: list[int], timeout: float = 10.0) -> None:
    """Wait until each pid has exited (reaped or no longer running)."""
    deadline = time.monotonic() + timeout
    for pid in pids:
        while time.monotonic() < deadline:
            try:
                with open(f"/proc/{pid}/stat") as handle:
                    state = handle.read().rsplit(")", 1)[1].split()[0]
            except OSError:
                break
            if state in ("Z", "X"):
                break
            time.sleep(0.02)


def program(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro", *args]


def run_child(argv: list[str]) -> str:
    """Run a program command to completion; its stdout."""
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        _kill_group(proc)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[1:4])} exited {proc.returncode}: {err[-2000:]}")
    return out


# ----------------------------------------------------------------------
# corpus-cold


def corpus_cold(seed: int, seconds: float, tmp: str, trace: bool) -> Outcome:
    setup: list[float] = []

    def cold(jobs: int) -> Pass:
        # Set-up (corpus generation) is repeated before every pass, so
        # that its median samples the whole run, not one moment of it.
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            subjects = seeded_subjects(seed)
            setup.append(time.perf_counter() - start)
        cache_dir = tempfile.mkdtemp(prefix="cold-", dir=tmp)
        try:
            return corpus_pass(subjects, cache_dir, jobs)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

    if trace:
        return traced_corpus(cold, None, f"corpus-cold-seed{seed}")
    passes = timed_passes(seconds, lambda: cold(JOBS))
    failed, problems = check_passes(passes, None)
    return Outcome(corpus_metrics(setup, passes), CORPUS_COUNT * len(passes), failed, problems)


# ----------------------------------------------------------------------
# corpus-warm


def fill_cache(tmp: str) -> tuple[str, dict]:
    """The cold pass that fills a cache, as a separate CLI process."""
    cache_dir = tempfile.mkdtemp(prefix="warm-", dir=tmp)
    out = run_child(program(
        "corpus", "run", "--seed", str(CORPUS_SEED), "--count", str(CORPUS_COUNT),
        "--runs", str(RUNS), "--jobs", str(JOBS), "--cache-dir", cache_dir, "--json",
    ))
    report, _ = json.JSONDecoder().raw_decode(out.lstrip())
    return cache_dir, report


def corpus_warm(seed: int, seconds: float, tmp: str, trace: bool) -> Outcome:
    subjects = seeded_subjects(seed)
    setup: list[float] = []
    problems: list[str] = []

    def fill() -> tuple[str, dict]:
        start = time.perf_counter()
        cache_dir, report = fill_cache(tmp)
        setup.append(time.perf_counter() - start)
        problems.extend(f"recall: fill reports {p}" for p in report["problems"])
        if report["recall"] != 1.0:
            problems.append(f"recall: fill recall {report['recall']}")
        return cache_dir, report

    first_dir, reference = fill()
    cache = {"dir": first_dir}  # the fill whose cache the passes read

    def warm(jobs: int) -> Pass:
        p = corpus_pass(subjects, cache["dir"], jobs)
        if p.cached != len(subjects):
            problems.append(f"cache: warm pass computed {len(subjects) - p.cached} subject(s)")
        return p

    if trace:
        outcome = traced_corpus(warm, reference["digests"], f"corpus-warm-seed{seed}")
        shutil.rmtree(cache["dir"])
        outcome.problems += problems
        return outcome
    # Three fills: before, between and after two halves of the timed
    # passes.  The CPU of this machine runs fast or slow for tens of
    # seconds at a time; spreading the passes over the whole run averages
    # more of those periods, and the set-up median samples all of it.
    passes: list[Pass] = []
    for _ in range(2):
        passes += timed_passes(seconds / 2, lambda: warm(JOBS))
        shutil.rmtree(cache["dir"])
        cache["dir"], report = fill()
        if report["digests"] != reference["digests"]:
            problems.append("digest: two fills of the same corpus differ")
    shutil.rmtree(cache["dir"])
    failed, found = check_passes(passes, reference["digests"])
    if passes[0].result.deadlock_observed != reference["deadlock_observed"]:
        problems.append("count: warm deadlock count differs from the fill's")
    return Outcome(
        corpus_metrics(setup, passes), len(subjects) * len(passes), failed, found + problems
    )


# ----------------------------------------------------------------------
# The traced run of a corpus workload.


def traced_corpus(one_pass, reference: dict | None, label: str) -> Outcome:
    """Per-layer metrics: a pooled pass for ``pool.*``, then an untraced
    and a traced inline pass (``jobs=1``, every layer call in this
    process) whose wall times state the tracing overhead.  The spans go
    to ``perfbench/out/spans-<label>.jsonl``."""
    with layers.Tracer(only={"pool.run"}) as pool_tracer:
        pooled = one_pass(JOBS)
    start = time.perf_counter()
    untraced = one_pass(1)
    untraced_wall = time.perf_counter() - start
    with layers.Tracer() as tracer:
        start = time.perf_counter()
        traced = one_pass(1)
        traced_wall = time.perf_counter() - start
    passes = [pooled, untraced, traced]
    failed, problems = check_passes(passes, reference)
    _, pool_own = pool_tracer.self_times()
    ledger = pooled.ledger
    extra = {
        "cache_bytes": traced.cache_bytes,
        "pruned_tests": traced.pruned_tests,
        "untraced_wall_s": untraced_wall,
        "pool.units": ledger.completed,
        "pool.batches": ledger.batches,
        "pool.warm_reuses": ledger.warm_reuses,
        "pool.retries": ledger.retries,
        "pool.run_s": pool_own["pool.run"],
    }
    metrics = layers.layer_metrics(tracer, traced_wall, CORPUS_COUNT, extra)
    out_dir = Path(__file__).resolve().parent / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write_jsonl(out_dir / f"spans-{label}.jsonl")
    return Outcome(
        metrics, CORPUS_COUNT * len(passes), failed, problems,
        report=layers.report(tracer, traced_wall, untraced_wall),
    )


# ----------------------------------------------------------------------
# daemon-mixed


def daemon_schedule(seed: int) -> list[tuple[int, bool]]:
    """``(subject index, expect hit)`` per request, fixed by the seed.

    Each subject is requested fresh once (a miss), in a seeded order;
    every miss is followed by HITS_PER_MISS repeats of subjects already
    requested.
    """
    rng = random.Random(seed)
    order = list(range(CORPUS_COUNT))
    rng.shuffle(order)
    plan = []
    for done, index in enumerate(order):
        plan.append((index, False))
        plan += [(order[rng.randrange(done + 1)], True) for _ in range(HITS_PER_MISS)]
    return plan


class Daemon:
    """A ``repro serve --jobs 2`` subprocess with its own cache and socket."""

    def __init__(self, tmp: str) -> None:
        self.dir = tempfile.mkdtemp(prefix="daemon-", dir=tmp)
        # A relative path keeps the socket under the 108-byte limit.
        self.socket = os.path.relpath(os.path.join(self.dir, "d.sock"))
        self.cache_dir = os.path.join(self.dir, "cache")
        self.proc = subprocess.Popen(
            program("serve", "--jobs", str(JOBS), "--socket", self.socket,
                    "--cache-dir", self.cache_dir),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        self.client = DaemonClient(socket_path=self.socket, timeout=CHILD_TIMEOUT_S)
        try:
            self._connect(deadline=time.monotonic() + 60)
        except BaseException:
            self.stop()
            raise

    def _connect(self, deadline: float) -> None:
        while True:
            if self.proc.poll() is not None:
                raise BenchError(f"daemon exited with {self.proc.returncode}")
            try:
                self.client.connect()
                return
            except ConnectionError:
                if time.monotonic() > deadline:
                    raise BenchError("daemon did not bind its socket within 60 s")
                time.sleep(0.02)

    def request(self, payload: dict) -> dict:
        return self.client.request(payload)

    def stop(self) -> None:
        """Shut down, then make sure the daemon and its workers are gone."""
        workers = child_pids(self.proc.pid)
        try:
            if self.proc.poll() is None:
                self.client.request({"op": "shutdown"})
            self.client.close()
            self.proc.wait(timeout=30)
        except (OSError, ConnectionError, subprocess.TimeoutExpired):
            pass
        finally:
            self.client.close()
            _kill_group(self.proc)
            _wait_gone(workers)
            shutil.rmtree(self.dir, ignore_errors=True)


def detect_request(subject) -> dict:
    return {
        "op": "detect", "source": subject.source, "target_class": subject.class_name,
        "name": subject.key, "runs": RUNS,
    }


def daemon_mixed(seed: int, seconds: float, tmp: str, trace: bool) -> Outcome:
    """Whole rounds of the schedule until ``seconds`` of loop time have
    passed, each on a freshly started daemon with an empty cache."""
    subjects = generate_corpus(corpus_config())
    warmup = generate_subject(corpus_config(), WARMUP_INDEX)
    plan = daemon_schedule(seed)
    setup: list[float] = []
    warmup_digests: set[str] = set()

    def start_daemon() -> Daemon:
        """Set-up: start a daemon and answer the warm-up request, which
        spawns the pool; the warm-up subject is not in the sequence."""
        start = time.perf_counter()
        daemon = Daemon(tmp)
        try:
            response = daemon.request(detect_request(warmup))
        except BaseException:
            daemon.stop()
            raise
        setup.append(time.perf_counter() - start)
        if not response.get("ok"):
            daemon.stop()
            raise BenchError(f"warm-up request failed: {response}")
        warmup_digests.add(response["subjects"][warmup.key]["digest"])
        return daemon

    for _ in range(DAEMON_EXTRA_SETUPS):
        start_daemon().stop()
    rounds: list[Round] = []
    while not rounds or sum(r.wall_s for r in rounds) < seconds:
        daemon = start_daemon()
        try:
            rounds.append(daemon_round(daemon, subjects, plan))
        finally:
            daemon.stop()

    first = rounds[0]
    problems = [p for r in rounds for p in r.problems]
    if len(warmup_digests) != 1:
        problems.append("digest: the warm-up subject differs between daemons")
    for r in rounds[1:]:
        if r.miss_digest != first.miss_digest:
            problems.append("digest: two rounds of the schedule differ")
        if (r.reproduced, r.deadlocks) != (first.reproduced, first.deadlocks):
            problems.append("count: two rounds of the schedule differ")
    hits = [ms for r in rounds for ms in r.latencies[True]]
    misses = [ms for r in rounds for ms in r.latencies[False]]
    requests = len(plan) * len(rounds)
    if trace:
        extra = {
            "daemon.server_ms_p50": statistics.median(x for r in rounds for x in r.server_ms),
            "daemon.transport_ms_p50": statistics.median(
                x for r in rounds for x in r.transport_ms
            ),
            "daemon.cache_hits": first.stats["cache"]["hits"],
            "daemon.cache_misses": first.stats["cache"]["misses"],
            "daemon.hit_ms_p50": percentile(hits, 50),
            "daemon.hit_ms_p90": percentile(hits, 90),
            "daemon.miss_ms_p50": percentile(misses, 50),
            "daemon.miss_ms_p90": percentile(misses, 90),
        }
        metrics = layers.layer_metrics(None, 0.0, CORPUS_COUNT, extra)
        report = "\n".join(f"{k:<24} {v:10.3f}" for k, v in extra.items())
    else:
        report = ""
        metrics = {
            "setup_s": statistics.median(setup),
            "peak_rss_mb": first.rss_mb,
            "subjects_per_s": requests / sum(r.wall_s for r in rounds),
            "races_reproduced": float(first.reproduced),
            "deadlocks_confirmed": float(first.deadlocks),
            # Hits only: a percentile over the hit/miss mix would land on
            # whichever mode its rank falls in.
            "latency_p50_ms": percentile(hits, 50),
        }
    attempted = (len(plan) + 1) * len(rounds)
    failed = sum(r.failed for r in rounds)
    return Outcome(metrics, attempted, failed, problems, report=report)


@dataclass
class Round:
    """One pass of the request schedule through one daemon."""

    wall_s: float
    latencies: dict[bool, list[float]]
    server_ms: list[float]
    transport_ms: list[float]
    miss_digest: dict[str, str]
    reproduced: int
    deadlocks: int
    rss_mb: float
    stats: dict
    failed: int
    problems: list[str]


def daemon_round(daemon: Daemon, subjects, plan) -> Round:
    problems: list[str] = []
    failed = 0
    latencies = {True: [], False: []}
    server_ms = []
    transport_ms = []
    miss_digest: dict[str, str] = {}
    reproduced = 0
    start = time.perf_counter()
    for index, expect_hit in plan:
        subject = subjects[index]
        sent = time.perf_counter()
        response = daemon.request(detect_request(subject))
        elapsed = time.perf_counter() - sent
        if not response.get("ok"):
            failed += 1
            continue
        entry = response["subjects"][subject.key]
        latencies[expect_hit].append(elapsed * 1000.0)
        server_ms.append(response["elapsed_s"] * 1000.0)
        transport_ms.append((elapsed - response["elapsed_s"]) * 1000.0)
        if entry.get("detection_cached") != expect_hit:
            problems.append(f"cache: {subject.key} expected a {'hit' if expect_hit else 'miss'}")
        if entry.get("failures") or entry.get("partial"):
            problems.append(f"pipeline: {subject.key} response reports failures")
        if expect_hit:
            if entry["digest"] != miss_digest.get(subject.key):
                problems.append(f"digest: {subject.key} hit differs from its miss")
        else:
            miss_digest[subject.key] = entry["digest"]
            reproduced += entry["reproduced"]
    wall = time.perf_counter() - start
    rss = peak_rss_mb(daemon.proc.pid)

    before = daemon.request({"op": "stats"})
    corpus = daemon.request({"op": "corpus", "seed": CORPUS_SEED, "count": CORPUS_COUNT, "runs": RUNS})
    after = daemon.request({"op": "stats"})
    if not corpus.get("ok"):
        failed += 1
        problems.append(f"pipeline: corpus request failed: {corpus.get('error')}")
    else:
        if corpus["recall"] != 1.0 or corpus["problems"]:
            problems.append(f"recall: corpus request recall {corpus['recall']}, {corpus['problems'][:5]}")
        if corpus["digests"] != miss_digest:
            problems.append("digest: corpus request differs from the detect responses")
        if after["cache"]["writes"] != before["cache"]["writes"]:
            problems.append("cache: corpus request was not answered from the cache alone")

    # The detect responses carry no deadlock count: score what the daemon
    # wrote to its cache against the oracle, in this process.
    readback = corpus_pass(subjects, daemon.cache_dir, 1)
    f, found = oracle_check(readback.result)
    failed += f
    problems += [f"{x} (daemon cache readback)" for x in found]
    if readback.cached != len(subjects):
        problems.append("cache: the daemon's cache lacks some subjects")
    if readback.reproduced != reproduced:
        problems.append(f"count: readback reproduced {readback.reproduced} != responses {reproduced}")

    return Round(
        wall_s=wall, latencies=latencies, server_ms=server_ms, transport_ms=transport_ms,
        miss_digest=miss_digest, reproduced=reproduced,
        deadlocks=readback.result.deadlock_observed, rss_mb=rss, stats=before,
        failed=failed, problems=problems,
    )


WORKLOADS = {
    "corpus-cold": corpus_cold,
    "corpus-warm": corpus_warm,
    "daemon-mixed": daemon_mixed,
}
