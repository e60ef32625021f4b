"""One benchmark workload, run in its own process.

``bench/run.py`` starts this module once per set-up it measures. The
process imports the engine, builds its inputs from the seed, starts the
loopback stub when the workload needs one and warms the cache, then prints
``ready``. With ``--setup-only`` it stops there; otherwise it runs episodes
back to back for ``--seconds``, checks every record against
``reference.json`` and prints one JSON line of results.

Episodes go through ``tout.harness.run_benchmark`` in chunks, each with a
fresh records file (an existing file would resume and skip every episode).
Timings come from this module's own clock: the chunk wall around each
``run_benchmark`` call, and each episode's ``run_method`` call timed by a
wrapper. ``BenchmarkReport.seconds`` is not used.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
from responder import Game24Responder  # noqa: E402
from tracer import (  # noqa: E402
    LAYER_UNITS,
    TASK_METHODS,
    Patches,
    Tracer,
    layer_metrics,
    p90,
)

import tout.search  # noqa: E402
from tout import (  # noqa: E402
    Backend,
    BackendRequest,
    BackendResponse,
    HttpBackend,
    ResponseCache,
    RunRecord,
    SearchConfig,
    cached_generate,
    evaluate_state,
    generate,
    run_method,
)
from tout.harness import RunAbortedError, run_benchmark, synthetic_setup  # noqa: E402
from tout.model import StateStore  # noqa: E402
from tout.search import finalize_output, propose_thoughts, tout_bfs, tout_dfs  # noqa: E402
from tout.tasks import Game24Task, Problem, build_trap_benchmark, load_problems  # noqa: E402
from tout.uncertainty import sample_values  # noqa: E402

WORKLOADS = ("trap_cpu", "game24_http", "game24_cached")
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"
DATASET = ROOT / "datasets" / "game24.csv"

# The paper's shapes: trap tree depth 3 and game24 k=5, b=1, T=3, both m=20.
CONFIG = SearchConfig(k=5, b=1, T=3, m=20)
TRAP_DEPTH = 3
TRAP_CHUNK = 16  # episodes per method per chunk; a power of two
TRAP_CHUNKS = 32  # distinct chunks; episode seeds 0 .. TRAP_CHUNK*TRAP_CHUNKS-1
GAME24_VARIANTS = 8  # responder seeds, each with its own puzzle order
GAME24_CHUNK = 1  # puzzles per run_benchmark call on game24_http, each with a cold cache
WARMUP_CALLS = 3  # untimed HTTP calls in set-up, so no timed episode imports the client
CACHED_POOL = 3  # puzzles replayed from the warm cache on game24_cached
STUB_DELAY_MS = 20.0  # fixed per-call delay of the stub on game24_http
SPAN_BUDGET = 150_000  # the traced phase stops at a chunk boundary past this

DIGEST_FIELDS = ("task", "problem_id", "events", "final_output", "verdicts")


def cache_hit(response: Optional[BackendResponse]) -> int:
    return int(response is not None)


def user_cpu_s() -> float:
    """User-mode CPU seconds of this process, all threads.

    Kernel time is left out: on game24_http it is mostly loopback socket
    work, which the kernel charges to the client or the stub depending on
    where each ran, and it moved by 25% between episodes of one run where
    user time moved by 8%.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


def record_digest(line: str) -> str:
    """Digest of a record's compared fields.

    ``config`` is left out: it holds execution knobs, which may move
    without changing behaviour, and a later per-run ``stats`` block would
    hold timings.
    """
    data = json.loads(line)
    payload = json.dumps(
        {key: data[key] for key in DIGEST_FIELDS}, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class ResponderBackend(Backend):
    """The stub's responder called in-process; used to build the reference."""

    def __init__(self, responder: Game24Responder):
        self.responder = responder
        self.backend_id = f"responder:{responder.seed}"

    def generate(self, request):
        return BackendResponse(
            completions=tuple(
                self.responder.complete(request.prompt, request.temperature, i)
                for i in range(request.n)
            )
        )


class Stub:
    """The loopback stub process; stops when closed or when we exit."""

    def __init__(self, seed: int, delay_ms: float, fail_share: float = 0.0):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), "--seed", str(seed),
             "--delay-ms", str(delay_ms), "--fail-share", str(fail_share)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "port":
            self.close()
            raise RuntimeError("the stub did not report its port")
        self.url = f"http://127.0.0.1:{int(line[1])}"

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Chunk:
    """One run_benchmark call: its problems and where to check them."""

    key: str  # reference entry
    offset: int  # index of the first problem within the entry
    method: str
    problems: list[Problem]
    run_seed: int = 0
    cache: Optional[ResponseCache] = None
    expect_no_calls: bool = False




@dataclass
class Totals:
    """What a phase did, and the records that disagreed with the reference."""

    chunks: int = 0
    attempted: int = 0
    failed: int = 0
    successes: float = 0.0
    requests: int = 0
    wall_s: float = 0.0
    # (attempted, failed, wall s, user CPU s) of each chunk
    chunk_stats: list[tuple[int, int, float, float]] = field(default_factory=list)
    episode_s: list[float] = field(default_factory=list)
    # host-speed scale of each chunk (see hostspeed.py), 1.0 where unscaled
    scales: list[float] = field(default_factory=list)
    episode_scaled_s: list[float] = field(default_factory=list)
    mismatches: list[str] = field(default_factory=list)


class Workload:
    """Inputs, set-up and chunk stream of one workload.

    The workload counts what reaches each backend and cache it owns by
    wrapping their methods on the instance; with a tracer attached, the
    same wrappers also record spans.
    """

    name = ""
    config = CONFIG
    round_chunks = 1  # consecutive chunks that make one sample of a rate
    # Whether end-to-end times are scaled to the reference host speed. Only
    # for workloads that never wait: right after a chunk of HTTP calls the
    # calibration loop runs about 30% slower than after a CPU-bound chunk at
    # the same time, and scaled game24_http times spread more than raw ones.
    host_scaled = True

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        out_dir.mkdir(parents=True, exist_ok=True)
        self.tracer: Optional[Tracer] = None
        self.calls = 0
        self.lookups = 0
        self._count_lock = threading.Lock()
        self.episode_s: list[float] = []
        self.episode_calls: list[int] = []
        self._serial = 0

    def setup(self) -> None:
        """Everything before the first timed episode."""

    def close(self) -> None:
        """Stop what setup started."""

    def chunks(self) -> Iterator[Chunk]:
        raise NotImplementedError

    def backend_for(self, episode_seed: int) -> Backend:
        raise NotImplementedError

    def fresh_path(self, kind: str) -> Path:
        self._serial += 1
        return self.out_dir / f"{kind}-{self._serial}"

    def own_backend(self, backend: Backend) -> Backend:
        inner = backend.generate

        def counted(request):
            with self._count_lock:
                self.calls += 1
            return inner(request)

        backend.generate = counted
        if self.tracer is not None:
            backend.generate = self.tracer.wrap("Backend.generate", counted)
        return backend

    def own_cache(self, cache: ResponseCache) -> ResponseCache:
        inner = cache.get

        def counted(key):
            with self._count_lock:
                self.lookups += 1
            return inner(key)

        cache.get = counted
        if self.tracer is not None:
            cache.get = self.tracer.wrap("ResponseCache.get", counted, info=cache_hit)
            cache.put = self.tracer.wrap("ResponseCache.put", cache.put)
        return cache

    def time_episodes(self, fn: Callable) -> Callable:
        """``run_method`` timed, with the backend calls it made."""
        clock = time.perf_counter

        def timed(*args, **kwargs):
            calls = self.calls
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.episode_s.append(clock() - start)
                self.episode_calls.append(self.calls - calls)

        return timed

    def attach(self, tracer: Tracer, patches: Patches) -> None:
        """Trace objects created from now on and those set-up already made."""
        patches.set(self, "tracer", tracer)

    def run_chunk(self, chunk: Chunk, totals: Totals, call: Callable = run_benchmark) -> list[list]:
        """Run one chunk on the benchmark's clock; [digest, calls, success] per record."""
        record_path = self.fresh_path("records").with_suffix(".jsonl")
        first = len(self.episode_s)
        calls, lookups = self.calls, self.lookups
        raised = False
        cpu = user_cpu_s()
        start = time.perf_counter()
        try:
            call(self.task, chunk.problems, chunk.method, self.backend_for, self.config,
                 cache=chunk.cache, record_path=record_path, run_seed=chunk.run_seed)
        except RunAbortedError:
            pass  # the records on disk say which episodes failed
        except Exception:  # an episode that raised is counted failed; the run goes on
            traceback.print_exc(file=sys.stderr)
            raised = True
        wall = time.perf_counter() - start
        cpu = user_cpu_s() - cpu
        totals.wall_s += wall
        totals.chunks += 1
        totals.requests += self.lookups - lookups if chunk.cache else self.calls - calls
        totals.episode_s.extend(self.episode_s[first:])
        episode_calls = self.episode_calls[first:]

        lines = record_path.read_text(encoding="utf-8").splitlines() if record_path.exists() else []
        record_path.unlink(missing_ok=True)
        failed = int(raised)
        observed = []
        for i, line in enumerate(lines):
            verdicts = json.loads(line)["verdicts"]
            totals.successes += verdicts.get("success", 0.0)
            failed += int(verdicts.get("backend_error", 0.0) == 1.0)
            calls_made = episode_calls[i] if i < len(episode_calls) else -1
            observed.append([record_digest(line), calls_made, verdicts.get("success", 0.0)])
        attempted = len(lines) + raised
        totals.attempted += attempted
        totals.failed += failed
        totals.chunk_stats.append((attempted, failed, wall, cpu))
        if len(lines) != len(chunk.problems):
            totals.mismatches.append(f"{chunk.key}: {len(lines)} of {len(chunk.problems)} records")
        return observed

    def check(self, chunk: Chunk, observed: list[list], reference: dict, totals: Totals) -> None:
        """Gate: each record's digest, backend calls and success as in the reference."""
        expected = reference.get(chunk.key)
        if expected is None:
            totals.mismatches.append(f"{chunk.key}: no reference")
            return
        for i, got in enumerate(observed):
            want = list(expected[chunk.offset + i])
            if chunk.expect_no_calls:
                want[1] = 0
            if got != want:
                totals.mismatches.append(f"{chunk.key}[{chunk.offset + i}]: got {got}, want {want}")


class TrapCpu(Workload):
    """Synthetic trap tree, tout_bfs and tout_dfs on the same episode seeds."""

    name = "trap_cpu"
    round_chunks = 2  # one tout_bfs and one tout_dfs chunk

    def __init__(self, seed: int, out_dir: Path):
        super().__init__(out_dir)
        benchmark = build_trap_benchmark(depth=TRAP_DEPTH)
        self.task, self.problems, self.oracle = synthetic_setup(benchmark, TRAP_CHUNK)
        self.order = random.Random(seed).sample(range(TRAP_CHUNKS), TRAP_CHUNKS)

    def backend_for(self, episode_seed: int) -> Backend:
        return self.own_backend(self.oracle(episode_seed))

    def chunks(self) -> Iterator[Chunk]:
        while True:
            for chunk_id in self.order:
                for method in ("tout_bfs", "tout_dfs"):
                    # run_benchmark seeds episode i with run_seed ^ i
                    yield Chunk(f"trap/{method}/{chunk_id}", 0, method, self.problems,
                                run_seed=chunk_id * TRAP_CHUNK)


class Game24(Workload):
    """Game of 24 over the dataset, answered by the seeded responder.

    The seed picks one of GAME24_VARIANTS responder seeds, which also fixes
    the puzzle order. ``http=False`` calls the responder in-process, which
    is how the reference is built; records do not depend on the transport.
    """

    def __init__(self, seed: int, out_dir: Path, *, http: bool = True,
                 delay_ms: float = STUB_DELAY_MS, fail_share: float = 0.0,
                 backoff_s: Optional[float] = None, responder: Optional[Game24Responder] = None):
        super().__init__(out_dir)
        self.variant = seed % GAME24_VARIANTS
        self.task = Game24Task()
        problems = load_problems("game24", DATASET)
        self.problems = random.Random(self.variant).sample(problems, len(problems))
        self.http = http
        self.delay_ms = delay_ms
        self.fail_share = fail_share
        self.backoff_s = backoff_s
        self.responder = responder or Game24Responder(self.variant)
        self.stub: Optional[Stub] = None
        self.backend: Optional[Backend] = None

    def setup(self) -> None:
        if self.http:
            self.stub = Stub(self.variant, self.delay_ms, self.fail_share)
            options = {} if self.backoff_s is None else {"backoff_s": self.backoff_s}
            backend = HttpBackend(base_url=self.stub.url, model="bench-stub", api_key="", **options)
            root = StateStore().root(self.problems[0].input)
            for _ in range(WARMUP_CALLS):
                backend.generate(BackendRequest(self.task.value_prompt(root), temperature=0.7, n=1))
        else:
            backend = ResponderBackend(self.responder)
        self.backend = self.own_backend(backend)

    def close(self) -> None:
        if self.stub is not None:
            self.stub.close()
            self.stub = None

    def backend_for(self, episode_seed: int) -> Backend:
        return self.backend

    def attach(self, tracer: Tracer, patches: Patches) -> None:
        super().attach(tracer, patches)
        traced = tracer.wrap("Backend.generate", self.backend.generate)
        patches.set(self.backend, "generate", traced)

    def new_cache(self) -> ResponseCache:
        return self.own_cache(ResponseCache(self.fresh_path("cache")))

    def chunks(self) -> Iterator[Chunk]:
        """Passes over the puzzle order, each chunk with a fresh, cold cache.

        A cache shared by a pass would serve later puzzles the value calls
        of sub-states that earlier ones reached, so an episode's calls would
        depend on its place in the order: 82 to 304 rather than 244 to 304.
        """
        while True:
            for offset in range(0, len(self.problems), GAME24_CHUNK):
                cache = self.new_cache()
                yield Chunk(f"game24/{self.variant}", offset, "tout_bfs",
                            self.problems[offset:offset + GAME24_CHUNK], cache=cache)
                shutil.rmtree(cache.cache_dir, ignore_errors=True)


class Game24Http(Game24):
    name = "game24_http"
    host_scaled = False


class Game24Cached(Game24):
    """The first CACHED_POOL puzzles replayed from a cache warmed in set-up.

    Replay goes through the HTTP backend, so the cache is filled under its
    backend id, which holds the stub's URL: cache keys hold the backend id.
    The responder fills it in-process, answering what the stub would. Over
    HTTP the 900-odd warm-up calls were most of set-up, and their client
    CPU time moved set-up's median by 28% between two sets of runs.
    """

    name = "game24_cached"

    def __init__(self, seed: int, out_dir: Path, **options):
        options.setdefault("delay_ms", 0.0)
        super().__init__(seed, out_dir, **options)
        self.warm: Optional[ResponseCache] = None
        self.warmup = Totals()

    def pool(self, warm: bool) -> Chunk:
        return Chunk(f"game24_cached/{self.variant}", 0, "tout_bfs", self.problems[:CACHED_POOL],
                     cache=self.warm, expect_no_calls=warm)

    def setup(self) -> None:
        super().setup()
        self.warm = self.new_cache()
        filler = ResponderBackend(self.responder)
        filler.backend_id = self.backend.backend_id
        http, self.backend = self.backend, self.own_backend(filler)
        try:
            chunk = self.pool(warm=False)
            self.check(chunk, self.run_chunk(chunk, self.warmup), load_reference(), self.warmup)
        finally:
            self.backend = http

    def attach(self, tracer: Tracer, patches: Patches) -> None:
        super().attach(tracer, patches)
        get = tracer.wrap("ResponseCache.get", self.warm.get, info=cache_hit)
        patches.set(self.warm, "get", get)
        patches.set(self.warm, "put", tracer.wrap("ResponseCache.put", self.warm.put))

    def chunks(self) -> Iterator[Chunk]:
        while True:
            yield self.pool(warm=True)


WORKLOAD_TYPES = {w.name: w for w in (TrapCpu, Game24Http, Game24Cached)}


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def run_phase(workload: Workload, reference: dict, seconds: float) -> Totals:
    """Chunks back to back until ``seconds`` have passed; at least one round.

    On a host-scaled workload the host speed is calibrated between chunks.
    """
    totals = Totals()
    started = time.perf_counter()
    before = hostspeed.calibrate() if workload.host_scaled else 0.0
    for chunk in workload.chunks():
        first = len(totals.episode_s)
        observed = workload.run_chunk(chunk, totals)
        scale = 1.0
        if workload.host_scaled:
            after = hostspeed.calibrate()
            scale, before = hostspeed.scale(before, after), after
        totals.scales.append(scale)
        totals.episode_scaled_s.extend(s * scale for s in totals.episode_s[first:])
        workload.check(chunk, observed, reference, totals)
        if totals.chunks % workload.round_chunks == 0 and time.perf_counter() - started >= seconds:
            break
    return totals


@contextlib.contextmanager
def timed_episodes(workload: Workload) -> Iterator[None]:
    """Time every run_method call the harness makes while the block runs."""
    patches = Patches()
    patches.everywhere(run_method, workload.time_episodes(run_method))
    try:
        yield
    finally:
        patches.restore()


def trace_engine(workload: Workload, tracer: Tracer, patches: Patches) -> None:
    """Spans around the engine's public functions, the task and the records."""
    episode = tout.search.run_method  # already wrapped by time_episodes
    patches.everywhere(episode, tracer.wrap("run_method", episode, episode=True))
    for fn in (tout_bfs, tout_dfs, propose_thoughts, finalize_output, evaluate_state,
               cached_generate, generate):
        patches.everywhere(fn, tracer.wrap(fn.__name__, fn))
    patches.everywhere(sample_values, tracer.wrap("sample_values", sample_values, info=len))
    patches.set(RunRecord, "to_json", tracer.wrap("RunRecord.to_json", RunRecord.to_json, info=len))
    for method in TASK_METHODS:
        traced = tracer.wrap(f"task.{method}", getattr(workload.task, method))
        patches.set(workload.task, method, traced)
    tracer.propagate_into_pools(patches)
    workload.attach(tracer, patches)


UNITS = {
    "setup_s": "s",
    "episodes_per_s": "1/s",
    "episode_ms_p50": "ms",
    "episode_ms_tail": "ms",
    "requests_per_episode": "calls",
    "user_cpu_ms_per_episode": "ms",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
}


def end_to_end(timed: Totals, round_chunks: int) -> tuple[dict[str, float], dict[str, str]]:
    """Times at the reference host speed where the workload is host-scaled.

    Rates and CPU time are medians over rounds of ``round_chunks`` chunks,
    which a burst of contention from outside moves less than it moves a mean.
    """
    episodes = timed.attempted
    rates, cpu_ms = [], []
    stats = [(attempted, failed, wall * k, cpu * k)
             for (attempted, failed, wall, cpu), k in zip(timed.chunk_stats, timed.scales)]
    for at in range(0, len(stats) - round_chunks + 1, round_chunks):
        attempted, failed, wall, cpu = (sum(col) for col in zip(*stats[at:at + round_chunks]))
        rates.append((attempted - failed) / wall)
        cpu_ms.append(cpu * 1000.0 / attempted)
    tail, beyond = p90(timed.episode_scaled_s)
    metrics = {
        "episodes_per_s": statistics.median(rates),
        "episode_ms_p50": statistics.median(timed.episode_scaled_s) * 1000.0,
        "episode_ms_tail": tail * 1000.0,
        "requests_per_episode": timed.requests / episodes,
        "user_cpu_ms_per_episode": statistics.median(cpu_ms),
        "success_rate": timed.successes / episodes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"episode_ms_tail": f"p90 of {episodes} episodes, {beyond} beyond"}
    if any(k != 1.0 for k in timed.scales):
        raw_p50 = statistics.median(timed.episode_s) * 1000.0
        notes["episode_ms_p50"] = (f"unscaled {raw_p50:.4g} ms, "
                                   f"median host-speed scale {statistics.median(timed.scales):.3f}")
    return metrics, notes


def per_layer(workload: Workload, reference: dict, seconds: float,
              spans_path: Path) -> tuple[dict[str, float], dict[str, str], list[Totals]]:
    """Untraced and traced chunks in turn, then metrics from the spans.

    Each traced chunk follows an untraced run of the same chunk from a
    stream of its own (with its own caches), so the two walls compare the
    same work in the same warm process.
    """
    tracer = Tracer()
    plain, traced = Totals(), Totals()
    plain_chunks, traced_chunks = workload.chunks(), workload.chunks()
    call = tracer.wrap("run_benchmark", run_benchmark)
    started = time.perf_counter()
    while time.perf_counter() - started < seconds and len(tracer.spans) < SPAN_BUDGET:
        chunk = next(plain_chunks)
        workload.check(chunk, workload.run_chunk(chunk, plain), reference, plain)
        patches = Patches()
        try:
            trace_engine(workload, tracer, patches)
            chunk = next(traced_chunks)
            workload.check(chunk, workload.run_chunk(chunk, traced, call), reference, traced)
        finally:
            patches.restore()
    metrics, notes = layer_metrics(tracer.spans, traced.wall_s)
    metrics["trace.overhead_ratio"] = traced.wall_s / plain.wall_s
    attempted = plain.attempted + traced.attempted
    metrics["harness.failed_ratio"] = (plain.failed + traced.failed) / attempted
    tracer.write(spans_path)
    return metrics, notes, [plain, traced]


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    out_dir = OUT / f"{args.workload}-{os.getpid()}"
    reference = load_reference()
    workload = WORKLOAD_TYPES[args.workload](args.seed, out_dir)
    try:
        with timed_episodes(workload):
            return run(workload, args, reference)
    finally:
        workload.close()
        shutil.rmtree(out_dir, ignore_errors=True)


def run(workload: Workload, args: argparse.Namespace, reference: dict) -> int:
    """Set up, say ready, then measure and print the result line."""
    workload.setup()
    print("ready", flush=True)
    mismatches = list(getattr(workload, "warmup", Totals()).mismatches)
    if args.setup_only:
        return 0
    host_scale = 1.0
    if args.trace:
        spans_path = OUT / "trace" / f"{args.workload}-seed{args.seed}.tsv"
        metrics, notes, phases = per_layer(workload, reference, args.seconds, spans_path)
        units = LAYER_UNITS
    else:
        phases = [run_phase(workload, reference, args.seconds)]
        metrics, notes = end_to_end(phases[0], workload.round_chunks)
        units = UNITS
        host_scale = statistics.median(phases[0].scales)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    for phase in phases:
        mismatches += phase.mismatches
    for line in mismatches[:20]:
        print(f"gate: {line}", file=sys.stderr)
    result = {
        "correct": not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "notes": notes,
        "host_scale": host_scale,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
