"""The four workloads: what each runs, what it measures, what it checks.

Every workload drives the real CLI (``repro.cli.main`` through
:mod:`launch`) and fills an :class:`Outcome`:

* ``e2e`` — the end-to-end metrics (see ``README.md`` for what each one
  means on each workload), measured with tracing off;
* ``layers`` — the per-layer metrics, filled only on a traced run, which
  also runs the workload once untraced to measure the tracing overhead
  and to show the wrappers do not change the program's output;
* ``checks`` — named correctness checks; any failure makes the run fail.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import random
import re
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from urllib.parse import quote

import layers
import loadgen
import procs
from pinned import PINNED_DIGESTS

CACHE_DIR = procs.BENCH_DIR / ".cache"
OUT_DIR = procs.BENCH_DIR / ".out"

#: Dataset-size flags per ``--scale``; ``default`` is the program's own
#: defaults (2000 accounts, 1600 crawled users, 60 days).
SCALES = {
    "default": [],
    "small": ["--population", "400", "--users", "300", "--days", "10"],
}

#: How many ``repro live`` passes a run makes (median set-up and cost).
LIVE_PASSES = 3
#: How many times a run boots a server to take the median set-up.
SERVER_BOOTS = 11

#: Live stream micro-batch size per ``--scale`` (one snapshot build per
#: batch); small datasets use small batches so reads overlap the stream.
LIVE_BATCH = {"default": 256, "small": 16}


@dataclass
class Context:
    """Arguments of one benchmark run plus its scratch directory."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    dataset_seed: int
    scale: str
    tmp: Path = field(default_factory=Path)

    @property
    def scale_flags(self) -> list[str]:
        return SCALES[self.scale]

    def expected_digest(self, dataset: str) -> str | None:
        """The pinned study digest for this dataset, seed and scale."""
        return PINNED_DIGESTS.get(f"{dataset}/seed{self.dataset_seed}/{self.scale}")


@dataclass
class Outcome:
    """What a workload measured and checked."""

    e2e: dict[str, float] = field(default_factory=dict)
    layers: dict[str, tuple[float, str]] = field(default_factory=dict)
    info: dict[str, object] = field(default_factory=dict)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """Record one named correctness check."""
        self.checks.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def layer(self, name: str, value: float, unit: str) -> None:
        self.layers[name] = (float(value), unit)


def file_digest(path: Path) -> str:
    """SHA-256 of a saved study — the program's study digest."""
    return hashlib.sha256(path.read_bytes()).hexdigest()


def program_fingerprint() -> str:
    """Hash of every source file under ``src/`` (names and bytes).

    Cached artifacts are keyed by it, so a checkout whose program
    changed never serves a study an earlier version of it wrote.
    """
    src = procs.ROOT / "src"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        parts = path.relative_to(src).parts
        if (not path.is_file() or "__pycache__" in parts
                or any(part.endswith(".egg-info") for part in parts)):
            continue
        digest.update("/".join(parts).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


# ---------------------------------------------------------------- artifacts
def study_artifact(ctx: Context, dataset: str) -> Path:
    """The saved batch study for ``dataset``, built once per program version."""
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    path = CACHE_DIR / (f"{dataset}-seed{ctx.dataset_seed}-{ctx.scale}"
                        f"-{program_fingerprint()}.study.json")
    if not path.exists():
        staging = ctx.tmp / f"staging-{dataset}.json"
        procs.run_command(
            ["study", "--dataset", dataset, "--seed", str(ctx.dataset_seed),
             *ctx.scale_flags, "--save", str(staging)],
            ctx.tmp / "staging-report.json", tmp_env(ctx),
        )
        os.replace(staging, path)
    return path


def tmp_env(ctx: Context, extra: dict[str, str] | None = None) -> dict[str, str]:
    """Keep the program's temporary files inside this run's directory."""
    return {"TMPDIR": str(ctx.tmp), **(extra or {})}


class Reference:
    """An in-process ``ServingApp`` over a saved study: the expected bytes."""

    def __init__(self, artifact: Path, gazetteer: str):
        sys.path.insert(0, str(procs.ROOT / "src"))
        from repro.geo.reverse import ReverseGeocoder
        from repro.geocode.backend import DirectBackend
        from repro.geocode.service import GeocodeService
        from repro.geodata.registry import dataset_gazetteer
        from repro.serving import ServingApp, SnapshotStore, load_snapshot

        self.gazetteer = dataset_gazetteer(gazetteer)
        self.snapshot = load_snapshot(artifact, self.gazetteer)
        self.app = ServingApp(
            SnapshotStore(self.snapshot),
            GeocodeService(DirectBackend(ReverseGeocoder(self.gazetteer))),
        )

    def mismatches(self, evidence: loadgen.Evidence) -> list[str]:
        """Targets whose served (status, body) differ from in-process dispatch."""
        bad = []
        for target, answer in evidence.first.items():
            if self.app.dispatch("GET", target.decode()) != answer:
                bad.append(target.decode())
        return bad


# --------------------------------------------------------------- read mixes
#: The request kinds a read mix sends, each equally often: ``/lookup`` of
#: hot users and of unknown ids, ``/region``, ``/stats``, warm ``/reverse``
#: (64 fixed points, far fewer than the server's 65,536-cell cache) and
#: cold ``/reverse`` (uniform points over the catalogue's extent at
#: 0.001-degree cells, so practically every one misses the cache).  No
#: record of real traffic exists to weight them by; the traced run
#: reports each kind's server CPU per request on its own, so a claim can
#: be checked one endpoint at a time whatever the mix.
REQUEST_KINDS = ("lookup", "lookup_unknown", "region", "stats", "reverse_warm",
                 "reverse_cold")
#: The live reader leaves cold ``/reverse`` out: over the world-wide
#: gazetteer one costs ~38 ms (against < 0.2 ms for every other kind), so
#: at the reader's rate it alone would saturate the live process and the
#: workload would measure that backlog instead of the ingest.
LIVE_KINDS = REQUEST_KINDS[:-1]


class ReadMix:
    """Seeded request targets over one snapshot's keys, ``kinds`` in equal shares."""

    def __init__(self, reference: Reference, seed: int,
                 kinds: tuple[str, ...] = REQUEST_KINDS):
        rng = random.Random(f"mix-{seed}")
        users = sorted(reference.snapshot.users)
        self.hot_users = rng.sample(users, min(32, len(users)))
        self.states = sorted(reference.snapshot.regions)
        districts = list(reference.gazetteer.districts)
        hot = rng.sample(districts, min(64, len(districts)))
        self.hot_points = [
            (d.center.lat + rng.uniform(-0.01, 0.01),
             d.center.lon + rng.uniform(-0.01, 0.01)) for d in hot
        ]
        lats = [d.center.lat for d in districts]
        lons = [d.center.lon for d in districts]
        self.box = (min(lats), max(lats), min(lons), max(lons))
        self.kinds = kinds
        self.seed = seed

    def target(self, rng: random.Random, kind: str | None = None) -> bytes:
        """One target of ``kind``, or of a kind drawn uniformly."""
        kind = kind or rng.choice(self.kinds)
        if kind == "lookup":
            path = f"/lookup?user={rng.choice(self.hot_users)}"
        elif kind == "lookup_unknown":
            path = f"/lookup?user={900_000_000 + rng.randrange(1_000_000)}"
        elif kind == "region":
            path = f"/region?state={quote(rng.choice(self.states))}"
        elif kind == "stats":
            path = "/stats"
        elif kind == "reverse_warm":
            lat, lon = rng.choice(self.hot_points)
            path = f"/reverse?lat={lat:.6f}&lon={lon:.6f}"
        else:
            lat_lo, lat_hi, lon_lo, lon_hi = self.box
            path = (f"/reverse?lat={rng.uniform(lat_lo, lat_hi):.6f}"
                    f"&lon={rng.uniform(lon_lo, lon_hi):.6f}")
        return path.encode()

    def stream(self, name: str, kind: str | None = None):
        """An endless seeded target sequence (one per connection)."""
        rng = random.Random(f"{name}-{self.seed}")
        while True:
            yield self.target(rng, kind)

    def schedule(self, name: str, count: int) -> list[bytes]:
        rng = random.Random(f"{name}-{self.seed}")
        return [self.target(rng) for _ in range(count)]


# ----------------------------------------------------------------- helpers
def host_info() -> dict[str, object]:
    import platform

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "loadavg_1m": os.getloadavg()[0],
    }


def per_op_us(seconds: float, ops: int) -> float:
    """CPU microseconds per operation."""
    return seconds / max(ops, 1) * 1e6


def process_cpu() -> float:
    times = os.times()
    return times.user + times.system


def trace_paths(ctx: Context, name: str) -> tuple[Path, Path]:
    """Span-summary path (scratch) and Chrome trace path (kept)."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return ctx.tmp / f"{name}.summary.json", OUT_DIR / f"trace-{name}.json"


def add_span_layers(out: Outcome, summary: dict) -> None:
    """Per-layer ``.calls``/``.self_s`` (and ``.s`` totals) from a span summary."""
    rows = summary["layers"]
    totals = {name for name, _ in layers.ARTIFACT} | {"fleet.targets.request"}
    names = ["python.import"] + [name for name, _ in layers.SPANS]
    for name in names:
        row = rows.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        out.layer(f"{name}.calls", row["calls"], "count")
        out.layer(f"{name}.self_s", row["self_s"], "s")
        if name in totals:
            out.layer(f"{name}.s", row["total_s"], "s")
    batches = rows.get("streaming.queue.take_batch", {"calls": 0})["calls"]
    items = summary["counters"].get("streaming.queue.take_batch.items", 0)
    out.layer("streaming.queue.take_batch.calls", batches, "count")
    out.layer("streaming.queue.take_batch.items_per_call",
              items / batches if batches else 0.0, "count")
    out.layer("serving.aio.executor_offloads",
              summary["counters"].get("serving.aio.executor_offloads", 0), "count")
    lookups = summary["counters"].get("geocode.service.l1_lookups", 0)
    hits = summary["counters"].get("geocode.service.l1_hits", 0)
    out.layer("geocode.service.l1_hit_ratio", hits / lookups if lookups else 0.0, "ratio")
    out.layer("geocode.service.l1_lookups", lookups, "count")
    out.layer("trace.coverage", summary["coverage"], "ratio")
    out.layer("trace.spans", summary["spans"], "count")


def wall_layers(out: Outcome, throughput: float, latencies_s: list[float]) -> None:
    """Wall-clock throughput and latency percentiles, measured untraced.

    Reported per layer rather than end to end: on a shared two-vCPU host
    their run-to-run spread is dominated by scheduling noise.
    """
    out.layer("wall.throughput_per_s", throughput, "1/s")
    for q in (50, 95, 99):
        out.layer(f"wall.p{q}_ms", loadgen.percentile(latencies_s, q) * 1000.0, "ms")


def read_json(port: int, target: str) -> dict:
    status, body = loadgen.get(port, target)
    if status != 200:
        raise RuntimeError(f"GET {target} answered {status}")
    return json.loads(body)


# ------------------------------------------------------------ study-korean
_TWEETS_RE = re.compile(r"total tweets collected\s+(\d+)")


def run_study_once(ctx: Context, index: int, traced: bool) -> tuple[float, dict, Path, int, dict | None]:
    """One ``repro study --save``: wall, exit report, artifact, tweets, spans."""
    artifact = ctx.tmp / f"study-{index}.json"
    summary_path = events_path = None
    if traced:
        summary_path, events_path = trace_paths(ctx, ctx.workload)
    wall, report, stdout = procs.run_command(
        ["study", "--dataset", "korean", "--seed", str(ctx.dataset_seed),
         *ctx.scale_flags, "--save", str(artifact)],
        ctx.tmp / f"study-{index}.report.json",
        tmp_env(ctx, procs.trace_env(summary_path, events_path)),
    )
    match = _TWEETS_RE.search(stdout)
    tweets = int(match.group(1)) if match else 0
    summary = json.loads(summary_path.read_text()) if traced else None
    return wall, report, artifact, tweets, summary


def study_korean(ctx: Context) -> Outcome:
    """``repro study --dataset korean --save``: the paper's batch job."""
    out = Outcome()
    expected = ctx.expected_digest("korean")
    digests = []

    def verify(artifact: Path) -> str:
        digest = file_digest(artifact)
        digests.append(digest)
        out.attempted += 1
        if expected is not None and digest != expected:
            out.failed += 1
        return digest

    if ctx.trace:
        base_wall, _, base_artifact, tweets, _ = run_study_once(ctx, 0, traced=False)
        wall_layers(out, tweets / base_wall, [base_wall])
        wall, _, artifact, _, summary = run_study_once(ctx, 1, traced=True)
        base, traced = verify(base_artifact), verify(artifact)
        out.check("traced study digest equals untraced", base == traced,
                  f"{base[:16]} vs {traced[:16]}")
        add_span_layers(out, summary)
        out.layer("trace.overhead", wall / base_wall - 1.0, "ratio")
    else:
        setups, raw_setups = [], []
        for index in range(5):
            wall, report, _ = procs.run_command(["--version"],
                                                ctx.tmp / f"version-{index}.json")
            setups.append(report["scaled_wall_s"])
            raw_setups.append(wall)
        walls, rss, rates, cpu, scaled, sys_cpu, probe_ms = [], [], [], [], [], [], []
        started = time.perf_counter()
        index = 0
        while index == 0 or (time.perf_counter() - started < ctx.seconds and index < 5):
            wall, report, artifact, tweets, _ = run_study_once(ctx, index, traced=False)
            verify(artifact)
            walls.append(wall)
            rss.append(report["tree_peak_rss_mb"])
            rates.append(tweets / wall)
            cpu.append(per_op_us(report["user_cpu_s"], tweets))
            scaled.append(per_op_us(report["scaled_user_cpu_s"], tweets))
            sys_cpu.append(per_op_us(report["sys_cpu_s"], tweets))
            probe_ms.append(report["probe_ms"])
            out.check(f"study {index} reports its tweet count", tweets > 0)
            out.check(f"study {index} left no child process running",
                      not report["leftovers"], f"{report['leftovers']} left")
            out.failed += report["leftovers"]
            index += 1
        out.e2e = {
            "setup_s": median(setups),
            "norm_cpu_us_per_op": median(scaled),
            "peak_rss_mb": median(rss),
        }
        wall_layers(out, median(rates), [median(walls)])
        out.layer("user_cpu_us_per_op", median(cpu), "us")
        out.layer("sys_cpu_us_per_op", median(sys_cpu), "us")
        out.layer("host.probe_ms", median(probe_ms), "ms")
        out.layer("setup_raw_s", median(raw_setups), "s")
        out.info["study_s"] = walls
        out.info["setups_s"] = raw_setups
    out.check("every study artifact has the same digest", len(set(digests)) == 1,
              ", ".join(sorted({d[:16] for d in digests})))
    if expected is not None:
        out.check("study digest equals the pinned digest", digests[0] == expected,
                  f"{digests[0][:16]} vs pinned {expected[:16]}")
    out.info["digest"] = digests[0]
    return out


# ------------------------------------------------------- serve-mixed, fleet
@dataclass
class ClosedPhase:
    """Closed-loop traffic against running servers, and what it cost them."""

    result: loadgen.LoopResult
    user_s: float  # every server process, user mode
    scaled_s: float  # the same, scaled to the reference speed (SpeedProbe)
    sys_s: float  # every server process, system mode
    front_s: float  # the spawned process alone (the fleet's front)
    gen_s: float  # the load generator's own CPU
    wall_s: float
    probe_ms: list[float] = field(default_factory=list)
    warm_evidence: loadgen.Evidence = field(default_factory=loadgen.Evidence)

    def add(self, other: "ClosedPhase") -> None:
        """Pool another server's closed loop into this one."""
        elapsed = self.result.elapsed_s + other.result.elapsed_s
        self.result.merge(other.result)
        self.result.elapsed_s = elapsed
        self.user_s += other.user_s
        self.scaled_s += other.scaled_s
        self.sys_s += other.sys_s
        self.front_s += other.front_s
        self.gen_s += other.gen_s
        self.wall_s += other.wall_s
        self.probe_ms += other.probe_ms
        self.warm_evidence.merge(other.warm_evidence)


#: Share of ``--seconds`` spent in the closed loop (the rest is open loop).
CLOSED_SHARE = 0.6
#: Pipelined requests per connection write in the closed loop.
PIPELINE_DEPTH = 64
#: Open-loop request rates: low enough that queueing stays small, so
#: latency shows service time rather than backlog.
SERVE_OPEN_RATE = 300.0
FLEET_OPEN_RATE = 150.0
#: Closed-loop seconds per request kind in serve-mixed's per-kind phase.
PER_KIND_SECONDS = 1.0


@contextlib.contextmanager
def generator_gc_paused():
    """No cyclic-GC pauses in the load generator while it times requests.

    The evidence it keeps (a body per distinct target) grows to tens of
    thousands of objects; a full collection would stall the generator
    and be charged to the server as latency.
    """
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def closed_phase(port: int, mix: ReadMix, seconds: float, server_pids,
                 name: str) -> ClosedPhase:
    """Closed loop on two connections for ``seconds``.

    Each connection pipelines ``PIPELINE_DEPTH`` requests per write so
    that the server, not the round trip, limits throughput.  The first
    quarter (at most half a second) warms the server's caches; its
    requests are checked but neither timed nor charged CPU.
    """
    warmup = min(0.5, seconds / 4.0)
    streams = [mix.stream(f"{name}-{index}") for index in range(2)]
    with generator_gc_paused():
        warm = loadgen.closed_loop(port, streams, 0.0, warmup, depth=PIPELINE_DEPTH)
    pids = server_pids()
    (user_before, sys_before), front_before = procs.cpu_times(pids), procs.cpu_times(pids[:1])
    gen_before = process_cpu()
    began = time.perf_counter()
    with generator_gc_paused(), procs.SpeedProbe(server_pids) as probe:
        result = loadgen.closed_loop(port, streams, seconds - warmup, 0.0,
                                     depth=PIPELINE_DEPTH)
    wall = time.perf_counter() - began
    user_after, sys_after = procs.cpu_times(pids)
    user = user_after - user_before
    phase = ClosedPhase(
        result, user, probe.scale(user), sys_after - sys_before,
        sum(procs.cpu_times(pids[:1])) - sum(front_before), process_cpu() - gen_before,
        wall, [probe.task_ms])
    result.elapsed_s = seconds - warmup
    phase.warm_evidence.merge(warm.evidence)
    return phase


def open_phase(port: int, mix: ReadMix, seconds: float, rate: float) -> loadgen.LoopResult:
    """Open loop at ``rate`` requests per second for ``seconds``."""
    targets = mix.schedule("open", int(rate * seconds))
    with generator_gc_paused():
        return loadgen.open_loop(port, targets, rate, seconds, connections=2)


def serving_metrics(out: Outcome, closed: ClosedPhase, opened: loadgen.LoopResult) -> None:
    """rps, open-loop p50/p95, generator accounting, server CPU."""
    requests = closed.result.evidence.attempted
    server_cpu_s = closed.user_s + closed.sys_s
    out.e2e["norm_cpu_us_per_op"] = per_op_us(closed.scaled_s, requests)
    wall_layers(out, closed.result.completed / closed.result.elapsed_s, opened.latencies)
    busy = server_cpu_s / closed.wall_s
    gen_busy = closed.gen_s / closed.wall_s
    late_ms = loadgen.percentile(opened.late, 99) * 1000.0
    out.info.update({
        "closed_requests": requests,
        "open_requests": opened.evidence.attempted,
        "gen.late_ms_p99": late_ms,
        "gen.busy_frac": gen_busy,
        "server.busy_frac": busy,
        # The generator is one Python process: a saturated generator
        # with an idle server means the rps figure measures the client.
        "valid": not (gen_busy > 0.9 and busy < 0.9),
    })
    out.layer("gen.late_ms", late_ms, "ms")
    out.layer("gen.busy_frac", gen_busy, "ratio")
    out.layer("serving.busy_frac", busy, "ratio")
    out.layer("serving.cpu_us_per_req", per_op_us(server_cpu_s, requests), "us")
    out.layer("user_cpu_us_per_op", per_op_us(closed.user_s, requests), "us")
    out.layer("sys_cpu_us_per_op", per_op_us(closed.sys_s, requests), "us")
    out.layer("host.probe_ms", median(closed.probe_ms), "ms")


def verify_evidence(out: Outcome, reference: Reference, evidence: loadgen.Evidence,
                    label: str) -> None:
    """Every answer equals the in-process dispatch over the same snapshot."""
    out.attempted += evidence.attempted
    bad = reference.mismatches(evidence)
    out.failed += evidence.failed + len(bad)
    out.check(f"{label}: every connection succeeded and repeated answers agree",
              evidence.failed == 0, f"{evidence.failed} failed")
    out.check(f"{label}: bodies byte-equal in-process ServingApp.dispatch",
              not bad, f"{len(evidence.first)} distinct targets"
              + (f", first mismatch {bad[0]}" if bad else ""))


def stop_server(out: Outcome, server: procs.Server, label: str) -> int:
    """Stop ``server``; fail a check if it left child processes running."""
    code = server.stop()
    out.failed += server.leftovers
    out.check(f"{label}: no child process outlived the program", not server.leftovers,
              f"{server.leftovers} left running")
    return code


def boot(args: list[str], env: dict[str, str]) -> tuple[procs.Server, tuple[float, float]]:
    """Spawn a server and wait for its first 200 on ``/healthz``.

    Returns the server and its set-up seconds, raw and scaled to the
    reference CPU speed by a :class:`procs.SpeedProbe` run through the boot.
    """
    with procs.SpeedProbe() as probe:
        server = procs.Server(args, env)
        try:
            raw = server.wait_healthy()
        except BaseException:
            server.stop()
            raise
    return server, (raw, raw * probe.speed)


def per_kind_cpu(port: int, mix: ReadMix, server_pids, reference: Reference,
                 out: Outcome, label: str) -> None:
    """Server CPU per request of each request kind on its own.

    One short closed loop per kind, answers checked like the main
    traffic's; reported, scaled like the end-to-end CPU metric, as
    ``serving.norm_cpu_us_per_req.<kind>``.
    """
    evidence = loadgen.Evidence()
    pids = server_pids()
    for kind in REQUEST_KINDS:
        streams = [mix.stream(f"{kind}-{index}", kind) for index in range(2)]
        before = procs.cpu_times(pids)[0]
        with generator_gc_paused(), procs.SpeedProbe(server_pids) as probe:
            result = loadgen.closed_loop(port, streams, PER_KIND_SECONDS * 0.8,
                                         PER_KIND_SECONDS * 0.2, depth=PIPELINE_DEPTH)
        user = procs.cpu_times(pids)[0] - before
        out.layer(f"serving.norm_cpu_us_per_req.{kind}",
                  per_op_us(probe.scale(user), result.evidence.attempted), "us")
        evidence.merge(result.evidence)
    verify_evidence(out, reference, evidence, f"{label} per-kind phase")


def serve_pass(ctx: Context, artifact: Path, mix: ReadMix, reference: Reference,
               traced: bool, out: Outcome, fleet: bool, name: str) -> dict:
    """Boot the server several times, drive traffic, check every answer.

    Each of ``SERVER_BOOTS`` servers (one when traced) gets an equal share
    of the closed loop, so the CPU per request averages over several
    server processes (one process's memory layout alone moves it by ~5%).
    The last one also gets the open loop, and in serve-mixed's traced
    run the per-kind phase.  ``name`` labels the checks and trace files.
    """
    label = f"{name} {'traced' if traced else 'untraced'}"
    summary_path = events_path = None
    if traced:
        summary_path, events_path = trace_paths(ctx, name)
    if fleet:
        args = ["fleet", "run", "--snapshot", str(artifact), "--replicas", "2",
                "--server", "asyncio", "--replica-server", "asyncio", "--port", "0"]
    else:
        args = ["serve", "--snapshot", str(artifact), "--server", "asyncio", "--port", "0"]
    ready_line = "publish:" if fleet else "reload:"
    boots = 1 if ctx.trace else SERVER_BOOTS
    closed_s = ctx.seconds * CLOSED_SHARE / boots
    setups, stops, codes, served = [], [], [], set()
    closed = opened = None
    leftovers = 0
    for attempt in range(boots):
        last = attempt == boots - 1
        env = tmp_env(ctx, procs.trace_env(summary_path, events_path) if last else None)
        server, setup = boot(args, env)
        setups.append(setup)
        try:
            # Traffic starts once the banner is out and the command is
            # parked in its serve loop: `repro fleet run` does not stop its
            # replicas on an interrupt that lands before it reaches that
            # loop (the leftover check below reports it if it happens).
            server.wait_for_line(ready_line, 30.0)
            time.sleep(0.2)
            health = read_json(server.port, "/healthz")
            served.add(health.get("digest") or health.get("version", ""))
            part = closed_phase(server.port, mix, closed_s, server.pids, f"closed{attempt}")
            if closed is None:
                closed = part
            else:
                closed.add(part)
            if last:
                opened = open_phase(server.port, mix, ctx.seconds * (1 - CLOSED_SHARE),
                                    FLEET_OPEN_RATE if fleet else SERVE_OPEN_RATE)
                if ctx.trace and not traced and not fleet:
                    per_kind_cpu(server.port, mix, server.pids, reference, out, label)
                metrics = read_json(server.port,
                                    "/fleet/metrics" if fleet else "/metrics")["metrics"]
                rss = procs.peak_rss_mb(server.pids())
        finally:
            codes.append(server.stop())
            stops.append(server.stop_s)
            leftovers += server.leftovers
    out.failed += leftovers
    out.check(f"{label}: no child process outlived the program", not leftovers,
              f"{leftovers} left running")
    out.check(f"{label}: every server exited cleanly", set(codes) == {0},
              f"exit codes {sorted(set(codes))}")
    digest = reference.snapshot.digest
    out.check(f"{label}: served digest equals the artifact digest",
              all(version and digest.startswith(version) for version in served),
              f"{', '.join(sorted(v[:16] for v in served))} vs {digest[:16]}")
    evidence = loadgen.Evidence()
    for part in (closed.warm_evidence, closed.result.evidence, opened.evidence):
        evidence.merge(part)
    verify_evidence(out, reference, evidence, label)
    result = {"setups": setups, "stops": stops, "closed": closed, "opened": opened,
              "rss": rss, "metrics": metrics}
    if traced:
        result["summary"] = json.loads(summary_path.read_text())
    return result


def front_layers(out: Outcome, result: dict) -> None:
    """The fleet front's own CPU per request and the retries it made."""
    closed = result["closed"]
    requests = closed.result.evidence.attempted
    out.layer("fleet.front.cpu_us_per_req", per_op_us(closed.front_s, requests), "us")
    out.layer("fleet.retries", result["metrics"].get("fleet.retries", 0), "count")


def serve_like(ctx: Context, fleet: bool) -> Outcome:
    """The korean study artifact served directly or through a fleet."""
    out = Outcome()
    artifact = study_artifact(ctx, "korean")
    digest = file_digest(artifact)
    expected = ctx.expected_digest("korean")
    if expected is not None:
        out.check("artifact digest equals the pinned korean digest", digest == expected,
                  f"{digest[:16]} vs pinned {expected[:16]}")
    reference = Reference(artifact, "korean")
    mix = ReadMix(reference, ctx.seed)
    base = serve_pass(ctx, artifact, mix, reference, False, out, fleet, ctx.workload)
    closed = base["closed"]
    serving_metrics(out, closed, base["opened"])
    out.e2e["setup_s"] = median(scaled for _, scaled in base["setups"])
    out.layer("setup_raw_s", median(raw for raw, _ in base["setups"]), "s")
    out.e2e["peak_rss_mb"] = base["rss"]
    out.info["setups_s"] = [raw for raw, _ in base["setups"]]
    out.info["stops_s"] = base["stops"]
    if fleet:
        # The front's CPU is its own layer; serving.* covers the replicas.
        front_layers(out, base)
        out.layer("serving.cpu_us_per_req", per_op_us(
            closed.user_s + closed.sys_s - closed.front_s,
            closed.result.evidence.attempted), "us")
    if ctx.trace:
        traced = serve_pass(ctx, artifact, mix, reference, True, out, fleet, ctx.workload)
        add_span_layers(out, traced["summary"])
        rps = closed.result.completed / closed.result.elapsed_s
        traced_result = traced["closed"].result
        rps_traced = traced_result.completed / traced_result.elapsed_s
        out.layer("trace.overhead", rps / rps_traced - 1.0 if rps_traced else 0.0, "ratio")
    return out


def serve_mixed(ctx: Context) -> Outcome:
    """``repro serve --server asyncio`` over the korean study artifact."""
    return serve_like(ctx, fleet=False)


def fleet_proxy(ctx: Context) -> Outcome:
    """The same traffic through ``repro fleet run`` with two replicas."""
    return serve_like(ctx, fleet=True)


# ------------------------------------------------------------ live-ladygaga
LIVE_READ_RATE = 200.0


def live_pass(ctx: Context, index: int, mix: ReadMix, reference: Reference,
              traced: bool, out: Outcome) -> dict:
    """One ``repro live`` run: set-up, stream with reads, final checks."""
    label = f"live pass {index}" + (" (traced)" if traced else "")
    summary_path = events_path = None
    if traced:
        summary_path, events_path = trace_paths(ctx, ctx.workload)
    state = ctx.tmp / f"live-state-{index}"
    args = ["live", "--dataset", "ladygaga", "--seed", str(ctx.dataset_seed),
            *ctx.scale_flags, "--server", "asyncio", "--port", "0",
            "--state-dir", str(state), "--on-exhausted", "serve",
            "--batch-size", str(LIVE_BATCH[ctx.scale]),
            "--drain-every", str(LIVE_BATCH[ctx.scale]),
            "--cadence", "1"]
    server, setup = boot(args, tmp_env(ctx, procs.trace_env(summary_path, events_path)))
    try:
        started = server.wait_for_line("live: cadence", 5.0)
        stop = threading.Event()
        reads: dict[str, loadgen.LoopResult] = {}
        targets = mix.schedule(f"live-{index}", int(LIVE_READ_RATE * 170))

        def reader() -> None:
            reads["result"] = loadgen.open_loop(
                server.port, targets, LIVE_READ_RATE, 170.0, connections=2,
                verify=False, stop=stop)

        thread = threading.Thread(target=reader)
        user_before, sys_before = procs.cpu_times(server.pids())
        with generator_gc_paused(), procs.SpeedProbe(server.pids) as probe:
            thread.start()
            try:
                ended = server.wait_for_line("stream exhausted", 170.0)
                user_after, sys_after = procs.cpu_times(server.pids())
            finally:
                stop.set()
                thread.join()
        summary_line = next(line for _, line in server.lines if "stream exhausted" in line)
        offset = int(re.search(r"offset (\d+)/", summary_line).group(1))
        metrics = read_json(server.port, "/metrics")["metrics"]
        health = read_json(server.port, "/healthz")
        final = loadgen.Evidence()
        connection = loadgen.HttpConnection(server.port)
        try:
            for target in sorted(set(targets[:2000])):
                final.attempted += 1
                final.check(target, *connection.get(target))
        finally:
            connection.close()
        rss = procs.peak_rss_mb(server.pids())
    finally:
        code = stop_server(out, server, label)
    out.check(f"{label}: process exited cleanly", code == 0, f"exit {code}")
    result = reads["result"]
    bad_reads = sum(n for status, n in result.statuses.items() if status not in (200, 404))
    out.attempted += result.evidence.attempted + final.attempted
    out.failed += result.evidence.failed + bad_reads
    out.check(f"{label}: mid-stream reads answered 200/404", not bad_reads
              and not result.evidence.failed,
              f"{bad_reads} bad status, {result.evidence.failed} failed")
    out.check(f"{label}: final version equals the batch study digest",
              health["digest"] == reference.snapshot.digest,
              f"{health['digest'][:16]} vs batch {reference.snapshot.digest[:16]}")
    bad = reference.mismatches(final)
    out.failed += len(bad)
    out.check(f"{label}: final bodies byte-equal the batch snapshot's",
              not bad, f"{len(final.first)} targets" + (f", first {bad[0]}" if bad else ""))
    swaps = metrics.get("live.swaps", 0)
    if ctx.scale == "default":
        out.check(f"{label}: at least 200 snapshot swaps", swaps >= 200, f"{swaps:.0f} swaps")
    return {
        "setup": setup,
        "ingest_rate": offset / (ended - started),
        "cpu_us_per_tweet": per_op_us(user_after - user_before, offset),
        "scaled_us_per_tweet": per_op_us(probe.scale(user_after - user_before), offset),
        "probe_ms": probe.task_ms,
        "sys_us_per_tweet": per_op_us(sys_after - sys_before, offset),
        "reads": result,
        "rss": rss,
        "metrics": metrics,
        "digest": health["digest"],
        "summary": json.loads(summary_path.read_text()) if traced else None,
    }


def live_ladygaga(ctx: Context) -> Outcome:
    """``repro live --dataset ladygaga``: ingest, publish and serve at once."""
    out = Outcome()
    artifact = study_artifact(ctx, "ladygaga")
    expected = ctx.expected_digest("ladygaga")
    digest = file_digest(artifact)
    if expected is not None:
        out.check("batch digest equals the pinned ladygaga digest", digest == expected,
                  f"{digest[:16]} vs pinned {expected[:16]}")
    reference = Reference(artifact, "combined")
    mix = ReadMix(reference, ctx.seed, LIVE_KINDS)
    if ctx.trace:
        base = live_pass(ctx, 0, mix, reference, False, out)
        traced = live_pass(ctx, 1, mix, reference, True, out)
        add_span_layers(out, traced["summary"])
        out.layer("trace.overhead", base["ingest_rate"] / traced["ingest_rate"] - 1.0, "ratio")
        passes = [base]
    else:
        passes = [live_pass(ctx, i, mix, reference, False, out) for i in range(LIVE_PASSES)]
    latencies = [value for p in passes for value in p["reads"].latencies]
    out.check("reads completed while the stream ran", bool(latencies),
              f"{len(latencies)} reads")
    late = [value for p in passes for value in p["reads"].late]
    metrics = passes[0]["metrics"]
    out.e2e = {
        "setup_s": median([p["setup"][1] for p in passes]),
        "norm_cpu_us_per_op": median([p["scaled_us_per_tweet"] for p in passes]),
        "peak_rss_mb": median([p["rss"] for p in passes]),
    }
    wall_layers(out, median([p["ingest_rate"] for p in passes]), latencies)
    out.layer("user_cpu_us_per_op", median([p["cpu_us_per_tweet"] for p in passes]), "us")
    out.layer("sys_cpu_us_per_op", median([p["sys_us_per_tweet"] for p in passes]), "us")
    out.layer("host.probe_ms", median([p["probe_ms"] for p in passes]), "ms")
    out.layer("setup_raw_s", median([p["setup"][0] for p in passes]), "s")
    out.info.update({
        "ingest_tweets_per_s": [p["ingest_rate"] for p in passes],
        "setups_s": [p["setup"][0] for p in passes],
        "read_samples": len(latencies),
        "gen.late_ms_p99": loadgen.percentile(late, 99) * 1000.0,
    })
    builds = metrics.get("live.builds", 0)
    swaps = metrics.get("live.swaps", 0)
    out.layer("live.swap_lag_p50_ms",
              median([p["metrics"].get("live.swap_lag.p50", 0.0) for p in passes]) * 1000, "ms")
    out.layer("live.swap_lag_p95_ms",
              median([p["metrics"].get("live.swap_lag.p95", 0.0) for p in passes]) * 1000, "ms")
    out.layer("live.useful_build_ratio", swaps / builds if builds else 0.0, "ratio")
    out.layer("live.swaps", swaps, "count")
    out.layer("gen.late_ms", loadgen.percentile(late, 99) * 1000.0, "ms")
    out.info["swap_lag_p50_ms"] = out.layers["live.swap_lag_p50_ms"][0]
    out.info["swap_lag_p95_ms"] = out.layers["live.swap_lag_p95_ms"][0]
    return out


#: The workloads ``BENCHMARK.json`` declares.
WORKLOADS = {
    "study-korean": study_korean,
    "serve-mixed": serve_mixed,
    "live-ladygaga": live_ladygaga,
    "fleet-proxy": fleet_proxy,
}


def make_context(workload: str, seed: int, seconds: float, trace: bool,
                 dataset_seed: int, scale: str) -> Context:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return Context(workload, seed, seconds, trace, dataset_seed, scale,
                   Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR)))
