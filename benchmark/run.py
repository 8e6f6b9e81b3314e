"""The kif benchmark: one command for every workload.

    python3 benchmark/run.py --workload lookup --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory. One process, one client thread, closed loop: each
operation starts when the previous one has been answered and checked.
With ``--trace 0`` the run sets up several times, repeats whole rounds of
the workload for ``--seconds`` and prints the end-to-end metrics. With
``--trace 1`` it prints the per-layer metrics instead (see ``layers``).
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
# Set-up is timed at least SETUPS times and for at least SETUP_SECONDS.
SETUPS = 3
SETUP_SECONDS = 4.0
# Set and dict iteration order, and with it the order in which the graph
# evaluator does its work, follows string hashing, which is salted per
# process unless pinned. Every run uses this salt; the inputs still come
# from --seed.
HASH_SEED = "0"
# The CPUs this process may run on when it starts; how often a round times
# the reference loop again and chooses among them (seconds, checked
# between operations); and the loop's time on the reference machine at its
# fastest (2 virtual CPUs, Intel Xeon at 2.1 GHz, Python 3.11).
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
SETTLE_EVERY = 0.25
REFERENCE_LOOP_S = 1.2e-3
_settled_at = -math.inf
_scale = 1.0


def pin_hash_seed() -> None:
    """Replace this process by itself with the pinned hash seed."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable] + sys.argv, env)


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and check that the
    program imported is the one in it."""
    if not os.path.isfile(os.path.join(SRC, "kif", "__init__.py")):
        raise SystemExit(f"benchmark: no program source under {SRC}")
    sys.path.insert(0, SRC)
    import kif

    if os.path.dirname(os.path.dirname(os.path.abspath(kif.__file__))) != SRC:
        raise SystemExit(f"benchmark: imported kif from {kif.__file__}, not {SRC}")


def _reference_loop() -> float:
    """Best of two timings of a fixed pure-Python loop (about 1.3 ms)."""
    fastest = math.inf
    for _ in range(2):
        started = time.perf_counter()
        table = {}
        for i in range(10000):
            table[i % 1000] = str(i)
        fastest = min(fastest, time.perf_counter() - started)
    return fastest


def settle(every: float = 0.0) -> float:
    """Time the reference loop on each CPU and move every thread of the
    process to the fastest, unless that was done less than *every* seconds
    ago. Returns the factor that brings a time measured now to the
    reference machine's fastest speed.

    Other tenants of a shared machine slow each CPU down, by up to 1.7
    times, in spells of seconds to minutes; on the reference machine the
    two CPUs were often slow at different times, and sometimes both for
    minutes. Threads started later inherit the CPU of the thread that
    starts them.
    """
    global _settled_at, _scale
    if time.perf_counter() - _settled_at < every:
        return _scale
    if len(CPUS) < 2:
        loop = _reference_loop()
    else:
        speeds = []
        for cpu in CPUS:
            os.sched_setaffinity(0, {cpu})
            speeds.append((_reference_loop(), cpu))
        loop, cpu = min(speeds)
        for tid in os.listdir("/proc/self/task"):
            try:
                os.sched_setaffinity(int(tid), {cpu})
            except ProcessLookupError:
                pass              # a thread that has just ended
    _scale = REFERENCE_LOOP_S / loop
    _settled_at = time.perf_counter()
    return _scale


@dataclass
class Sample:
    """One operation of one round, timed and checked."""

    index: int          # position in the round
    label: str          # store the step ran on
    group: object       # dataset size of a scan, else None
    op: object          # the oracle.Op
    seconds: float      # wall time
    scale: float        # settle()'s factor to reference speed at its start
    stmts: int          # statements delivered (filter rows or count)
    raised: bool
    wrong: bool


def run_round(env, options=None, wrap=None, tracer=None, tag=None) -> list[Sample]:
    """Run one round of *env*; *wrap* may replace each store (self-test)."""
    from oracle import check, execute, size

    samples = []
    for i, (label, store, op, group) in enumerate(env.steps(options)):
        if wrap is not None:
            store = wrap(store)
        scale = settle(SETTLE_EVERY)
        root = tracer.root("op", (tag, i)) if tracer else None
        started = time.perf_counter()
        try:
            result = execute(store, op)
            raised = False
        except Exception:  # noqa: BLE001 - a failed operation is counted
            print(f"benchmark: {label} {op.kind} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            result, raised = None, True
        elapsed = time.perf_counter() - started
        if tracer:
            tracer.close(root)
        wrong = not raised and not check(op, result)
        samples.append(Sample(i, label, group, op, elapsed, scale,
                              size(op, result) if not (raised or wrong) else 0,
                              raised, wrong))
    return samples


def run_for(env, seconds: float) -> list[list[Sample]]:
    """Whole rounds until *seconds* have passed."""
    rounds = []
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < seconds:
        rounds.append(run_round(env))
    return rounds


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half of the values (25th to 75th percentile).

    A round mixes stores and operation kinds whose latencies form separate
    clusters; the median falls in a gap between two of them and jumps from
    one to the other between seeds, the mean of the middle half does not.
    """
    ordered = sorted(values)
    n = len(ordered)
    return statistics.mean(ordered[n // 4:n - n // 4])


def tail_percentile(n: int) -> float:
    """The highest of the usual percentiles with at least ten of *n*
    samples beyond it."""
    return next((p for p in (99.0, 98.0, 95.0, 90.0, 85.0, 80.0, 75.0)
                 if n * (100.0 - p) / 100.0 >= 10), 50.0)


def typical(rounds: list[list[Sample]]) -> list[tuple[Sample, float]]:
    """Each operation of the round with its median time over the run's
    rounds, each time brought to reference speed.

    The factor corrects for the spells in which other tenants slow the
    whole machine down; the median, for what is left: a collection or a
    scheduling hiccup that one try meets and the next does not.
    """
    return [(rounds[0][i],
             statistics.median(r[i].seconds * r[i].scale for r in rounds))
            for i in range(len(rounds[0]))]


def rate(ops: list[tuple[Sample, float]]) -> tuple[float, float]:
    """(operations, statements) per second of the given operations."""
    seconds = sum(t for _, t in ops)
    return len(ops) / seconds, sum(s.stmts for s, _ in ops) / seconds


def close(env) -> None:
    """Stop the set-up's endpoints and check that none survives."""
    from workloads import leaked_endpoint_threads

    env.close()
    leaked = leaked_endpoint_threads()
    if leaked:
        raise SystemExit(f"benchmark: endpoint threads still alive: {leaked}")


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, seed: int, seconds: float) -> tuple[dict, list[Sample]]:
    setups = []
    started = time.perf_counter()
    while True:
        gc.collect()          # each set-up starts from the same heap
        scale = settle()
        env = workload(seed)
        setups.append(env.setup_s * scale)
        if len(setups) >= SETUPS and time.perf_counter() - started >= SETUP_SECONDS:
            break
        close(env)
        env = None
    try:
        rounds = run_for(env, seconds)
    finally:
        close(env)
    ops = typical(rounds)
    latencies = [t for _, t in ops]
    ops_per_s, stmts_per_s = rate(ops)
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mib": metric(peak_rss_mib(), "MiB"),
        "op_iqm_ms": metric(interquartile_mean(latencies) * 1e3, "ms"),
        "op_tail_ms": metric(percentile(latencies, tail_percentile(len(ops))) * 1e3, "ms"),
        "ops_per_s": metric(ops_per_s, "1/s"),
        "stmts_per_s": metric(stmts_per_s, "stmt/s"),
    }, [s for r in rounds for s in r]


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

BACKENDS = ("memory", "rdf", "sparql", "mixer")


def layers(workload, seed: int, seconds: float) -> tuple[dict, list[Sample]]:
    """Per-layer metrics: a traced set-up, an untraced pass of half the
    time, traced rounds with the cache on for a quarter of it (at least
    one), and one traced round with the cache off. Times and counts are
    per traced round."""
    from kif.stores import StoreOptions
    from tracing import Tracer
    from workloads import ScanEnv

    tracer, uncached = Tracer(), Tracer()
    with tracer.installed():
        root = tracer.root("setup", "setup")
        try:
            env = workload(seed)
        finally:
            tracer.close(root)
    try:
        rounds = run_for(env, seconds / 2)
        traced = []
        env.tracer = tracer
        env.register(tracer)
        with tracer.installed():
            deadline = time.perf_counter() + seconds / 4
            while not traced or time.perf_counter() < deadline:
                traced.append(run_round(env, tracer=tracer, tag=("cache", len(traced))))
        env.tracer = uncached
        env.register(uncached)
        with uncached.installed():
            no_cache = run_round(env, StoreOptions(cache_enabled=False),
                                 tracer=uncached, tag=("nocache", 0))
    finally:
        close(env)
    for t in (tracer, uncached):
        t.attach_endpoint_spans()
    absent = sorted(set(tracer.absent))
    if absent:
        print(f"benchmark: not in this program, metrics left out: {absent}",
              file=sys.stderr)

    n = len(traced)
    setup, op_shares, walls, inclusive = _aggregate(tracer)
    counts = {k: v / n for k, v in tracer.counts.items()}
    count = lambda key: counts.get(key, 0.0)  # noqa: E731
    out = {}

    def put(name, value, unit, needs=()):
        # A metric fed by a wrapped function the program no longer has is
        # left out rather than reported as 0.
        if not any(a.startswith(prefix) for prefix in needs for a in absent):
            out[name] = metric(value, unit)

    def ratio(a, b):
        return a / b if b else 0.0

    def layer(prefix):
        return sum(t for name, t in op_shares.items() if name.startswith(prefix)) / n

    requests = count("http.requests") + count("stores.graph_requests")
    requests_uncached = (uncached.counts["http.requests"]
                         + uncached.counts["stores.graph_requests"])
    put("codec.encode_s", setup.get("codec.encode", 0.0), "s", ["kif.codec.encode"])
    put("ntriples.write_s", setup.get("ntriples.write", 0.0), "s", ["kif.rdf.ntriples.ser"])
    put("ntriples.parse_s", setup.get("ntriples.parse", 0.0), "s", ["kif.rdf.ntriples.parse"])
    put("codec.compile_s", layer("codec.compile"), "s", ["kif.codec.compile"])
    put("codec.compile_calls", count("codec.compile_calls"), "count", ["kif.codec.compile"])
    put("codec.assemble_s", layer("codec.assemble"), "s", ["kif.codec.assemble"])
    put("sparql.serialize_s", layer("sparql.serialize"), "s", ["kif.stores.backed.serialize"])
    put("sparql.serialize_calls", count("sparql.serialize_calls"), "count",
        ["kif.stores.backed.serialize"])
    put("sparql.parse_s", layer("sparql.parse"), "s", ["kif.rdf.server.parse"])
    put("server.encode_s", layer("server.encode"), "s", ["kif.rdf.server.results"])
    put("bgp.eval_s", layer("bgp.eval"), "s", ["kif.stores.backed.match", "kif.rdf.server.match"])
    put("bgp.calls", count("bgp.calls"), "count", ["kif.stores.backed.match"])
    put("bgp.rows_returned", count("bgp.rows_returned"), "count", ["kif.stores.backed.match"])
    put("bgp.triples_scanned", count("bgp.triples_scanned"), "count", ["kif.rdf.terms"])
    put("bgp.scanned_per_row", ratio(count("bgp.triples_scanned"), count("bgp.rows_returned")),
        "ratio", ["kif.rdf.terms", "kif.stores.backed.match"])
    put("http.requests", count("http.requests"), "count", ["kif.stores.backed.HttpBackend"])
    put("http.select_s", inclusive.get("http.select", 0.0) / n, "s",
        ["kif.stores.backed.HttpBackend"])
    put("http.decode_s", layer("http.decode"), "s", ["kif.stores.backed.decode"])
    put("http.transport_s", layer("http.select"), "s", ["kif.stores.backed.HttpBackend"])
    put("http.connects", count("http.connects"), "count", ["http.client"])
    put("stores.self_s", layer("stores."), "s", ["kif.stores.base"])
    put("stores.requests_per_op", ratio(requests, len(rounds[0])), "1/op", ["kif.stores.backed"])
    put("stores.node_fetch_requests", count("stores.node_fetch_requests"), "count",
        ["kif.codec.node_fetch"])
    put("stores.cache_hit_ratio", 1.0 - ratio(requests, requests_uncached)
        if requests_uncached else 0.0, "ratio", ["kif.stores.backed"])
    usual = typical(rounds)
    for size in ScanEnv.SIZES:
        scans = [(s, t) for s, t in usual if s.group == size and s.op.kind == "filter"
                 and s.op.limit is None and s.op.arg.is_wildcard()]
        put(f"stores.scan_ms_per_stmt.{size}",
            ratio(sum(t for _, t in scans) * 1e3, sum(s.stmts for s, _ in scans)), "ms/stmt")
    put("mapper.translate_s", layer("mapper.translate"), "s", ["kif.mapper"])
    put("mapper.requests", count("mapper.requests"), "count", ["kif.stores.backed.HttpBackend"])
    put("mapper.rows_per_stmt", ratio(count("mapper.rows"), count("mapper.emitted")), "ratio",
        ["kif.stores.backed.HttpBackend"])
    for i in range(2):
        put(f"mixer.child_s.{i}", inclusive.get(f"child.{i}", 0.0) / n, "s", ["kif.stores.base"])
    put("mixer.self_s", layer("mixer."), "s", ["kif.stores.base"])
    put("mixer.fetched_per_emitted", ratio(count("mixer.fetched"), count("mixer.emitted")),
        "ratio", ["kif.stores.base"])
    put("mixer.threads_started", count("mixer.threads_started"), "count", ["threading"])
    put("decoder.decode_s", layer("decoder."), "s", ["kif.decoder"])
    put("bench.self_s", layer("op"), "s")
    put("trace.overhead", sum(t for _, t in typical(traced))
        / sum(t for _, t in usual) - 1.0, "ratio")
    put("trace.self_sum_error_s", max(abs(w - s) for w, s in walls), "s")
    for backend in BACKENDS:
        mine = [(s, t) for s, t in usual if s.label == backend]
        put(f"{backend}.op_p50_ms",
            statistics.median(t for _, t in mine) * 1e3 if mine else 0.0, "ms")
        if backend in ("rdf", "sparql"):
            put(f"{backend}.stmts_per_s", rate(mine)[1] if mine else 0.0, "stmt/s")
    return out, [s for r in rounds + traced + [no_cache] for s in r]


def _aggregate(tracer) -> tuple[dict, dict, list, dict]:
    """From the spans of the set-up and of the operations with the cache on:
    self time per span name in the set-up and summed over the operations,
    each operation's (wall time, sum of self times), and the inclusive
    time of HTTP requests and of each mixer child's calls."""
    setup: dict[str, float] = {}
    shares: dict[str, float] = {}
    walls = []
    for op, (wall, named) in tracer.self_times().items():
        if op == "setup":
            setup = named
            continue
        walls.append((wall, sum(named.values())))
        for name, t in named.items():
            shares[name] = shares.get(name, 0.0) + t
    by_id = {s.sid: s for s in tracer.spans}
    inclusive: dict[str, float] = {}
    for s in tracer.spans:
        if s.op is None or s.op == "setup":
            continue
        if s.name == "http.select":
            inclusive["http.select"] = inclusive.get("http.select", 0.0) + s.end - s.start
        parent = by_id.get(s.parent)
        if s.child is not None and (parent is None or parent.child != s.child):
            key = f"child.{s.child}"
            inclusive[key] = inclusive.get(key, 0.0) + s.end - s.start
    return setup, shares, walls, inclusive


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_hash_seed()
    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    run = layers if args.trace else end_to_end
    metrics, samples = run(workload, args.seed, args.seconds)
    wrong = sum(s.wrong for s in samples)
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": len(samples),
        "failed": sum(s.raised or s.wrong for s in samples),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
