"""Span tracing of the program's public functions, installed from outside.

The tracer replaces public functions and methods of each layer with
wrappers that record spans (name, start, end, parent, operation id) and
counts, and puts the originals back on ``uninstall``. Nothing inside the
program is edited. A target a later version of the program no longer has
is listed in ``absent`` and its metrics are left out; the run goes on.

Spans on the benchmark's own thread nest through a stack. A mixer's pool
threads start with an empty stack; their spans hang under the span the
benchmark thread had open at that moment. The endpoint shares the
process: a handler thread serves one client connection, so its spans
belong to the request in flight on that endpoint, which the single-client
closed loop makes unique; they are attached after the pass.

Self time splits an operation's wall time over layers: at every instant,
the open spans with no open descendant share the instant equally, so the
self times of one operation add up to its wall time even while a mixer's
children run concurrently.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "op", "thread",
                 "url", "child")

    def __init__(self, sid, name, parent, op, thread) -> None:
        self.sid = sid
        self.name = name
        self.parent = parent
        self.op = op
        self.thread = thread
        self.url = None
        self.child = None
        self.start = time.perf_counter()
        self.end = None


def _is_handler_thread() -> bool:
    return "process_request_thread" in threading.current_thread().name


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self.op = None                        # operation id in flight
        self.children: dict[int, int] = {}    # id(store) -> mixer child index
        self.mapper_urls: set[str] = set()    # sources read by mappers
        self.endpoints: dict[str, int] = {}   # endpoint url -> id(graph)
        self.handler_graph: dict[int, int] = {}
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._client = threading.get_ident()
        self._client_stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans and counts --------------------------------------------------

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._client:
            return self._client_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent, op = stack[-1].sid, stack[-1].op
        elif threading.get_ident() != self._client and not _is_handler_thread() \
                and self._client_stack:
            parent, op = self._client_stack[-1].sid, self.op
        elif threading.get_ident() == self._client:
            parent, op = None, self.op
        else:
            parent, op = None, None           # endpoint side: attached later
        span = Span(next(self._ids), name, parent, op, threading.get_ident())
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def add(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def bgp_depth(self, delta: int = 0) -> int:
        """Nesting of BGP evaluations on this thread, changed by *delta*."""
        depth = getattr(self._local, "bgp", 0) + delta
        self._local.bgp = depth
        return depth

    def root(self, name: str, op) -> Span:
        """Open the root span of one operation (or of the set-up)."""
        self.op = op
        return self.open(name)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        self.absent.clear()
        # Import every target module before patching any, so that no module
        # binds a wrapper by a from-import and keeps it after uninstall.
        modules = {}
        for module in dict.fromkeys(t[0] for t in TARGETS):
            try:
                modules[module] = importlib.import_module(module)
            except ImportError:
                pass
        for module, attr, name, kind in TARGETS:
            try:
                owner = modules[module]
                path = attr.split(".")
                for part in path[:-1]:
                    owner = getattr(owner, part)
                original = getattr(owner, path[-1])
            except (KeyError, AttributeError):
                self.absent.append(f"{module}.{attr}")
                continue
            wrapper = _WRAPPERS[kind](self, original, name)
            self._patches.append((owner, path[-1], owner.__dict__.get(path[-1])))
            setattr(owner, path[-1], wrapper)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis --------------------------------------------------------------

    def attach_endpoint_spans(self) -> None:
        """Parent each endpoint-side span on the request in flight."""
        requests: dict[int, list[Span]] = defaultdict(list)
        for s in self.spans:
            if s.name == "http.select" and s.url in self.endpoints:
                requests[self.endpoints[s.url]].append(s)
        for s in self.spans:
            if s.parent is not None or s.op is not None:
                continue
            graph = self.handler_graph.get(s.thread)
            for req in requests.get(graph, ()):
                if req.start <= s.start <= req.end:
                    s.parent, s.op = req.sid, req.op
                    break

    def self_times(self) -> dict[object, tuple[float, dict[str, float]]]:
        """For each operation: its root's wall time and the self time of
        each span name under it."""
        by_op: dict[object, list[Span]] = defaultdict(list)
        for s in self.spans:
            if s.op is not None:
                by_op[s.op].append(s)
        out = {}
        for op, spans in by_op.items():
            roots = [s for s in spans if s.parent is None]
            if len(roots) == 1:
                out[op] = (roots[0].end - roots[0].start, _sweep(roots[0], spans))
        return out


def _sweep(root: Span, spans: list[Span]) -> dict[str, float]:
    """Split the root's wall time over the spans that are open and have no
    open descendant at each instant (see the module docstring)."""
    by_id = {s.sid: s for s in spans}
    ancestors: dict[int, tuple] = {}
    for s in spans:
        chain = []
        p = s.parent
        while p is not None and p in by_id:
            chain.append(p)
            p = by_id[p].parent
        if s is not root and (not chain or chain[-1] != root.sid):
            chain.append(root.sid)           # unattached: hang under the root
        ancestors[s.sid] = tuple(chain)
    events = []
    for s in spans:
        a, b = max(s.start, root.start), min(s.end, root.end)
        if b > a:
            events.append((a, 1, s.sid))
            events.append((b, 0, s.sid))
    events.sort()
    active: set[int] = set()
    shares: dict[str, float] = defaultdict(float)
    last = root.start
    for t, starting, sid in events:
        if t > last and active:
            covered = set()
            for a in active:
                covered.update(ancestors[a])
            frontier = active - covered
            share = (t - last) / len(frontier)
            for f in frontier:
                shares[by_id[f].name] += share
        last = t
        if starting:
            active.add(sid)
        else:
            active.discard(sid)
    return shares


# ---------------------------------------------------------------------------
# Wrappers, one kind per way a target is called
# ---------------------------------------------------------------------------

class _TracedIter:
    """Times every step of an iterator as one span; counts the items."""

    def __init__(self, tracer: Tracer, it, name: str, keys: tuple[str, ...] = (),
                 child: int | None = None) -> None:
        self.tracer, self.it, self.name = tracer, iter(it), name
        self.keys, self.child = keys, child

    def __iter__(self):
        return self

    def __next__(self):
        span = self.tracer.open(self.name)
        span.child = self.child
        try:
            item = next(self.it)
        finally:
            self.tracer.close(span)
        for key in self.keys:
            self.tracer.add(key)
        return item


def _call(tracer: Tracer, fn, name: str):
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(span)
    return wrapper


def _counted_call(key: str):
    def make(tracer: Tracer, fn, name: str):
        timed = _call(tracer, fn, name)

        def wrapper(*args, **kwargs):
            tracer.add(key)
            return timed(*args, **kwargs)
        return wrapper
    return make


def _iter(tracer: Tracer, fn, name: str):
    def wrapper(*args, **kwargs):
        return _TracedIter(tracer, fn(*args, **kwargs), name)
    return wrapper


def _bgp(tracer: Tracer, fn, name: str):
    def wrapper(graph, query):
        if _is_handler_thread():
            tracer.handler_graph[threading.get_ident()] = id(graph)
        tracer.bgp_depth(+1)
        span = tracer.open(name)
        try:
            rows = fn(graph, query)
        finally:
            tracer.close(span)
            tracer.bgp_depth(-1)
        tracer.add("bgp.calls")
        tracer.add("bgp.rows_returned", len(rows))
        return rows
    return wrapper


def _match(tracer: Tracer, fn, name: str):
    def counted(it):
        n = 0
        try:
            for t in it:
                n += 1
                yield t
        finally:
            tracer.add("bgp.triples_scanned", n)

    def wrapper(self, *args, **kwargs):
        it = fn(self, *args, **kwargs)
        if tracer.bgp_depth():
            return counted(it)
        return it
    return wrapper


def _http(tracer: Tracer, fn, name: str):
    def wrapper(self, query):
        span = tracer.open(name)
        span.url = self.url
        try:
            rows = fn(self, query)
        finally:
            tracer.close(span)
        tracer.add("http.requests")
        if self.url in tracer.mapper_urls:
            tracer.add("mapper.requests")
            tracer.add("mapper.rows", len(rows))
        return rows
    return wrapper


def _count_only(key: str):
    def make(tracer: Tracer, fn, name: str):
        def wrapper(*args, **kwargs):
            tracer.add(key)
            return fn(*args, **kwargs)
        return wrapper
    return make


def _thread_start(tracer: Tracer, fn, name: str):
    def wrapper(self, *args, **kwargs):
        if self.name.startswith("ThreadPoolExecutor"):
            tracer.add("mixer.threads_started")
        return fn(self, *args, **kwargs)
    return wrapper


def _store_layer(store) -> str:
    from kif.mapper import MapperStore
    from kif.mixer import MixerStore

    if isinstance(store, MixerStore):
        return "mixer"
    if isinstance(store, MapperStore):
        return "mapper"
    return "stores"


def _store(iterating: bool):
    def make(tracer: Tracer, fn, name: str):
        def wrapper(self, *args, **kwargs):
            layer = _store_layer(self)
            child = tracer.children.get(id(self))
            span = tracer.open(f"{layer}.{name}")
            span.child = child
            try:
                result = fn(self, *args, **kwargs)
            finally:
                tracer.close(span)
            if not iterating:
                return result
            keys: tuple[str, ...] = ()
            if name == "filter":
                keys = (f"{layer}.emitted",) + (("mixer.fetched",) if child is not None
                                                 else ())
            return _TracedIter(tracer, result, f"{layer}.{name}", keys, child)
        return wrapper
    return make


_WRAPPERS = {
    "call": _call,
    "iter": _iter,
    "bgp": _bgp,
    "match": _match,
    "http": _http,
    "compile": _counted_call("codec.compile_calls"),
    "serialize": _counted_call("sparql.serialize_calls"),
    "node_fetch": _counted_call("stores.node_fetch_requests"),
    "graph_request": _counted_call("stores.graph_requests"),
    "connect": _count_only("http.connects"),
    "thread": _thread_start,
    "store_iter": _store(True),
    "store_call": _store(False),
}

# (module, attribute, span name, wrapper kind)
TARGETS = [
    ("kif.codec", "encode_dataset", "codec.encode", "call"),
    ("kif.rdf.ntriples", "serialize_ntriples", "ntriples.write", "call"),
    ("kif.rdf.ntriples", "parse_ntriples", "ntriples.parse", "call"),
    ("kif.codec", "compile_full_plan", "codec.compile", "compile"),
    ("kif.codec", "compile_truthy_plan", "codec.compile", "compile"),
    ("kif.codec", "compile_novalue_plan", "codec.compile", "compile"),
    ("kif.codec", "statement_resolution_plan", "codec.compile", "compile"),
    ("kif.codec", "descriptor_query", "codec.compile", "compile"),
    ("kif.codec", "node_fetch_query", "codec.compile", "node_fetch"),
    ("kif.codec", "assemble_main_snak", "codec.assemble", "call"),
    ("kif.codec", "assemble_annotation", "codec.assemble", "call"),
    ("kif.stores.backed", "serialize_query", "sparql.serialize", "serialize"),
    ("kif.stores.backed", "match_bgp", "bgp.eval", "bgp"),
    ("kif.stores.backed", "GraphBackend.select", "stores.request", "graph_request"),
    ("kif.stores.backed", "HttpBackend.select", "http.select", "http"),
    ("kif.stores.backed", "decode_results_json", "http.decode", "call"),
    ("kif.rdf.server", "parse_query", "sparql.parse", "call"),
    ("kif.rdf.server", "match_bgp", "bgp.eval", "bgp"),
    ("kif.rdf.server", "results_to_json", "server.encode", "call"),
    ("kif.rdf.terms", "Graph.match", None, "match"),
    ("http.client", "HTTPConnection.connect", None, "connect"),
    ("threading", "Thread.start", None, "thread"),
    ("kif.stores.base", "Store.filter", "filter", "store_iter"),
    ("kif.stores.base", "Store.count", "count", "store_call"),
    ("kif.stores.base", "Store.contains", "contains", "store_call"),
    ("kif.stores.base", "Store.get_annotations", "get_annotations", "store_iter"),
    ("kif.stores.base", "Store.get_descriptor", "get_descriptor", "store_iter"),
    ("kif.mapper", "translate_pattern", "mapper.translate", "call"),
    ("kif.mapper", "translate_results", "mapper.translate", "iter"),
    ("kif.decoder", "decode", "decoder.decode", "call"),
    ("kif.decoder", "answer", "decoder.answer", "call"),
]
