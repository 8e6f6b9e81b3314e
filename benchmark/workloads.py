"""The workloads: their set-up, their stores and their rounds of operations.

A round is a fixed list of (label, store, operation, group) steps built
from the seed. Every run repeats whole rounds, so the share of failed
operations is the same however long it runs. Stores that cache pages are
fresh at the start of each round (lookup, federated) or of each operation
(scan), so what the cache saves is a property of the round, not of how
many rounds came before.
"""

from __future__ import annotations

import random
import threading
import time

from kif import codec
from kif import model as m
from kif.mapper import MapperStore
from kif.mixer import MixerStore
from kif.rdf import ntriples
from kif.rdf.server import EndpointServer
from kif.stores import MemoryStore, RdfStore, SparqlStore, StoreOptions

import gen
from oracle import Op, Truth

XSD_DECIMAL = gen.XSD_DECIMAL
WDT = "http://www.wikidata.org/prop/direct/"


def load(pairs, descriptors):
    """Encode a dataset and load it back through N-Triples, as a user would."""
    graph = codec.encode_dataset(pairs, descriptors)
    return ntriples.parse_ntriples(ntriples.serialize_ntriples(graph))


def leaked_endpoint_threads() -> list[str]:
    return [t.name for t in threading.enumerate()
            if "serve_forever" in t.name and t.is_alive()]


class Env:
    """What one set-up built: endpoints, stores, the round's operations.

    ``setup_s`` times what the program does to get ready: generating the
    model objects, encoding, writing and parsing N-Triples, indexing and
    starting the endpoints. Computing the expected answers is left out.
    """

    def __init__(self) -> None:
        self.servers: list[EndpointServer] = []
        self.tracer = None
        self.started = time.perf_counter()
        self.setup_s = 0.0

    def ready(self) -> None:
        self.setup_s = time.perf_counter() - self.started

    def serve(self, graph) -> EndpointServer:
        server = EndpointServer(graph)
        self.servers.append(server)
        return server.start()

    def close(self) -> None:
        """Stop every endpoint; each was started once, so none survives."""
        while self.servers:
            self.servers.pop().shutdown()

    def steps(self, options: StoreOptions | None = None):
        raise NotImplementedError

    def records(self, stmt: m.Statement) -> set[m.AnnotationRecord]:
        """The generated annotation records of *stmt*."""
        return self.truth.records.get(stmt, set())

    def register(self, tracer) -> None:
        """Tell a tracer which graph each endpoint serves."""
        for server in self.servers:
            tracer.endpoints[server.url] = id(server.graph)


def _zipf_pick(rng: random.Random, items: list, s: float = 1.0):
    weights = [1.0 / (i + 1) ** s for i in range(len(items))]
    return lambda: rng.choices(items, weights)[0]


def _shuffled(rng: random.Random, items) -> list:
    out = sorted(items, key=m.canonical_key)
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# lookup: point operations on one dataset, three backends
# ---------------------------------------------------------------------------

class LookupEnv(Env):
    N_STATEMENTS = 1600
    N_ITEMS = 300
    # Operations of one round by kind. The fingerprint filters cost a
    # whole-graph join each, about as much as the rest of the round, so
    # there are two. Each identifies one entity, and their limit is below
    # the statement count of every subject: each costs one evaluation of
    # the candidate query whatever entity it picks.
    MIX = (("filter_sp", 21), ("filter_s", 15), ("fingerprint", 2),
           ("count", 12), ("contains", 12), ("absent", 8),
           ("annotations", 14), ("descriptor", 16))
    LABELS = ("memory", "rdf", "sparql")

    def __init__(self, seed: int) -> None:
        super().__init__()
        ds = gen.wikidata_dataset(seed, self.N_STATEMENTS, self.N_ITEMS)
        self.memory = MemoryStore(ds.pairs, ds.descriptors)
        self.graph = load(ds.pairs, ds.descriptors)
        self.server = self.serve(self.graph)
        self.ready()
        self.truth = Truth(ds.pairs, ds.descriptors)
        self.ops = self._round(random.Random(seed * 7919 + 1), ds)

    def _round(self, rng: random.Random, ds: gen.Dataset) -> list[Op]:
        truth = self.truth
        subject = _zipf_pick(rng, _shuffled(rng, truth.by_subject))
        entity = _zipf_pick(rng, _shuffled(rng, ds.items + ds.properties))
        # Fingerprints act as identifiers: claims exactly one entity has.
        claims = sorted(((p, v) for (p, v), owners in truth.claims.items()
                         if isinstance(v, (m.Item, m.StringValue)) and len(owners) == 1),
                        key=lambda c: (m.canonical_key(c[0]), m.canonical_key(c[1])))
        kinds = [k for k, n in self.MIX for _ in range(n)]
        rng.shuffle(kinds)
        ops = []
        for j, kind in enumerate(kinds):
            s = subject()
            stmts = sorted(truth.by_subject[s], key=m.canonical_key)
            stmt = rng.choice(stmts)
            if kind == "filter_sp":
                prop = stmt.snak.property
                ops.append(Op("filter", m.FilterPattern(m.EntityFp(s), m.EntityFp(prop)),
                              truth.matching(subject=s, prop=prop)))
            elif kind == "filter_s":
                ops.append(Op("filter", m.FilterPattern(m.EntityFp(s)),
                              truth.matching(subject=s)))
            elif kind == "fingerprint":
                prop, value = rng.choice(claims)
                snak = m.ValueSnak(prop, value)
                ops.append(Op("filter", m.FilterPattern(m.SnakFp(snak)),
                              truth.matching(snak=snak), limit=3))
            elif kind == "count":
                ops.append(Op("count", m.FilterPattern(m.EntityFp(s)),
                              len(truth.matching(subject=s))))
            elif kind == "contains":
                ops.append(Op("contains", stmt, True))
            elif kind == "absent":
                missing = m.Statement(s, m.ValueSnak(stmt.snak.property,
                                                     m.StringValue(f"absent-{j}")))
                ops.append(Op("contains", missing, False))
            elif kind == "annotations":
                batch = [stmt, rng.choice(sorted(truth.by_subject[subject()],
                                                 key=m.canonical_key))]
                if j % 3 == 0:
                    batch.append(m.Statement(s, m.NoValueSnak(m.Property(gen.WD + "P999"))))
                ops.append(Op("annotations", batch,
                              [truth.annotations(x) for x in batch]))
            else:
                language = gen.LANGUAGES[j % 2]
                batch = [entity() for _ in range(4)]
                ops.append(Op("descriptor", batch,
                              [truth.descriptor(e, language) for e in batch],
                              language=language))
        return ops

    def steps(self, options=None):
        stores = {"memory": self.memory,
                  "rdf": RdfStore(self.graph, options),
                  "sparql": SparqlStore(self.server.url, options)}
        for op in self.ops:
            for label in self.LABELS:
                yield label, stores[label], op, None


# ---------------------------------------------------------------------------
# scan: whole-graph scans at three sizes, cold handle per scan
# ---------------------------------------------------------------------------

class ScanEnv(Env):
    SIZES = (16, 32, 64)
    LABELS = ("rdf", "sparql")

    def __init__(self, seed: int) -> None:
        super().__init__()
        built = []
        for size in self.SIZES:
            ds = gen.wikidata_dataset(seed * 31 + size, size, size // 4)
            graph = load(ds.pairs, ds.descriptors)
            built.append((size, ds, graph, self.serve(graph)))
        self.ready()
        self.truth = Truth([p for _, ds, _, _ in built for p in ds.pairs], {})
        self.parts = [(size, graph, server,
                       self._round(Truth(ds.pairs, ds.descriptors), ds))
                      for size, ds, graph, server in built]

    @staticmethod
    def _round(truth: Truth, ds: gen.Dataset) -> list[Op]:
        everything = truth.matching()
        # The most referenced item: a value-bound, property-unbound scan.
        value = max(ds.items, key=lambda i: (len(truth.by_value.get(i, ())),
                                             i.iri.value))
        by_value = m.FilterPattern(value=m.EntityFp(value))
        return [Op("filter", m.FilterPattern(), everything),
                Op("filter", m.FilterPattern(), everything, limit=1),
                Op("filter", m.FilterPattern(), everything, limit=5),
                Op("filter", m.FilterPattern(), everything, limit=25),
                Op("count", m.FilterPattern(), len(everything)),
                Op("filter", by_value, truth.matching(value=value)),
                Op("count", by_value, len(truth.matching(value=value)))]

    def steps(self, options=None):
        for size, graph, server, ops in self.parts:
            for label in self.LABELS:
                for op in ops:
                    store = (RdfStore(graph, options) if label == "rdf"
                             else SparqlStore(server.url, options))
                    yield label, store, op, size


# ---------------------------------------------------------------------------
# federated: a parallel mixer over a SPARQL store and a mapped raw source
# ---------------------------------------------------------------------------

def _uri(var: str, iri: str) -> tuple:
    return (var, ("type", "uri"), ("value", iri))


def _literal(var: str, value: m.Value) -> tuple:
    if isinstance(value, m.Quantity):
        return (var, ("datatype", XSD_DECIMAL), ("type", "literal"),
                ("value", m.decimal_lexical(value.amount)))
    if isinstance(value, m.StringValue):
        return (var, ("type", "literal"), ("value", value.content))
    return _uri(var, value.iri.value)


class FederatedEnv(Env):
    N_COMPOUNDS = 240

    def __init__(self, seed: int) -> None:
        super().__init__()
        fed = gen.federation(seed, self.N_COMPOUNDS)
        wd = fed.wikidata
        self.graph = load(wd.pairs, wd.descriptors)
        source = gen.source_graph(fed.source)
        source = ntriples.parse_ntriples(ntriples.serialize_ntriples(source))
        self.wd_server = self.serve(self.graph)
        self.source_server = self.serve(source)
        self.mapping = fed.mapping
        self.ready()
        mapped_pairs, mapped_desc = [], {}
        for c in fed.compounds:
            if c.cid is None:
                continue
            item = gen.mapped_item(c.cid)
            for snak in (m.ValueSnak(gen.INCHI, m.StringValue(c.inchi)),
                         m.ValueSnak(gen.MASS, m.Quantity(c.mass, gen.GRAM_PER_MOLE))):
                mapped_pairs.append((m.Statement(item, snak), m.AnnotationRecord()))
            mapped_desc[item] = m.Descriptor(label=m.TextValue(c.title, "en"))
        # Children describe disjoint subjects, so the mixer's expected
        # answers are those of the union of both record sets.
        self.truth = Truth(wd.pairs + mapped_pairs, {**wd.descriptors, **mapped_desc})
        self.ops = self._round(random.Random(seed * 7919 + 2), fed)

    def _round(self, rng: random.Random, fed: gen.Federation) -> list[Op]:
        truth = self.truth
        indexed = list(enumerate(fed.compounds))
        compound = _zipf_pick(rng, _stratified(rng, indexed))
        wd_item = _zipf_pick(rng, _stratified(
            rng, [(i, c.wd_item) for i, c in indexed if c.wd_item]))
        mapped_item = _zipf_pick(rng, _stratified(
            rng, [(i, gen.mapped_item(c.cid)) for i, c in indexed if c.cid]))

        def any_statement(subject):
            return rng.choice(sorted(truth.by_subject[subject], key=m.canonical_key))

        ops = []
        for j in range(16):
            snak = m.ValueSnak(gen.INCHI, m.StringValue(compound().inchi))
            ops.append(Op("filter", m.FilterPattern(m.SnakFp(snak), m.EntityFp(gen.MASS)),
                          truth.matching(snak=snak, prop=gen.MASS)))
        for prop in (gen.MASS, gen.INCHI, gen.INSTANCE_OF):
            for limit in (5, 10):
                ops.append(Op("filter", m.FilterPattern(property=m.EntityFp(prop)),
                              truth.matching(prop=prop), limit=limit))
        for prop in (gen.MASS, gen.INCHI):
            ops.append(Op("count", m.FilterPattern(property=m.EntityFp(prop)),
                          len(truth.matching(prop=prop))))
        for j in range(8):
            s = wd_item()
            ops.append(Op("count", m.FilterPattern(m.EntityFp(s)),
                          len(truth.matching(subject=s))))
        for j in range(6):
            ops.append(Op("contains", any_statement(wd_item()), True))
            ops.append(Op("contains", any_statement(mapped_item()), True))
            ops.append(Op("contains", m.Statement(mapped_item(), m.ValueSnak(
                gen.MASS, m.Quantity("1.5", gen.GRAM_PER_MOLE))), False))
        for j in range(8):
            batch = [any_statement(wd_item()), any_statement(mapped_item())]
            ops.append(Op("annotations", batch, [truth.annotations(x) for x in batch]))
        for j in range(8):
            language = gen.LANGUAGES[j % 2]
            batch = [wd_item(), mapped_item(), wd_item()]
            ops.append(Op("descriptor", batch,
                          [truth.descriptor(e, language) for e in batch],
                          language=language))
        for j in range(8):
            inchi = compound().inchi
            query = (f'SELECT ?x ?m WHERE {{ ?x <{WDT}P2067> ?m . '
                     f'?x <{WDT}P234> "{inchi}" }}')
            snak = m.ValueSnak(gen.INCHI, m.StringValue(inchi))
            rows = [(_uri("x", s.subject.iri.value), _literal("m", s.snak.value))
                    for s in self._visible(truth.matching(snak=snak, prop=gen.MASS))]
            ops.append(Op("answer", query, rows))
        for j in range(6):
            s = wd_item()
            query = f"SELECT ?p ?v WHERE {{ <{s.iri.value}> ?p ?v }}"
            rows = [(_uri("p", WDT + x.snak.property.iri.value[len(gen.WD):]),
                     _literal("v", x.snak.value))
                    for x in self._visible(truth.matching(subject=s))]
            ops.append(Op("answer", query, rows))
        rng.shuffle(ops)
        return ops

    def _visible(self, stmts) -> list[m.Statement]:
        """Claims the truthy level shows: some record is not deprecated."""
        return [s for s in stmts
                if any(r.rank is not m.Rank.DEPRECATED for r in self.truth.records[s])]

    def steps(self, options=None):
        children = [SparqlStore(self.wd_server.url, options),
                    MapperStore(self.source_server.url, self.mapping, options)]
        if self.tracer is not None:
            self.tracer.children = {id(child): i for i, child in enumerate(children)}
        mixer = MixerStore(children, parallel=True)
        for op in self.ops:
            yield "mixer", mixer, op, None

    def register(self, tracer) -> None:
        super().register(tracer)
        tracer.mapper_urls.add(self.source_server.url)


def _stratified(rng: random.Random, indexed: list) -> list:
    """The values of (compound index, value) pairs in a seeded order whose
    rank r holds a compound of a fixed class of index modulo 12.

    Compound i's side, has-part count and annotation shape cycle with i
    modulo 12. A plain shuffle lets the seed decide which kind of compound
    the most picked ranks of a Zipf law get, and that moved the round's
    typical latency by a fifth between seeds; here the seed decides only
    which compound of the class.
    """
    classes = [[v for i, v in indexed if i % 12 == c] for c in range(12)]
    for members in classes:
        rng.shuffle(members)
    out = []
    while any(classes):
        out.extend(members.pop() for members in classes if members)
    return out


WORKLOADS = {"lookup": LookupEnv, "scan": ScanEnv, "federated": FederatedEnv}
