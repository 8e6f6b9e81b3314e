"""Seeded inputs of the benchmark: the Wikidata-shaped datasets, the
PubChem-like source and its mapping.

Everything here is a pure function of the seed. The program under test
only ever receives what these functions return; the expected answers are
computed from the same generated records by ``oracle.py``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from decimal import Decimal

from kif import model as m
from kif.mapper import DecimalQuantityCodec, EntityRule, MappingSpec, PropertyRule, StringCodec
from kif.rdf.terms import Graph, IriTerm, Literal, Triple

WD = "http://www.wikidata.org/entity/"
XSD_DECIMAL = "http://www.w3.org/2001/XMLSchema#decimal"
LANGUAGES = ("en", "fr")

_WORDS = ("alpha", "beta", "gamma", "delta", "kappa", "sigma", "omega",
          "acid", "oxide", "ester", "amine", "benz", "meth", "eth", "prop",
          "solvant", "zwölf", "ação")

# Property value kinds of the Wikidata-shaped dataset, cycled over the
# property ids so every dataset has every kind.
_KINDS = ("item", "string", "quantity", "item", "time", "text", "item",
          "string", "quantity", "item")


@dataclass
class Dataset:
    """Statement/annotation pairs plus descriptors, as the program takes them."""

    pairs: list[tuple[m.Statement, m.AnnotationRecord]]
    descriptors: dict[m.Entity, m.Descriptor]
    items: list[m.Item]
    properties: list[m.Property]


_RANKS = (m.Rank.NORMAL,) * 7 + (m.Rank.PREFERRED,) * 2 + (m.Rank.DEPRECATED,)


class _Gen:
    """Draws values from the seed; the structure is fixed by index.

    A query's cost follows the graph's structure (how many triples hang off
    each node), not its values. Keeping the structure a function of the
    statement index makes one seed cost what another does, so the seed
    varies the inputs without varying the work.
    """

    def __init__(self, rng: random.Random, items: list[m.Item],
                 properties: list[m.Property], kinds: dict) -> None:
        self.rng = rng
        self.items = items
        self.properties = properties
        self.kinds = kinds
        self.units = items[:3]

    def item(self) -> m.Item:
        return self.rng.choice(self.items)

    def decimal(self) -> Decimal:
        # Canonical lexical form: the last fraction digit is never zero.
        whole = self.rng.randint(0, 999)
        frac = self.rng.randint(1, 9)
        return Decimal(f"{whole}.{self.rng.randint(0, 9)}{frac}")

    def value(self, prop: m.Property) -> m.Value:
        rng = self.rng
        kind = self.kinds[prop]
        if kind == "item":
            return self.item()
        if kind == "string":
            local = prop.iri.value[len(WD):]
            return m.StringValue(f"{local}-{rng.randrange(len(self.items) * 2)}")
        if kind == "quantity":
            return m.Quantity(self.decimal(), rng.choice(self.units))
        if kind == "time":
            return m.TimeValue(m.Timestamp(rng.randint(1800, 2020), rng.randint(1, 12),
                                           rng.randint(1, 28)), m.PRECISION_DAY)
        return m.TextValue(rng.choice(_WORDS), rng.choice(LANGUAGES))

    def snak(self, prop: m.Property, k: int) -> m.Snak:
        """Value snaks, but one in twenty unknown and one in twenty absent."""
        if k % 20 == 18:
            return m.SomeValueSnak(prop)
        if k % 20 == 19:
            return m.NoValueSnak(prop)
        return m.ValueSnak(prop, self.value(prop))

    def annotation(self, k: int) -> m.AnnotationRecord:
        props = self.properties

        def snaks(start: int, n: int) -> list[m.Snak]:
            return [m.ValueSnak(p, self.value(p))
                    for p in (props[(start + j) % len(props)] for j in range(n))]

        qualifiers = snaks(3 * k, (0, 0, 1, 2)[k % 4])
        references = [m.ReferenceRecord(snaks(5 * k + 2 * j, 1 + k % 2))
                      for j in range((0, 1, 1)[k % 3])]
        return m.AnnotationRecord(qualifiers, references, _RANKS[k % 10])

    def text(self) -> m.TextValue:
        words = self.rng.sample(_WORDS, 2)
        return m.TextValue(" ".join(words), self.rng.choice(LANGUAGES))

    def descriptor(self) -> m.Descriptor:
        return m.Descriptor(label=self.text(), description=self.text(),
                            aliases=(self.text(),))


def wikidata_dataset(seed: int, n_statements: int, n_items: int,
                     n_properties: int = 20) -> Dataset:
    """A Wikidata-shaped dataset of *n_statements* statements.

    Every item is the subject of the same number of statements; property,
    snak kind, qualifier and reference counts and rank cycle with the
    statement index; one statement in ten carries a second record; every
    entity has a label, a description and an alias in English or French.
    Item values are drawn uniformly, so every item is about as often a
    value as any other.
    """
    rng = random.Random(seed)
    items = [m.Item(f"{WD}Q{100000 + i}") for i in range(n_items)]
    properties = [m.Property(f"{WD}P{1000 + j}") for j in range(n_properties)]
    kinds = {p: _KINDS[j % len(_KINDS)] for j, p in enumerate(properties)}
    gen = _Gen(rng, items, properties, kinds)
    order = items[:]
    rng.shuffle(order)
    pairs = []
    for k in range(n_statements):
        # Statement k is the (k // n_items)-th of its subject; shifting the
        # pattern by that ordinal gives each subject a mix of snak kinds
        # and ranks, whatever n_items divides.
        j = k + k // n_items
        prop = properties[(7 * j) % n_properties]
        pairs.append((m.Statement(order[k % n_items], gen.snak(prop, j)),
                      gen.annotation(j)))
    for j, (stmt, _) in enumerate(pairs[::10]):
        pairs.append((stmt, gen.annotation(j + 1)))
    descriptors = {entity: gen.descriptor() for entity in items + properties}
    return Dataset(pairs, descriptors, items, properties)


# ---------------------------------------------------------------------------
# The federated scenario: a Wikidata-shaped compound dataset and a
# PubChem-like raw source describing an overlapping set of compounds.
# ---------------------------------------------------------------------------

INCHI = m.Property(WD + "P234")
MASS = m.Property(WD + "P2067")
INSTANCE_OF = m.Property(WD + "P31")
HAS_PART = m.Property(WD + "P527")
DALTON = m.Item(WD + "Q483261")
GRAM_PER_MOLE = m.Item(WD + "Q28924752")
CHEMICAL_COMPOUND = m.Item(WD + "Q11173")

PUBCHEM_COMPOUND = "http://example.org/pubchem/compound/CID{n}"
PUBCHEM_TARGET = WD + "Q_PUBCHEM_CID{n}"
PUBCHEM_INCHI = "http://example.org/pubchem/inchi"
PUBCHEM_WEIGHT = "http://example.org/pubchem/molecular_weight"
PUBCHEM_TITLE = "http://example.org/pubchem/title"


@dataclass
class Compound:
    inchi: str
    mass: Decimal
    title: str
    wd_item: m.Item | None    # set when the Wikidata-shaped side has it
    cid: int | None           # set when the PubChem-like side has it


@dataclass
class Federation:
    wikidata: Dataset
    compounds: list[Compound]
    source: list[tuple[str, str, str, str]]  # (subject, predicate, lexical, kind)
    mapping: MappingSpec


def pubchem_mapping() -> MappingSpec:
    return MappingSpec(
        "pubchem",
        entity_rules=(EntityRule(PUBCHEM_COMPOUND, PUBCHEM_TARGET),),
        property_rules=(
            PropertyRule(INCHI, PUBCHEM_INCHI, StringCodec()),
            PropertyRule(MASS, PUBCHEM_WEIGHT, DecimalQuantityCodec(GRAM_PER_MOLE)),
        ),
        label_predicate=PUBCHEM_TITLE)


def federation(seed: int, n_compounds: int) -> Federation:
    """Compounds on both sides (half), on the Wikidata-shaped side only (a
    quarter) and on the PubChem-like side only (a quarter)."""
    rng = random.Random(seed)
    # Qualifier and reference properties of the compound statements.
    annotating = {m.Property(WD + "P518"): "item", m.Property(WD + "P1545"): "string"}
    gen = _Gen(rng, [m.Item(f"{WD}Q{200000 + i}") for i in range(n_compounds)],
               list(annotating), annotating)
    compounds = []
    for i in range(n_compounds):
        formula = "".join(f"{rng.choice('CHNOS')}{rng.randint(1, 12)}" for _ in range(3))
        side = i % 4          # 0: Wikidata-shaped only, 3: PubChem-like only
        compounds.append(Compound(
            inchi=f"InChI=1S/{formula}/c{i}-{rng.randint(1, 9)}",
            mass=gen.decimal() + 10,
            title=f"{rng.choice(_WORDS)}{i}",
            wd_item=gen.items[i] if side != 3 else None,
            cid=1000 + i if side != 0 else None))
    pairs = []
    descriptors: dict[m.Entity, m.Descriptor] = {}
    for i, c in enumerate(compounds):
        if c.wd_item is None:
            continue
        item = c.wd_item
        pairs.append((m.Statement(item, m.ValueSnak(INCHI, m.StringValue(c.inchi))),
                      m.AnnotationRecord()))
        pairs.append((m.Statement(item, m.ValueSnak(MASS, m.Quantity(c.mass, DALTON))),
                      gen.annotation(i)))
        pairs.append((m.Statement(item, m.ValueSnak(INSTANCE_OF, CHEMICAL_COMPOUND)),
                      m.AnnotationRecord()))
        for j in range(i % 3):
            pairs.append((m.Statement(item, m.ValueSnak(HAS_PART, gen.item())),
                          gen.annotation(i + j + 1)))
        descriptors[item] = m.Descriptor(label=m.TextValue(c.title, "en"),
                                         description=gen.text())
    wikidata = Dataset(pairs, descriptors, gen.items, [INCHI, MASS, INSTANCE_OF, HAS_PART])
    source = []
    for c in compounds:
        if c.cid is None:
            continue
        subject = PUBCHEM_COMPOUND.replace("{n}", str(c.cid))
        source.append((subject, PUBCHEM_INCHI, c.inchi, "string"))
        source.append((subject, PUBCHEM_WEIGHT, str(c.mass), "decimal"))
        source.append((subject, PUBCHEM_TITLE, c.title, "en"))
    return Federation(wikidata, compounds, source, pubchem_mapping())


def source_graph(source: list[tuple[str, str, str, str]]) -> Graph:
    """The raw PubChem-like records as RDF triples."""
    graph = Graph()
    for subject, predicate, lexical, kind in source:
        if kind == "decimal":
            obj = Literal(lexical, XSD_DECIMAL)
        elif kind == "string":
            obj = Literal(lexical)
        else:
            obj = Literal(lexical, language=kind)
        graph.add(Triple(IriTerm(subject), IriTerm(predicate), obj))
    return graph


def mapped_item(cid: int) -> m.Item:
    return m.Item(PUBCHEM_TARGET.replace("{n}", str(cid)))
