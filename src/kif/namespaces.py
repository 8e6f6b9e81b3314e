"""Prefix table for the Wikidata RDF dialect.

The table below matches Wikidata's public namespace bases bit for bit. It
is fixed: the codec, the S-expression reader, and the SPARQL subset all
resolve prefixed names against it and take no other.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

_SCHEME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.-]*:")


class NamespaceError(ValueError):
    pass


@dataclass(frozen=True)
class NamespaceTable:
    """Immutable prefix -> IRI base mapping with expand and local-name helpers."""

    bases: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for prefix, base in self.bases.items():
            if not _SCHEME_RE.match(base):
                raise NamespaceError(f"base for prefix {prefix!r} is not an absolute IRI: {base!r}")

    def base(self, prefix: str) -> str:
        try:
            return self.bases[prefix]
        except KeyError:
            raise NamespaceError(f"unknown namespace prefix {prefix!r}") from None

    def expand(self, name: str) -> str:
        """Expand a prefixed name like ``wd:Q2270`` to a full IRI."""
        prefix, sep, local = name.partition(":")
        if not sep:
            raise NamespaceError(f"not a prefixed name: {name!r}")
        return self.base(prefix) + local

    def local(self, iri: str, prefix: str) -> str | None:
        """Local name of *iri* under *prefix*'s base, or None if it is not
        a direct member of that namespace."""
        base = self.base(prefix)
        if not iri.startswith(base):
            return None
        local = iri[len(base):]
        if not local or "/" in local or "#" in local:
            return None
        return local


#: Wikidata's public namespace bases (query-service flavour).
WIKIDATA = NamespaceTable({
    "wd": "http://www.wikidata.org/entity/",
    "wds": "http://www.wikidata.org/entity/statement/",
    "wdv": "http://www.wikidata.org/value/",
    "wdref": "http://www.wikidata.org/reference/",
    "wdt": "http://www.wikidata.org/prop/direct/",
    "p": "http://www.wikidata.org/prop/",
    "ps": "http://www.wikidata.org/prop/statement/",
    "psv": "http://www.wikidata.org/prop/statement/value/",
    "pq": "http://www.wikidata.org/prop/qualifier/",
    "pqv": "http://www.wikidata.org/prop/qualifier/value/",
    "pr": "http://www.wikidata.org/prop/reference/",
    "prv": "http://www.wikidata.org/prop/reference/value/",
    "wdno": "http://www.wikidata.org/prop/novalue/",
    "wdgenid": "http://www.wikidata.org/.well-known/genid/",
    "wikibase": "http://wikiba.se/ontology#",
    "prov": "http://www.w3.org/ns/prov#",
    "rdf": "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
    "rdfs": "http://www.w3.org/2000/01/rdf-schema#",
    "schema": "http://schema.org/",
    "skos": "http://www.w3.org/2004/02/skos/core#",
    "xsd": "http://www.w3.org/2001/XMLSchema#",
})

WD = WIKIDATA.bases["wd"]
WDS = WIKIDATA.bases["wds"]
WDV = WIKIDATA.bases["wdv"]
WDREF = WIKIDATA.bases["wdref"]
WDT = WIKIDATA.bases["wdt"]
P = WIKIDATA.bases["p"]
PS = WIKIDATA.bases["ps"]
PSV = WIKIDATA.bases["psv"]
PQ = WIKIDATA.bases["pq"]
PQV = WIKIDATA.bases["pqv"]
PR = WIKIDATA.bases["pr"]
PRV = WIKIDATA.bases["prv"]
WDNO = WIKIDATA.bases["wdno"]
WDGENID = WIKIDATA.bases["wdgenid"]
WIKIBASE = WIKIDATA.bases["wikibase"]
PROV = WIKIDATA.bases["prov"]
RDF = WIKIDATA.bases["rdf"]
RDFS = WIKIDATA.bases["rdfs"]
SCHEMA = WIKIDATA.bases["schema"]
SKOS = WIKIDATA.bases["skos"]
XSD = WIKIDATA.bases["xsd"]

RDF_TYPE = RDF + "type"
RDF_LANG_STRING = RDF + "langString"
RDFS_LABEL = RDFS + "label"
SCHEMA_DESCRIPTION = SCHEMA + "description"
SKOS_ALT_LABEL = SKOS + "altLabel"
XSD_STRING = XSD + "string"
XSD_DECIMAL = XSD + "decimal"
XSD_INTEGER = XSD + "integer"
XSD_DATE_TIME = XSD + "dateTime"
PROV_WAS_DERIVED_FROM = PROV + "wasDerivedFrom"

WIKIBASE_RANK = WIKIBASE + "rank"
WIKIBASE_BEST_RANK = WIKIBASE + "BestRank"
WIKIBASE_PREFERRED_RANK = WIKIBASE + "PreferredRank"
WIKIBASE_NORMAL_RANK = WIKIBASE + "NormalRank"
WIKIBASE_DEPRECATED_RANK = WIKIBASE + "DeprecatedRank"
WIKIBASE_QUANTITY_AMOUNT = WIKIBASE + "quantityAmount"
WIKIBASE_QUANTITY_UNIT = WIKIBASE + "quantityUnit"
WIKIBASE_QUANTITY_LOWER = WIKIBASE + "quantityLowerBound"
WIKIBASE_QUANTITY_UPPER = WIKIBASE + "quantityUpperBound"
WIKIBASE_TIME_VALUE = WIKIBASE + "timeValue"
WIKIBASE_TIME_PRECISION = WIKIBASE + "timePrecision"
WIKIBASE_TIME_TIMEZONE = WIKIBASE + "timeTimezone"
WIKIBASE_TIME_CALENDAR = WIKIBASE + "timeCalendarModel"

# The unit "1" that Wikibase gives a unitless amount; kif reads it as no unit.
WD_UNIT_ONE = WD + "Q199"
