"""Loading statement fixtures from S-expression files.

A fixture file is a stream of top-level forms: bare ``(Statement ...)``
forms (default-Normal annotation), ``(AnnotatedStatement stmt ann...)``
forms, and ``(EntityDescriptor entity descriptor)`` forms.
"""

from __future__ import annotations

from . import model as m
from . import sexpr

Pair = tuple[m.Statement, m.AnnotationRecord]


class FixtureError(ValueError):
    pass


def parse_fixture(text: str) -> tuple[list[Pair], dict[m.Entity, m.Descriptor]]:
    pairs: list[Pair] = []
    descriptors: dict[m.Entity, m.Descriptor] = {}
    for obj in sexpr.parse_many(text):
        if isinstance(obj, m.Statement):
            pairs.append((obj, m.AnnotationRecord()))
        elif isinstance(obj, m.AnnotatedStatement):
            if obj.annotations:
                for ann in obj.annotations:
                    pairs.append((obj.statement, ann))
            else:
                pairs.append((obj.statement, m.AnnotationRecord()))
        elif isinstance(obj, m.EntityDescriptor):
            descriptors[obj.entity] = obj.descriptor
        else:
            raise FixtureError(
                f"unexpected top-level form in fixture: {type(obj).__name__}")
    return pairs, descriptors


def load_fixture(path: str) -> tuple[list[Pair], dict[m.Entity, m.Descriptor]]:
    """Parse the fixture file at *path* (UTF-8 text)."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_fixture(fh.read())


def dump_fixture(pairs: list[Pair],
                 descriptors: dict[m.Entity, m.Descriptor] | None = None,
                 compact: bool = True) -> str:
    """Serialize pairs and descriptors back to fixture text."""
    lines = []
    for stmt, ann in pairs:
        if ann == m.AnnotationRecord():
            lines.append(sexpr.dumps(stmt, compact=compact))
        else:
            lines.append(sexpr.dumps(m.AnnotatedStatement(stmt, (ann,)),
                                     compact=compact))
    for entity, desc in (descriptors or {}).items():
        lines.append(sexpr.dumps(m.EntityDescriptor(entity, desc), compact=compact))
    return "\n".join(lines) + ("\n" if lines else "")
