"""Self-test of the benchmark: its checks catch wrong answers.

    python3 benchmark/selftest.py

For each workload, one round at seed 1 runs three times: on the stores as
they are, where no operation may fail; behind a wrapper that drops one
statement from every answer; and behind a wrapper that alters one
annotation record. A wrapper notes each operation whose answer it
changed. The test passes only when every wrapped run reports exactly
those operations as failed, and at least one of them.
"""

from __future__ import annotations

import sys

import run

SEED = 1


class Wrong:
    """A store that answers like *inner* except for one deliberate fault."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.touched = False

    def filter(self, pattern=None, limit=None):
        return list(self.inner.filter(pattern, limit))

    def count(self, pattern=None):
        return sum(1 for _ in self.filter(pattern))

    def contains(self, stmt):
        return self.inner.contains(stmt)

    def get_annotations(self, stmts):
        return list(self.inner.get_annotations(stmts))

    def get_descriptor(self, entities, language="en"):
        return self.inner.get_descriptor(entities, language)


class DropStatement(Wrong):
    def __init__(self, inner, stmt) -> None:
        super().__init__(inner)
        self.stmt = stmt

    def filter(self, pattern=None, limit=None):
        out = super().filter(pattern, limit)
        if self.stmt in out:
            self.touched = True
            out.remove(self.stmt)
        return out

    def contains(self, stmt):
        if stmt == self.stmt:
            self.touched = True
            return False
        return super().contains(stmt)

    def get_annotations(self, stmts):
        out = super().get_annotations(stmts)
        if any(s == self.stmt and records for s, records in out):
            self.touched = True
        return [(s, frozenset() if s == self.stmt else records) for s, records in out]


class AlterRecord(Wrong):
    """Deprecates the one record of a statement, which also hides the
    statement from truthy-level answers."""

    def __init__(self, inner, stmt) -> None:
        super().__init__(inner)
        self.stmt = stmt

    def get_annotations(self, stmts):
        from kif import model as m

        out = []
        for s, records in super().get_annotations(stmts):
            if s == self.stmt and records:
                self.touched = True
                records = frozenset(m.AnnotationRecord(r.qualifiers, r.references,
                                                       m.Rank.DEPRECATED)
                                    for r in records)
            out.append((s, records))
        return out


def victims(env):
    """A statement some unlimited filter returns, with a record that is not
    deprecated (so it shows at the truthy level too), and a statement some
    annotation request asks for, with one record that is not deprecated."""
    from kif import model as m

    def visible(s):
        return any(r.rank is not m.Rank.DEPRECATED for r in env.records(s))

    dropped = altered = None
    for _, _, op, _ in env.steps():
        if dropped is None and op.kind == "filter" and op.limit is None:
            dropped = next((s for s in sorted(op.expected, key=m.canonical_key)
                            if visible(s)), None)
        if altered is None and op.kind == "annotations":
            altered = next((s for s in op.arg
                            if len(env.records(s)) == 1 and visible(s)), None)
    return dropped, altered


def check_workload(name, workload) -> list[str]:
    problems = []
    env = workload(SEED)
    try:
        clean = run.run_round(env)
        if any(s.raised or s.wrong for s in clean):
            problems.append(f"{name}: the unwrapped round has failed operations")
        dropped, altered = victims(env)
        for fault, stmt in (("drop", dropped), ("alter", altered)):
            if stmt is None:
                print(f"{name}: {fault}: no operation of this workload asks for it")
                continue
            wrappers = []

            def wrap(store, fault=fault, stmt=stmt):
                wrapper = (DropStatement if fault == "drop" else AlterRecord)(store, stmt)
                wrappers.append(wrapper)
                return wrapper

            samples = run.run_round(env, wrap=wrap)
            failed = {s.index for s in samples if s.raised or s.wrong}
            touched = {i for i, w in enumerate(wrappers) if w.touched}
            print(f"{name}: {fault}: {len(touched)} operations changed, "
                  f"{len(failed)} reported failed")
            if not touched or failed != touched:
                problems.append(f"{name}: {fault}: failed {sorted(failed)} "
                                f"but changed {sorted(touched)}")
    finally:
        run.close(env)
    return problems


def main() -> int:
    run.import_program()
    from workloads import WORKLOADS

    problems = []
    for name, workload in WORKLOADS.items():
        problems += check_workload(name, workload)
    for p in problems:
        print("FAIL", p)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
