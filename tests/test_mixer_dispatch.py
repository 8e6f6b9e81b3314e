"""How a mixer runs its children: the calling thread runs the first child,
a parallel mixer's pool the others, and every call waits for all of them."""

import threading

import pytest

from kif import model as m
from kif.mixer import MixerChildError, MixerStore
from kif.stores import MemoryStore

import paper_fixtures as pf
from randgen import WD

ABSENT = m.Statement(m.Item(WD + "Q404"), m.NoValueSnak(pf.mass))

# Each operation with the arguments that make a mixer ask every child.
OPERATIONS = {
    "filter": lambda s: list(s.filter()),
    "contains": lambda s: s.contains(ABSENT),
    "get_annotations": lambda s: list(s.get_annotations([pf.mass_statement])),
    "get_descriptor": lambda s: list(s.get_descriptor([pf.marie])),
}


class _Recorder(MemoryStore):
    """The paper's Wikidata statements, answering through the public
    operations, which a mixer calls. Each call records its thread, then
    fails if *fail*, or waits for the *release* event if one is given."""

    def __init__(self, fail: bool = False, release: threading.Event | None = None) -> None:
        super().__init__(pf.wikidata_pairs(), pf.wikidata_descriptors())
        self.fail = fail
        self.release = release
        self.threads: list[int] = []
        self.ended = threading.Event()

    def _run(self, answer):
        self.threads.append(threading.get_ident())
        try:
            if self.fail:
                raise RuntimeError("backend on fire")
            if self.release is not None:
                assert self.release.wait(timeout=10)
            return answer()
        finally:
            self.ended.set()

    def filter(self, pattern=None, limit=None):
        return iter(self._run(lambda: list(MemoryStore.filter(self, pattern, limit))))

    def contains(self, stmt):
        return self._run(lambda: MemoryStore.contains(self, stmt))

    def get_annotations(self, stmts):
        return iter(self._run(lambda: list(MemoryStore.get_annotations(self, stmts))))

    def get_descriptor(self, entities, language="en"):
        return iter(self._run(lambda: list(MemoryStore.get_descriptor(self, entities,
                                                                     language))))


def _pool_threads() -> set[threading.Thread]:
    return {t for t in threading.enumerate()
            if t.name.startswith("ThreadPoolExecutor") and t.is_alive()}


@pytest.mark.parametrize("op", OPERATIONS)
def test_the_caller_runs_the_first_child_and_the_pool_the_others(op):
    children = [_Recorder() for _ in range(3)]
    with MixerStore(children, parallel=True) as mixer:
        for _ in range(5):
            assert OPERATIONS[op](mixer) == OPERATIONS[op](children[0])
    caller = threading.get_ident()
    first, *others = children
    assert first.threads and set(first.threads) == {caller}
    for child in others:
        assert len(child.threads) == 5 and caller not in child.threads


@pytest.mark.parametrize("op", OPERATIONS)
def test_a_sequential_mixer_runs_every_child_on_the_caller(op):
    children = [_Recorder() for _ in range(3)]
    before = _pool_threads()
    OPERATIONS[op](MixerStore(children))
    assert {t for child in children for t in child.threads} == {threading.get_ident()}
    assert not _pool_threads() - before


def test_the_pool_never_starts_more_threads_than_children_after_the_first():
    # Children 1 and 2 meet at a barrier, so each call needs both at once.
    barrier = threading.Barrier(2)

    class Meeting(_Recorder):
        def _run(self, answer):
            barrier.wait(timeout=10)
            return super()._run(answer)

    children = [_Recorder(), Meeting(), Meeting()]
    before = _pool_threads()
    mixer = MixerStore(children, parallel=True)
    for _ in range(4):
        for op in OPERATIONS.values():
            op(mixer)
    started = _pool_threads() - before
    assert len(started) <= 2
    assert len({t for child in children[1:] for t in child.threads}) == 2
    mixer.close()
    assert not _pool_threads() - before


@pytest.mark.parametrize("failing", [0, 1])
@pytest.mark.parametrize("op", OPERATIONS)
def test_strict_mode_names_the_failed_child_on_either_thread(op, failing):
    children = [_Recorder(fail=i == failing) for i in range(3)]
    with MixerStore(children, parallel=True) as mixer:
        with pytest.raises(MixerChildError) as err:
            OPERATIONS[op](mixer)
    assert err.value.index == failing
    assert "backend on fire" in str(err.value)


@pytest.mark.parametrize("failing", [0, 1])
@pytest.mark.parametrize("op", OPERATIONS)
def test_lenient_mode_skips_the_failed_child_on_either_thread(op, failing, caplog):
    children = [_Recorder(fail=i == failing) for i in range(3)]
    with MixerStore(children, parallel=True, lenient=True) as mixer:
        with caplog.at_level("WARNING"):
            answer = OPERATIONS[op](mixer)
    healthy = children[1 - failing]
    assert answer == OPERATIONS[op](healthy)
    assert [r.message for r in caplog.records] == [
        f"mixer: skipping failed child #{failing}: backend on fire"]


@pytest.mark.parametrize("early_exit", ["first child fails", "first child holds it"])
def test_a_call_returns_only_after_a_blocked_sibling_has_ended(early_exit):
    # The first child's answer settles the call before child 2 ends:
    # a strict failure, or a contains the first child already answers.
    release = threading.Event()
    blocked = _Recorder(release=release)
    children = [_Recorder(fail=early_exit == "first child fails"), _Recorder(), blocked]
    timer = threading.Timer(0.2, release.set)
    with MixerStore(children, parallel=True) as mixer:
        timer.start()
        try:
            if early_exit == "first child fails":
                with pytest.raises(MixerChildError):
                    mixer.contains(pf.mass_statement)
            else:
                assert mixer.contains(pf.mass_statement)
            assert blocked.ended.is_set()
        finally:
            release.set()
            timer.join(timeout=10)
    assert not timer.is_alive()


def test_a_closed_parallel_mixer_answers_on_the_calling_thread():
    children = [_Recorder() for _ in range(3)]
    mixer = MixerStore(children, parallel=True)
    before = _pool_threads()
    expected = mixer.count()
    mixer.close()
    for child in children:
        del child.threads[:]
    assert mixer.count() == expected
    assert dict(mixer.get_descriptor([pf.marie])) == \
        dict(children[0].get_descriptor([pf.marie]))
    assert {t for child in children for t in child.threads} == {threading.get_ident()}
    assert not _pool_threads() - before
    mixer.close()
