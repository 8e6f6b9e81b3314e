import threading

import pytest


def _serving_threads() -> set[threading.Thread]:
    return {t for t in threading.enumerate()
            if "serve_forever" in t.name and t.is_alive()}


@pytest.fixture(autouse=True, scope="module")
def no_endpoint_thread_outlives_the_module():
    """Fail a module that leaves a serve_forever thread running."""
    before = _serving_threads()
    yield
    leaked = _serving_threads() - before
    for thread in leaked:
        # A loop told to stop may still be returning; give it a moment.
        thread.join(timeout=1)
    leaked = {t for t in leaked if t.is_alive()}
    assert not leaked, f"endpoint threads still serving: {sorted(t.name for t in leaked)}"
