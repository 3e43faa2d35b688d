"""Lock-order witness tests: graph properties, ABBA capture, Condition compat.

Isolation note: when the suite runs under ``REPRO_LOCK_WITNESS=1`` the
global witness wraps every ``threading.Lock()`` allocated anywhere —
including locks a test creates for itself.  A deliberately inverted pair
built from ``threading.Lock`` would therefore poison the *session*
graph and fail the run at sessionfinish.  Every test here builds its
locks from ``_thread.allocate_lock()`` (never patched) and drives a
private :class:`LockWitness`, so the deliberate cycles stay local.
"""

from __future__ import annotations

import _thread
import os
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.witness import (
    LockOrderError,
    LockOrderGraph,
    LockWitness,
    WitnessedLock,
    install,
)


def make_witness() -> LockWitness:
    return LockWitness(meta_lock_factory=_thread.allocate_lock)


def make_lock(site: str, witness: LockWitness) -> WitnessedLock:
    return WitnessedLock(_thread.allocate_lock(), site, witness)


def _is_dag(edges: dict[str, set[str]]) -> bool:
    """Kahn's algorithm — an implementation-independent cycle oracle."""
    nodes = set(edges) | {succ for succs in edges.values() for succ in succs}
    indegree = {node: 0 for node in nodes}
    for succs in edges.values():
        for succ in succs:
            indegree[succ] += 1
    queue = [node for node in nodes if indegree[node] == 0]
    removed = 0
    while queue:
        node = queue.pop()
        removed += 1
        for succ in edges.get(node, ()):
            indegree[succ] -= 1
            if indegree[succ] == 0:
                queue.append(succ)
    return removed == len(nodes)


# ---------------------------------------------------------------------------
# Graph properties


_SITES = st.sampled_from(["a.py:1", "b.py:2", "c.py:3", "d.py:4"])
_CHAINS = st.lists(
    st.lists(_SITES, min_size=1, max_size=4, unique=True),
    min_size=1,
    max_size=8,
)


@settings(max_examples=200)
@given(chains=_CHAINS)
def test_cycle_detection_matches_topological_oracle(chains):
    """Random nested-acquisition schedules: cycles reported iff not a DAG.

    Each chain models one virtual thread acquiring locks in order while
    holding all earlier ones — exactly what the runtime witness feeds the
    graph, minus the threads.
    """
    graph = LockOrderGraph()
    for chain in chains:
        for i, site in enumerate(chain):
            graph.add_acquisition(chain[:i], site)
    assert bool(graph.cycles) == (not _is_dag(graph.edges))
    # Canonicalisation dedups: no cycle is reported twice.
    assert len(graph.cycles) == len(set(graph.cycles))


def test_reentrant_self_edge_is_ignored():
    graph = LockOrderGraph()
    graph.add_acquisition(["a.py:1"], "a.py:1")
    assert graph.edges == {}
    assert graph.cycles == []


def test_three_way_cycle_without_pairwise_inversion():
    # A->B, B->C, C->A: no two locks are ever inverted pairwise, yet the
    # triangle deadlocks three threads. The DFS must find it.
    graph = LockOrderGraph()
    graph.add_acquisition(["A"], "B")
    graph.add_acquisition(["B"], "C")
    assert graph.cycles == []
    graph.add_acquisition(["C"], "A")
    assert graph.cycles == [("A", "B", "C")]


# ---------------------------------------------------------------------------
# The deliberate ABBA fixture


def test_abba_acquisition_order_is_reported():
    """Taking two locks in both orders — serially, so nothing actually
    deadlocks — must still be reported as a potential deadlock."""
    witness = make_witness()
    la = make_lock("net/client.py:10", witness)
    lb = make_lock("server/index.py:20", witness)

    with la:
        with lb:
            pass
    witness.assert_no_cycles()  # one order alone is fine

    with lb:
        with la:
            pass
    with pytest.raises(LockOrderError, match="potential deadlock") as excinfo:
        witness.assert_no_cycles()
    assert "net/client.py:10" in str(excinfo.value)
    assert "server/index.py:20" in str(excinfo.value)


def test_witness_held_stacks_are_per_thread():
    witness = make_witness()
    la = make_lock("x.py:1", witness)
    lb = make_lock("y.py:2", witness)

    def nested():
        with la:
            with lb:
                pass

    worker = threading.Thread(target=nested, name="witness-worker")
    worker.start()
    worker.join()
    # The worker's nesting was recorded; the main thread held nothing.
    assert witness.graph.edges == {"x.py:1": {"y.py:2"}}
    assert witness._stack() == []


def test_out_of_order_release_keeps_bookkeeping_sane():
    witness = make_witness()
    l1 = make_lock("s1", witness)
    l2 = make_lock("s2", witness)
    l1.acquire()
    l2.acquire()
    l1.release()  # legal in Python, must not corrupt the held stack
    l2.release()
    assert witness._stack() == []
    assert witness.graph.edges == {"s1": {"s2"}}
    witness.assert_no_cycles()


# ---------------------------------------------------------------------------
# Condition compatibility


def test_witnessed_lock_backs_a_condition():
    witness = make_witness()
    lock = make_lock("cond.py:1", witness)
    cond = threading.Condition(lock)
    with cond:
        cond.notify_all()
        assert cond.wait(timeout=0.01) is False  # release/re-acquire cycle
    assert witness._stack() == []  # wait()'s save/restore stayed balanced
    assert not lock.locked()
    witness.assert_no_cycles()


# ---------------------------------------------------------------------------
# install()/uninstall()


@pytest.mark.skipif(
    os.environ.get("REPRO_LOCK_WITNESS") == "1",
    reason="global witness already owns threading.Lock; double-wrapping "
    "would report test-local locks to the session graph",
)
def test_install_patches_and_uninstall_restores():
    orig_lock, orig_rlock = threading.Lock, threading.RLock
    witness, uninstall = install()
    try:
        lock = threading.Lock()
        assert isinstance(lock, WitnessedLock)
        with lock:
            pass
        # The allocation site is this file, not threading.py.
        assert "test_lock_witness.py" in lock._name
        rlock = threading.RLock()
        with rlock:
            with rlock:  # re-entrant: self-edge, ignored
                pass
        witness.assert_no_cycles()
    finally:
        uninstall()
    assert threading.Lock is orig_lock
    assert threading.RLock is orig_rlock
