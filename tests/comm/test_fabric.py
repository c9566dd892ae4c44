"""Fabric mailbox matching and link selection."""

import pytest

from repro.cluster.presets import laptop_cluster
from repro.comm.constants import ANY_SOURCE, ANY_TAG
from repro.comm.fabric import Fabric, Message
from repro.comm.payload import make_payload
from repro.util.errors import CommunicationError, DeadlockError, ValidationError


def _msg(src, dst, tag, arrival=1.0, wire=0.0):
    return Message(
        src=src,
        dst=dst,
        tag=tag,
        payload=make_payload(None),
        send_time=0.0,
        arrival_time=arrival,
        wire_duration=wire,
    )


@pytest.fixture
def fabric():
    return Fabric(laptop_cluster(num_nodes=2), ranks_per_node=2)


def test_node_of_and_link(fabric):
    assert fabric.node_of(0) == 0
    assert fabric.node_of(3) == 1
    assert fabric.link(0, 1).name == "shared-memory"
    assert fabric.link(0, 2).name == "test-net"
    with pytest.raises(ValidationError):
        fabric.node_of(4)


def test_match_by_source_and_tag(fabric):
    fabric.post(_msg(0, 1, tag=7))
    fabric.post(_msg(2, 1, tag=7))
    got = fabric.match(1, source=2, tag=7)
    assert got.src == 2
    got = fabric.match(1, source=ANY_SOURCE, tag=ANY_TAG)
    assert got.src == 0


def test_fifo_per_source_tag(fabric):
    first = _msg(0, 1, tag=3, arrival=9.0)
    second = _msg(0, 1, tag=3, arrival=1.0)  # arrives earlier but sent later
    fabric.post(first)
    fabric.post(second)
    assert fabric.match(1, 0, 3) is first
    assert fabric.match(1, 0, 3) is second


def test_unmatched_receive_with_no_runnable_rank_is_a_deadlock_at_once(fabric):
    """No other rank can take the baton, so nobody can ever send: the
    receive raises immediately, and the rank is not left parked."""
    with pytest.raises(DeadlockError, match="rank 0 waits for source=1 tag=1"):
        fabric.match(0, source=1, tag=1)
    fabric.post(_msg(1, 0, tag=1))
    assert fabric.match(0, source=1, tag=1).src == 1


def test_probe_and_pending(fabric):
    assert not fabric.probe(1)
    fabric.post(_msg(0, 1, tag=2))
    assert fabric.probe(1)
    assert fabric.probe(1, source=0, tag=2)
    assert not fabric.probe(1, source=2)
    assert fabric.pending_count(1) == 1


def test_abort_poisons_fabric(fabric):
    fabric.abort(RuntimeError("x"))
    with pytest.raises(CommunicationError):
        fabric.post(_msg(0, 1, tag=1))
    with pytest.raises(CommunicationError):
        fabric.match(1)


def test_ingress_serializes_concurrent_arrivals(fabric):
    # Two messages whose wires overlap in time: the second's delivery must
    # be pushed back behind the first on the receiver NIC.
    fabric.post(_msg(0, 1, tag=1, arrival=1.0, wire=1.0))
    fabric.post(_msg(2, 1, tag=1, arrival=1.0, wire=1.0))
    a = fabric.match(1, 0, 1)
    b = fabric.match(1, 2, 1)
    assert a.arrival_time == pytest.approx(1.0)
    assert b.arrival_time == pytest.approx(2.0)


def test_inject_serializes_sender(fabric):
    link = fabric.link(0, 2)
    start1, wire1 = fabric.inject(0, 0.0, link.bandwidth, link)  # 1 second of bytes
    start2, wire2 = fabric.inject(0, 0.0, link.bandwidth, link)
    assert (start1, wire1) == (0.0, pytest.approx(1.0))
    assert start2 == pytest.approx(1.0)


def test_ranks_per_node_validation():
    with pytest.raises(ValidationError):
        Fabric(laptop_cluster(num_nodes=1), ranks_per_node=0)


def test_wildcard_match_picks_earliest_arrival_not_post_order(fabric):
    """Regression: ANY_SOURCE must match by minimum (arrival_time, src),
    not by which sender posted first."""
    fabric.post(_msg(2, 1, tag=5, arrival=3.0))
    fabric.post(_msg(0, 1, tag=5, arrival=1.0))
    got = fabric.match(1, source=ANY_SOURCE, tag=5)
    assert got.src == 0
    assert fabric.match(1, source=ANY_SOURCE, tag=5).src == 2


def test_wildcard_match_ties_break_by_source(fabric):
    fabric.post(_msg(3, 1, tag=5, arrival=2.0))
    fabric.post(_msg(0, 1, tag=5, arrival=2.0))
    assert fabric.match(1, source=ANY_SOURCE, tag=5).src == 0


def test_wildcard_match_keeps_per_source_fifo(fabric):
    """A source's later message may carry an *earlier* arrival time (fault
    delays can reorder); the wildcard must still take that source's posts
    in FIFO order."""
    fabric.post(_msg(0, 1, tag=5, arrival=4.0))
    fabric.post(_msg(0, 1, tag=5, arrival=2.0))
    first = fabric.match(1, source=ANY_SOURCE, tag=5)
    second = fabric.match(1, source=ANY_SOURCE, tag=5)
    assert (first.arrival_time, second.arrival_time) == (4.0, 2.0)


def test_probe_raises_after_abort(fabric):
    """Regression: a ``test()`` polling loop must fail fast once a sibling
    rank has died, not spin forever on ``False``."""
    fabric.post(_msg(0, 1, tag=1))
    fabric.abort(RuntimeError("sibling died"))
    with pytest.raises(CommunicationError):
        fabric.probe(1)


def test_deadlock_message_names_pattern_and_queue_depth(fabric):
    """The deadlock error must say what the rank was waiting for."""
    fabric.post(_msg(0, 1, tag=9))  # queued but unmatched by the receive below
    with pytest.raises(DeadlockError) as exc:
        fabric.match(1, source=2, tag=5)
    text = str(exc.value)
    assert "deadlocked" in text
    assert "rank 1 waits for source=2 tag=5" in text
    assert "1 unmatched message(s)" in text
    with pytest.raises(DeadlockError) as exc:
        fabric.match(3)
    text = str(exc.value)
    assert "rank 3 waits for source=ANY_SOURCE tag=ANY_TAG" in text
    assert "0 unmatched message(s)" in text
    assert "rank 1" not in text  # the earlier failed receive left nothing parked


def test_link_lookup_is_precomputed_per_node_pair(fabric):
    """link() returns the one spec object per node pair, for every rank pair."""
    for src in range(fabric.size):
        for dst in range(fabric.size):
            expect = fabric.cluster.link_between(fabric.node_of(src), fabric.node_of(dst))
            assert fabric.link(src, dst) is expect
    # Intra-node pairs on different nodes share the identical spec object.
    assert fabric.link(0, 1) is fabric.link(2, 3)


def test_a_fabric_asks_the_cluster_for_no_link_per_node_pair(monkeypatch):
    """There are two link classes: building a fabric costs nothing per node
    pair (it was 16 384 ``link_between`` calls for a 128-node run), and a rank
    outside the run is still refused."""
    cluster = laptop_cluster(num_nodes=128)
    calls = []
    monkeypatch.setattr(type(cluster), "link_between", lambda *args: calls.append(args))
    wide = Fabric(cluster)
    assert wide.link(5, 5) is cluster.node.intra_link and wide.link(0, 127) is cluster.network
    assert not calls
    with pytest.raises(IndexError):
        wide.link(0, 128)
