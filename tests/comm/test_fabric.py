"""Fabric mailbox matching and link selection."""

import pytest

from repro.cluster.presets import laptop_cluster
from repro.comm.fabric import Fabric, Message
from repro.comm.payload import make_payload
from repro.faults.plan import FaultPlan, MessageFaultRule
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
    fabric._enqueue(_msg(0, 1, tag=7))
    fabric._enqueue(_msg(2, 1, tag=7))
    fabric._enqueue(_msg(0, 1, tag=8))
    got = fabric.match(1, source=2, tag=7)
    assert got.src == 2
    assert (fabric.match(1, source=0, tag=8).tag, fabric.match(1, source=0, tag=7).tag) == (8, 7)
    assert fabric._boxes[1].pending == 0


def test_fifo_per_source_tag(fabric):
    first = _msg(0, 1, tag=3, arrival=9.0)
    second = _msg(0, 1, tag=3, arrival=1.0)  # arrives earlier but sent later
    fabric._enqueue(first)
    fabric._enqueue(second)
    assert fabric.match(1, 0, 3) is first
    assert fabric.match(1, 0, 3) is second


def test_unmatched_receive_with_no_runnable_rank_is_a_deadlock_at_once(fabric):
    """No other rank can take the baton, so nobody can ever send: the
    receive raises immediately, and the rank is not left parked."""
    with pytest.raises(DeadlockError, match="rank 0 waits for source=1 tag=1"):
        fabric.match(0, source=1, tag=1)
    fabric._enqueue(_msg(1, 0, tag=1))
    assert fabric.match(0, source=1, tag=1).src == 1


def test_probe_and_pending(fabric):
    assert not fabric.probe(1, source=0, tag=2)
    fabric._enqueue(_msg(0, 1, tag=2))
    assert fabric.probe(1, source=0, tag=2)
    assert not fabric.probe(1, source=2, tag=2)
    assert not fabric.probe(1, source=0, tag=3)
    assert fabric._boxes[1].pending == 1


def test_abort_poisons_fabric(fabric):
    fabric.abort(RuntimeError("x"))
    with pytest.raises(CommunicationError):
        fabric.transmit(
            0, 1, 1, make_payload(None), send_time=0.0, charged=0.0, link=fabric.link(0, 1)
        )
    with pytest.raises(CommunicationError):
        fabric.match(1, source=0, tag=1)


def test_ingress_serializes_concurrent_arrivals(fabric):
    # Two messages whose wires overlap in time: the second's delivery must
    # be pushed back behind the first on the receiver NIC.
    fabric._enqueue(_msg(0, 1, tag=1, arrival=1.0, wire=1.0))
    fabric._enqueue(_msg(2, 1, tag=1, arrival=1.0, wire=1.0))
    a = fabric.match(1, 0, 1)
    b = fabric.match(1, 2, 1)
    assert a.arrival_time == pytest.approx(1.0)
    assert b.arrival_time == pytest.approx(2.0)


def test_inject_serializes_sender(fabric):
    # Two messages ready at once leave the sender's egress NIC one after
    # the other: the second's wire starts where the first's ends.
    link = fabric.link(0, 2)
    sent = [
        fabric.transmit(
            0, 2, 1, make_payload(None), send_time=0.0, charged=link.bandwidth, link=link
        )  # 1 second of bytes each
        for _ in range(2)
    ]
    assert sent == [
        (pytest.approx(link.latency + 1.0), True),
        (pytest.approx(link.latency + 2.0), True),
    ]
    first, second = fabric.match(2, 0, 1), fabric.match(2, 0, 1)
    assert (first.wire_duration, second.wire_duration) == (pytest.approx(1.0),) * 2


def test_transmit_reports_whether_it_enqueued(fabric):
    # A drop is the one verdict the sender learns: a duplicated or delayed
    # message is enqueued (twice, or later) all the same.
    fabric.install_faults(
        FaultPlan(
            rules=[
                MessageFaultRule(drop_prob=1.0, src=0),
                MessageFaultRule(dup_prob=1.0, src=1),
                MessageFaultRule(delay_prob=1.0, max_delay=1.0, src=2),
            ]
        )
    )
    link = fabric.link(0, 3)
    clean = link.latency + 1.0  # 1 second of bytes

    def transmit(src):
        return fabric.transmit(
            src, 3, 1, make_payload(None), send_time=0.0, charged=link.bandwidth, link=link
        )

    assert transmit(0) == (pytest.approx(clean), False)
    assert not fabric.probe(3, source=0, tag=1)
    assert transmit(1) == (pytest.approx(clean), True)
    assert fabric.match(3, 1, 1).src == fabric.match(3, 1, 1).src == 1
    arrival, enqueued = transmit(2)
    assert enqueued and arrival > clean
    assert fabric.probe(3, source=2, tag=1)


def test_ranks_per_node_validation():
    with pytest.raises(ValidationError):
        Fabric(laptop_cluster(num_nodes=1), ranks_per_node=0)


def test_probe_raises_after_abort(fabric):
    """Regression: a ``test()`` polling loop must fail fast once a sibling
    rank has died, not spin forever on ``False``."""
    fabric._enqueue(_msg(0, 1, tag=1))
    fabric.abort(RuntimeError("sibling died"))
    with pytest.raises(CommunicationError):
        fabric.probe(1, source=0, tag=1)


def test_deadlock_message_names_pattern_and_queue_depth(fabric):
    """The deadlock error must say what the rank was waiting for."""
    fabric._enqueue(_msg(0, 1, tag=9))  # queued but unmatched by the receive below
    with pytest.raises(DeadlockError) as exc:
        fabric.match(1, source=2, tag=5)
    text = str(exc.value)
    assert "deadlocked" in text
    assert "rank 1 waits for source=2 tag=5" in text
    assert "1 unmatched message(s)" in text
    with pytest.raises(DeadlockError) as exc:
        fabric.match(3, source=0, tag=9)
    text = str(exc.value)
    assert "rank 3 waits for source=0 tag=9" in text
    assert "0 unmatched message(s)" in text
    assert "rank 1" not in text  # the earlier failed receive left nothing parked


def test_link_lookup_is_precomputed_per_node_pair(fabric):
    """link() returns the one spec object per node pair, for every rank pair."""
    cluster = fabric.cluster
    for src in range(fabric.size):
        for dst in range(fabric.size):
            same_node = fabric.node_of(src) == fabric.node_of(dst)
            expect = cluster.node.intra_link if same_node else cluster.network
            assert fabric.link(src, dst) is expect
    # Intra-node pairs on different nodes share the identical spec object.
    assert fabric.link(0, 1) is fabric.link(2, 3)


def test_a_fabric_asks_the_cluster_for_no_link_per_node_pair():
    """There are two link classes: a 128-node fabric answers every pair with
    one of the cluster's two spec objects, and a rank outside the run is
    still refused."""
    cluster = laptop_cluster(num_nodes=128)
    wide = Fabric(cluster)
    assert wide.link(5, 5) is cluster.node.intra_link and wide.link(0, 127) is cluster.network
    with pytest.raises(IndexError):
        wide.link(0, 128)
