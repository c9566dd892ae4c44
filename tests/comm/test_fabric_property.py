"""Property tests: indexed matching == global-lock reference semantics.

The indexed fabric replaced a single global mailbox list (scanned linearly
under one lock) with per-(source, tag) FIFO deques per destination mailbox.
These tests pin the semantic contract of that rewrite with hypothesis:

- every receive picks exactly the message the old global-lock scan would
  have picked: the earliest-posted message on its (source, tag) pair;
- the pick is a function of *per-source post order only*: re-posting the
  same per-source message sequences under a different global interleaving
  (as if sender threads raced differently on the wall clock) delivers the
  identical sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.presets import ohio_cluster
from repro.comm.fabric import Fabric, Message
from repro.comm.payload import make_payload

DST = 0
N_SOURCES = 4
N_TAGS = 3


@dataclass(frozen=True)
class Spec:
    """One message to post: (src, tag, arrival, uid) — uid is the payload."""

    src: int
    tag: int
    arrival: float
    uid: int


def _post(fabric: Fabric, spec: Spec) -> None:
    fabric._enqueue(
        Message(
            src=spec.src,
            dst=DST,
            tag=spec.tag,
            payload=make_payload(spec.uid),
            send_time=0.0,
            arrival_time=spec.arrival,
        )
    )


def _reference_pick(pending: list[Spec], source: int, tag: int) -> int | None:
    """Index of the message the old global-lock scan would deliver:
    the earliest-posted one on (source, tag) (FIFO / non-overtaking).
    ``pending`` is in post order."""
    for i, m in enumerate(pending):
        if (m.src, m.tag) == (source, tag):
            return i
    return None


# Coarse arrival grid: a later post may carry an earlier arrival, which
# must not overtake.
_arrivals = st.integers(min_value=0, max_value=5).map(lambda n: n / 4.0)

_specs = st.builds(
    Spec,
    src=st.integers(0, N_SOURCES - 1),
    tag=st.integers(0, N_TAGS - 1),
    arrival=_arrivals,
    uid=st.integers(),
)

_patterns = st.tuples(st.integers(0, N_SOURCES - 1), st.integers(0, N_TAGS - 1))
_ALL_PAIRS = [(src, tag) for src in range(N_SOURCES) for tag in range(N_TAGS)]


def _fresh_fabric() -> Fabric:
    return Fabric(ohio_cluster(4), ranks_per_node=1)


def _uniquify(messages: list[Spec]) -> list[Spec]:
    return [Spec(m.src, m.tag, m.arrival, uid=i) for i, m in enumerate(messages)]


@settings(max_examples=60, deadline=None)
@given(messages=st.lists(_specs, max_size=20), patterns=st.lists(_patterns, max_size=30))
def test_every_receive_matches_the_global_lock_reference(messages, patterns):
    """probe() agreement + match() delivers the reference pick, every time."""
    messages = _uniquify(messages)
    fabric = _fresh_fabric()
    for m in messages:
        _post(fabric, m)
    pending = list(messages)
    for source, tag in patterns:
        ref = _reference_pick(pending, source, tag)
        assert fabric.probe(DST, source, tag) == (ref is not None)
        if ref is None:
            continue  # match() would block; the reference agrees it must
        expect = pending.pop(ref)
        got = fabric.match(DST, source, tag)
        assert (got.src, got.tag, got.arrival_time, got.payload.data) == (
            expect.src,
            expect.tag,
            expect.arrival,
            expect.uid,
        )
    # Drain what's left pair by pair: must follow the reference order.
    for source, tag in _ALL_PAIRS:
        while (ref := _reference_pick(pending, source, tag)) is not None:
            assert fabric.match(DST, source, tag).payload.data == pending.pop(ref).uid
        assert not fabric.probe(DST, source, tag)
    assert not pending and fabric._boxes[DST].pending == 0


@settings(max_examples=60, deadline=None)
@given(
    messages=st.lists(_specs, min_size=1, max_size=20),
    seed=st.randoms(use_true_random=False),
    drain=_patterns,
)
def test_delivery_order_is_invariant_to_sender_interleaving(messages, seed, drain):
    """Same per-source sequences, different wall-clock post race → same order.

    A reshuffle that preserves each source's own post order models sender
    threads racing differently; the delivered sequence (for any fixed
    receive pattern) must not change, because selection depends only on
    per-source post order.
    """
    messages = _uniquify(messages)
    by_src: dict[int, list[Spec]] = {}
    for m in messages:
        by_src.setdefault(m.src, []).append(m)
    # Rebuild a different global interleaving of the same per-source FIFOs.
    cursors = {src: 0 for src in by_src}
    interleaved: list[Spec] = []
    while len(interleaved) < len(messages):
        src = seed.choice([s for s in cursors if cursors[s] < len(by_src[s])])
        interleaved.append(by_src[src][cursors[src]])
        cursors[src] += 1

    source, tag = drain

    def drain_all(order: list[Spec]) -> list[int]:
        fabric = _fresh_fabric()
        for m in order:
            _post(fabric, m)
        out = []
        while fabric.probe(DST, source, tag):
            out.append(fabric.match(DST, source, tag).payload.data)
        # Flush the rest so both runs observe every message.
        for pair in _ALL_PAIRS:
            while fabric.probe(DST, *pair):
                out.append(fabric.match(DST, *pair).payload.data)
        assert fabric._boxes[DST].pending == 0
        return out

    assert drain_all(messages) == drain_all(interleaved)
