"""Property tests: indexed matching == global-lock reference semantics.

The indexed fabric replaced a single global mailbox list (scanned linearly
under one lock) with per-(source, tag) FIFO deques per destination mailbox.
These tests pin the semantic contract of that rewrite with hypothesis:

- every receive — specific or wildcard — picks exactly the message the old
  global-lock scan would have picked (earliest-posted candidate per source,
  then minimum ``(arrival_time, src)`` across sources);
- the pick is a function of *virtual time and per-source post order only*:
  re-posting the same per-source message sequences under a different
  global interleaving (as if sender threads raced differently on the wall
  clock) delivers the identical sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.presets import ohio_cluster
from repro.comm.constants import ANY_SOURCE, ANY_TAG
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
    fabric.post(
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
    """Index of the message the old global-lock scan would deliver.

    ``pending`` is in post order.  Per source the candidate is the
    earliest-posted matching message (FIFO / non-overtaking); across
    sources the winner has the minimum ``(arrival, src)``.
    """
    candidates: dict[int, tuple[int, Spec]] = {}
    for i, m in enumerate(pending):
        if source != ANY_SOURCE and m.src != source:
            continue
        if tag != ANY_TAG and m.tag != tag:
            continue
        if m.src not in candidates:
            candidates[m.src] = (i, m)
    if not candidates:
        return None
    return min(candidates.values(), key=lambda t: (t[1].arrival, t[1].src))[0]


# Coarse arrival grid so ties (equal arrival, different src/tag) are common.
_arrivals = st.integers(min_value=0, max_value=5).map(lambda n: n / 4.0)

_specs = st.builds(
    Spec,
    src=st.integers(0, N_SOURCES - 1),
    tag=st.integers(0, N_TAGS - 1),
    arrival=_arrivals,
    uid=st.integers(),
)

_patterns = st.tuples(
    st.sampled_from([ANY_SOURCE, 0, 1, 2, 3]),
    st.sampled_from([ANY_TAG, 0, 1, 2]),
)


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
    # Drain what's left with wildcards: must follow the reference order.
    while pending:
        ref = _reference_pick(pending, ANY_SOURCE, ANY_TAG)
        expect = pending.pop(ref)
        got = fabric.match(DST, ANY_SOURCE, ANY_TAG)
        assert got.payload.data == expect.uid
    assert fabric.pending_count(DST) == 0


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
    ``(arrival_time, src)`` and per-source post order.
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
        while fabric.pending_count(DST):
            out.append(fabric.match(DST, ANY_SOURCE, ANY_TAG).payload.data)
        return out

    assert drain_all(messages) == drain_all(interleaved)
