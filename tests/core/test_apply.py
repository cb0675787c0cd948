"""The in-order applier (``repro.core.apply``): one origin's commits, in any
delivery order, end at one site where in-order delivery ends.

The site takes part in some of the origin's commits (a prepared write,
then a Decide) and hears of the rest by Propagate, one per commit.  A
drawn order mixes duplicates, gaps in virtual time and one gossip-style
catch-up: it claims every commit still prepared, as ``Applier.pull`` does
once their coordinator has answered, and advances the clock to the end
while a duplicate Decide races the claimed applier.
"""

from hypothesis import given, settings, strategies as st

from repro import Cluster, ClusterConfig, DurabilityConfig
from repro.cluster import ExplicitDirectory
from repro.core.wire import DecideBody, PrepareBody, PropagateBody
from repro.net.message import Envelope, MessageType
from repro.storage.wal import ApplyRecord, PropagateRecord, store_fingerprint

ORIGIN, SITE = 0, 1
MAX_SEQ = 7
KEYS = {f"k{seq}": SITE for seq in range(1, MAX_SEQ + 1)}


def decide(seq):
    return DecideBody(100 + seq, True, ORIGIN, seq, (seq, 0))


def run(joined, items):
    """One origin's commits ``1 .. len(joined)`` at the site -- ``joined``
    marks those it took part in -- delivered as ``items`` say; returns
    what the site ends with."""
    config = ClusterConfig(
        num_nodes=2, seed=3, durability=DurabilityConfig(wal_enabled=True)
    )
    cluster = Cluster("fwkv", config, directory=ExplicitDirectory(KEYS))
    node, sim = cluster.node(SITE), cluster.sim
    for seq, took_part in enumerate(joined, 1):
        if took_part:
            body = PrepareBody(100 + seq, ORIGIN, {f"k{seq}": seq}, (0, 0))
            assert cluster.run_process(node._handle_prepare(body)).ok

    def deliver():
        for kind, arg, gap in items:
            if kind == "catch-up":
                for txn_id in sorted(node._prepared):
                    node.applier.claim(decide(txn_id - 100), name="claimed")
                sim.spawn(node.applier.advance_to(ORIGIN, len(joined)))
            elif kind == "decide":
                envelope = Envelope(MessageType.DECIDE, ORIGIN, SITE, decide(arg))
                sim.spawn(node.on_decide(envelope))
            else:
                body = PropagateBody(ORIGIN, arg)
                node.applier.on_propagate(
                    Envelope(MessageType.PROPAGATE, ORIGIN, SITE, body)
                )
            yield sim.timeout(gap)

    cluster.run_process(deliver())
    cluster.run()
    clock_records = [
        record.seq_no for record in node.wal.records()
        if isinstance(record, (ApplyRecord, PropagateRecord))
    ]
    return (
        node.site_vc.to_tuple(), store_fingerprint(node.store), clock_records,
        node.applier.site_vc_changed.waiter_count, bool(node._prepared),
    )


@st.composite
def deliveries(draw):
    joined = draw(st.lists(st.booleans(), min_size=1, max_size=MAX_SEQ))
    messages = [
        ("decide" if took else "propagate", seq)
        for seq, took in enumerate(joined, 1)
    ]
    messages += draw(st.lists(st.sampled_from(messages), max_size=3))
    if draw(st.booleans()):
        messages.append(("catch-up", None))
    order = draw(st.permutations(messages))
    gaps = st.sampled_from([0.0, 1e-6, 30e-6])
    return joined, [(kind, arg, draw(gaps)) for kind, arg in order]


@settings(max_examples=60, deadline=None)
@given(deliveries())
def test_any_delivery_order_ends_where_in_order_delivery_does(drawn):
    joined, items = drawn
    in_order = [
        ("decide" if took else "propagate", seq, 50e-6)
        for seq, took in enumerate(joined, 1)
    ]
    expected = run(joined, in_order)
    assert expected[0] == (len(joined), 0)
    assert expected[2] == list(range(1, len(joined) + 1))
    assert expected[3:] == (0, False)
    assert run(joined, items) == expected


def test_a_propagate_past_a_gap_waits_for_the_gap_to_fill():
    """Alg. 6 line 2: a Propagate ahead of the next expected seq leaves
    siteVC where it is until the gap's own Propagate lands; a duplicate
    then changes nothing."""
    cluster = Cluster(
        "fwkv", ClusterConfig(num_nodes=2, seed=3), directory=ExplicitDirectory(KEYS)
    )
    node = cluster.node(SITE)

    def propagate(seq):
        body = PropagateBody(ORIGIN, seq)
        node.applier.on_propagate(Envelope(MessageType.PROPAGATE, ORIGIN, SITE, body))
        cluster.run()
        return node.site_vc.to_tuple()

    assert propagate(2) == (0, 0)
    assert node.applier.site_vc_changed.waiter_count == 1
    assert propagate(1) == (2, 0)
    assert propagate(1) == (2, 0)
    assert node.applier.site_vc_changed.waiter_count == 0
