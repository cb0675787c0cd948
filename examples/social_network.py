#!/usr/bin/env python3
"""The long-fork anomaly on a social network, and how FW-KV avoids it.

The paper's motivating story (Sections 1 and 3.3): two users publish posts
and alert their friends out of band; two readers then check both feeds.
Under Walter, one reader can see only the first post and the other only
the second -- they disagree on what happened, even though both posts were
fully published before either reader looked.  FW-KV's fresh first-contact
reads eliminate this *observable* long fork.

Run with::

    python examples/social_network.py
"""

from repro import Cluster, ClusterConfig, NetworkConfig
from repro.cluster import ExplicitDirectory
from repro.metrics import find_long_forks
from repro.net.message import MessageType

#: Feed placement: alice's feed lives on node 1, bob's on node 2.
PLACEMENT = {"feed:alice": 1, "feed:bob": 2}
SLOW_LINKS = {(1, 3), (2, 0)}  # congested Propagate paths


def delay_policy(envelope):
    """Congestion: Propagates on two links lag by 10 ms."""
    if envelope.msg_type == MessageType.PROPAGATE and (
        (envelope.src, envelope.dst) in SLOW_LINKS
    ):
        return 10e-3
    return 0.0


def run(protocol):
    cluster = Cluster(
        protocol,
        ClusterConfig(num_nodes=4, seed=7, network=NetworkConfig(jitter=0.0)),
        directory=ExplicitDirectory(PLACEMENT),
        record_history=True,
    )
    cluster.network.delay_policy = delay_policy
    cluster.load("feed:alice", "(no posts yet)")
    cluster.load("feed:bob", "(no posts yet)")

    def publish(node_id, feed, text):
        node = cluster.node(node_id)
        txn = node.begin(is_read_only=False)
        node.write(txn, feed, text)
        ok = yield from node.commit(txn)
        assert ok

    observations = {}

    def check_feeds(node_id, order, label):
        # Both posts are committed well before t=1ms; the readers start
        # after being alerted out of band.
        yield cluster.sim.timeout(1e-3)
        node = cluster.node(node_id)
        txn = node.begin(is_read_only=True)
        seen = {}
        for feed in order:
            seen[feed] = yield from node.read(txn, feed)
        yield from node.commit(txn)
        observations[label] = seen

    cluster.spawn(publish(1, "feed:alice", "alice: check out my talk!"))
    cluster.spawn(publish(2, "feed:bob", "bob: great news everyone"))
    cluster.spawn(check_feeds(0, ["feed:alice", "feed:bob"], "carol"))
    cluster.spawn(check_feeds(3, ["feed:bob", "feed:alice"], "dave"))
    cluster.run()

    forks = find_long_forks(cluster.finalized_history())
    return observations, forks


def main() -> None:
    for protocol in ("walter", "fwkv"):
        observations, forks = run(protocol)
        print(f"=== {protocol} ===")
        for reader, seen in sorted(observations.items()):
            print(f"  {reader} sees:")
            for feed, value in sorted(seen.items()):
                print(f"    {feed}: {value}")
        if forks:  # find_long_forks reports observable forks only
            print(
                f"  !! long fork: the two readers observed the two posts in\n"
                f"     opposite orders, after both were fully published "
                f"({len(forks)} witness(es))"
            )
        else:
            print("  no observable long fork: both readers agree")
        print()


if __name__ == "__main__":
    main()
