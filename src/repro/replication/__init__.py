"""Site availability substrate: per-shard primary-backup replication.

The paper's system model (Section 2.2) assumes "each preferred site is
highly available, meaning the site is expected to implement a replication
technique to resist faults", and leaves that technique out of the
concurrency-control description.  This package supplies it, integrated
under the transactional core: with
:class:`repro.config.ReplicationConfig` enabled on a sharded cluster,
every shard's owner streams its prepare/decision/apply records to
deterministically placed backups (``repro.replication.shard``), sync mode
gates commit acknowledgment on backup acknowledgment, and the accrual
failure detector drives live failover behind the shard fence machinery
(see ``docs/replication.md``).

Scope notes, mirroring the paper's:

* crash-stop failures plus network partitions handled by majority
  failure attestation (real deployments use a consensus protocol -- the
  paper cites Paxos [19] -- for full partition tolerance);
* the transactional core treats a preferred site as one logical node;
  this package shows how that logical node survives replica crashes with
  no acknowledged commit lost and its keys readable throughout.
"""

from repro.replication.failover import FailoverDriver, backups_for_shard
from repro.replication.shard import ClusterReplication, NodeReplication

__all__ = [
    "ClusterReplication",
    "FailoverDriver",
    "NodeReplication",
    "backups_for_shard",
]
