"""Walter's version-selection rule, as a pure function."""

from __future__ import annotations

from typing import Hashable, Sequence, Tuple

from repro.storage.chain import VersionChain
from repro.storage.version import Version


def select_walter_version(
    chain: VersionChain, txn_vc: Sequence[int], key: Hashable = None
) -> Tuple[Version, int]:
    """The freshest version within the begin-time snapshot.

    Walter stamps each version with ``<origin site, seqno>``; a version is
    visible to a transaction whose start vector is ``txn_vc`` iff
    ``txn_vc[origin] >= seqno``.  The snapshot never advances during the
    transaction, so reads "can return arbitrarily old values" when the
    asynchronous propagation lags (paper Sections 1 and 3.1).
    """
    for version in chain.newest_first():
        if version.seq <= txn_vc[version.origin]:
            return version, 0
    raise RuntimeError(
        f"no visible version of {key!r}; the initial version "
        "(seq 0) should always be visible"
    )
