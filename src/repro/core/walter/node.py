"""The Walter protocol node: PSI with a begin-time frozen snapshot."""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.mvcc_node import MVCCNode
from repro.core.walter.visibility import select_walter_version
from repro.core.wire import ReadRequestBody
from repro.storage.version import Version


class WalterNode(MVCCNode):
    """The state-of-the-art PSI baseline FW-KV improves upon.

    Everything is inherited from :class:`~repro.core.mvcc_node.MVCCNode`;
    the overrides pin down Walter's simpler behaviour:

    * reads are served lock-free against the begin-time snapshot and never
      advance ``T.VC`` (``maxVC`` is ``None``);
    * no version-access-sets, so prepare collects nothing, decide
      propagates nothing, and read-only commits send no Remove messages;
    * consequently, a non-local update transaction whose snapshot lags the
      preferred site's latest version fails validation and aborts until
      the asynchronous Propagate arrives -- the behaviour the delayed-
      propagation experiments (Figures 7 and 9a) measure.
    """

    protocol_name = "walter"

    def _select_version(self, request: ReadRequestBody) -> Tuple[Version, int]:
        return select_walter_version(
            self.store.chain(request.key), request.vc
        )

    def _freshness_bound(
        self, request: ReadRequestBody, version: Version
    ) -> Optional[Tuple[int, ...]]:
        return None
