"""A single object version and its PSI metadata."""

from __future__ import annotations

from typing import Hashable, Optional, Set

from repro.core.vector_clock import VectorClock


class Version:
    """One committed version of a key.

    Carries everything both protocols need (paper Section 4.1):

    * ``vc`` -- the commit vector clock of the creating transaction;
    * ``vid`` -- the monotonically increasing per-key scalar identifier
      ("the freshest among them is selected");
    * ``origin``/``seq`` -- the creating coordinator's site and its scalar
      sequence number there (Walter's ``<site, seqno>`` timestamp; also the
      entry ``vc[origin]``);
    * ``vas`` -- the FW-KV version-access-set (VAS): identifiers of
      read-only transactions with a (possibly transitive) anti-dependency
      on this version.  It exists only while a reader is in it: ``None``
      from birth to the first ``vas_add`` and again after the ``Remove``
      that empties it, so a never-read version (all of Walter's) owns no
      set.  ``src/`` tests the slot; ``access_set`` is the public view.
    """

    __slots__ = (
        "key",
        "value",
        "vc",
        "vid",
        "origin",
        "seq",
        "vas",
        "writer_txn",
        "installed_at",
    )

    def __init__(
        self,
        key: Hashable,
        value: object,
        vc: VectorClock,
        vid: int,
        origin: int,
        seq: int,
        writer_txn: Optional[int] = None,
        installed_at: float = 0.0,
    ) -> None:
        self.key = key
        self.value = value
        self.vc = vc
        self.vid = vid
        self.origin = origin
        self.seq = seq
        self.vas: Optional[Set[int]] = None
        #: Transaction that installed this version (None for loaded data);
        #: consumed by the history checker's version catalog.
        self.writer_txn = writer_txn
        #: Virtual time of installation; consumed by the age-based GC.
        self.installed_at = installed_at

    @property
    def access_set(self) -> Set[int]:
        """The VAS as a mutable set, allocated on first touch (an empty
        set reads the same as ``None`` everywhere)."""
        vas = self.vas
        if vas is None:
            vas = self.vas = set()
        return vas

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Version {self.key!r}#{self.vid} origin={self.origin} "
            f"seq={self.seq} vc={self.vc!r} vas={sorted(self.vas or ())}>"
        )
