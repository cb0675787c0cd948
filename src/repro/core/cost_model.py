"""Virtual CPU seconds charged by protocol handlers (DESIGN.md 1).

The paper's FW-KV-vs-Walter gap is driven by read-side synchronisation
and version-access-set (VAS) bookkeeping; these constants make that work
visible to the virtual clock.  Values are calibrated so a 2-key YCSB
transaction takes a few hundred microseconds end to end, putting
cluster throughput in the hundreds of KTxs/s -- the same order as the
paper's Figure 5.  Every run prices work with these numbers, so they
are constants, not configuration.
"""

#: Fixed cost of serving any read request at the storage node.
READ_HANDLER = 12e-6
#: Per-version cost of scanning a version chain during selection.
VERSION_SCAN_ITEM = 2e-7
#: Per-identifier cost of scanning/merging a version-access-set.
VAS_ITEM = 5e-7
#: Cost of one lock-table acquire or release.
LOCK_OP = 2e-6
#: Per-key cost of 2PC prepare (lock bookkeeping plus validation,
#: which re-reads each key's latest state).
PREPARE_KEY = 15e-6
#: Per-key cost of installing a new version at decide time.
INSTALL_KEY = 10e-6
#: Fixed cost of the coordinator-side commit logic.
COMMIT_BASE = 10e-6
#: Server cores per node executing protocol handlers.  Finite cores make
#: saturated nodes queue work, so protocols that do more server-side
#: work per transaction (the 2PC baseline's read-only commits) lose
#: throughput, as on the paper's testbed.
CPU_CORES = 4
#: Client-side cost around every transaction attempt (request assembly,
#: marshalling, dispatch, response handling).
CLIENT_OVERHEAD = 50e-6
