"""repro.dist — fault-tolerant multi-host campaign distribution.

Lifts :mod:`repro.runner` from a single-host process pool to a
coordinator + N remote workers over a length-prefixed JSON socket
transport (stdlib-only, the same spirit as :mod:`repro.serve`):

- :mod:`repro.dist.protocol` — the framed wire format and its
  message vocabulary (``hello``/``register``/``assign``/``heartbeat``/
  ``result``/``bye``);
- :mod:`repro.dist.leases` — time-bounded job leases with monotonic
  per-job epochs, the mechanism that makes ledger merge idempotent
  under partitions;
- :mod:`repro.dist.worker` — the remote worker daemon
  (``python -m repro dist worker``);
- :mod:`repro.dist.coordinator` — the campaign coordinator behind
  ``repro run --dist`` (leases, heartbeats, reassignment, degraded
  local fallback);
- :mod:`repro.dist.cache_sync` — verdict-cache entry sync between
  coordinator and workers through the pluggable backend layer;
- :mod:`repro.dist.netfaults` — a deterministic network fault injector
  (drop/delay/duplicate/reorder frames, sever mid-frame) behind the
  chaos tests.

The design inherits the repo's one discipline: every verification job
is a pure function of (system, claim, budget), so verdicts computed on
any host are byte-identical — distribution may lose time, never truth.
"""

from repro.dist.coordinator import DistConfig, DistCoordinator, parse_hosts
from repro.dist.leases import Lease, LeaseTable
from repro.dist.netfaults import FaultPlan, FaultyConnection, parse_plan
from repro.dist.protocol import (
    PROTOCOL_VERSION,
    ConnectionClosed,
    FrameConnection,
    ProtocolError,
)
from repro.dist.worker import EXIT_DIST_TRANSPORT, DistWorker

__all__ = [
    "PROTOCOL_VERSION",
    "ConnectionClosed",
    "FrameConnection",
    "ProtocolError",
    "Lease",
    "LeaseTable",
    "FaultPlan",
    "FaultyConnection",
    "parse_plan",
    "DistConfig",
    "DistCoordinator",
    "parse_hosts",
    "DistWorker",
    "EXIT_DIST_TRANSPORT",
]
