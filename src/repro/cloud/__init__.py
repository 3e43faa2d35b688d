"""Simulated multi-cloud testbed.

The paper evaluates CDStore on a LAN of 1 Gb/s machines and on four
commercial clouds (Amazon, Google, Azure, Rackspace — Table 2).  Neither
testbed is available to a reproduction, so this package simulates them:

* :mod:`repro.cloud.network` — bandwidth/latency link models and the
  shared-uplink contention model that shapes the paper's transfer speeds;
* :mod:`repro.cloud.provider` — a cloud provider = storage backend + VM
  (the co-locating CDStore server) + links + failure injection;
* :mod:`repro.cloud.testbed` — ready-made LAN and commercial-cloud testbed
  configurations calibrated to §5.1/Table 2, plus the performance model
  used by the transfer-speed experiments (Figures 7-8).

Transfer times are *modelled*, never charged to a real transfer: real data
flows through the real client, server, dedup and container code, which
report byte counts, and the calibrated models price those bytes (network,
disk, compute).  Absolute MB/s therefore land in the paper's range even
though pure Python is orders of magnitude slower than the authors' C++
prototype; the shape claims (who is bottlenecked by what) carry over
unchanged.
"""

from repro.cloud.network import Link
from repro.cloud.provider import CloudProvider
from repro.cloud.testbed import (
    CLOUD_LINKS,
    PerformanceModel,
    Testbed,
    cloud_testbed,
    lan_testbed,
)

__all__ = [
    "CLOUD_LINKS",
    "CloudProvider",
    "Link",
    "PerformanceModel",
    "Testbed",
    "cloud_testbed",
    "lan_testbed",
]
