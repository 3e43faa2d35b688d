"""The networked serving layer (§4's real deployment shape).

These pieces turn the in-process client↔server calls into a distributed
system without changing a byte of what travels:

* :mod:`repro.net.wire` — the length-prefixed, request-id-tagged binary
  frame protocol covering the full
  :class:`~repro.server.server.CDStoreServer` surface, with typed error
  frames and hard frame-size caps (see ``docs/PROTOCOL.md`` for the
  normative spec);
* :mod:`repro.net.dispatch` — the transport-agnostic frame dispatcher
  both front-ends share: auth handshake, tenancy scoping, rate limits
  and the request→reply-frame mapping live here exactly once;
* :mod:`repro.net.server` — the thread-per-connection TCP front-end,
  the right trade at tens of connections;
* :mod:`repro.net.async_server` — the event-loop front-end multiplexing
  thousands of connections into a bounded executor, with per-tenant
  admission control and slow-reader eviction;
* :mod:`repro.net.client` — :class:`~repro.net.client.RemoteServerProxy`,
  a reconnecting stand-in that duck-types the server surface so the comm
  engine, client and system treat ``tcp://host:port`` like any other
  cloud; it shares one socket between concurrent requests and pipelines
  upload acks.
"""

from repro.net.async_server import AsyncCDStoreTCPServer
from repro.net.client import RemoteCloud, RemoteServerProxy
from repro.net.server import CDStoreTCPServer

__all__ = [
    "AsyncCDStoreTCPServer",
    "CDStoreTCPServer",
    "RemoteCloud",
    "RemoteServerProxy",
]
