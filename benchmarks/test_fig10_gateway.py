"""Figure 10 — sharded read gateway: zipf restores through the hot cache.

Not a paper figure: CDStore (LiQL15) measures backup/restore against the
cloud quorum directly.  This experiment characterises the repo's read
gateway (`repro gateway`) on the workload such a tier exists for — many
concurrent readers restoring a zipf-skewed catalog of backups.  Two
deterministic quantities are pinned:

* the hot-container **cache hit ratio** of a fixed-size, seeded zipf
  replay against the gateway service.  Every input is deterministic (DRBG
  payloads, fixed chunking, SHA-based ring, LRU bytes), so the ratio is
  exact across machines;
* the **modeled aggregate restore speedup** on the commercial cloud
  testbed (Table 2 links): a cache hit is served at LAN speed from the
  gateway's memory, a miss pays the cloud fetch it would have paid anyway
  plus the LAN forward.  The replayed hit ratio above feeds the mix.

The measured loopback leg (8 concurrent readers over real sockets, direct
quorum vs gateway) is ``measured/test_fig10_aggregate.py``.
"""

from __future__ import annotations

from conftest import pin
from fig10_workload import K, N, make_client, make_servers, store_catalog, zipf_ranks

from repro.bench.reporting import format_table
from repro.cloud.testbed import cloud_testbed, lan_testbed
from repro.gateway import GatewayService


def test_zipf_workload_is_deterministic():
    a = zipf_ranks(12, 240, seed=1007)
    b = zipf_ranks(12, 240, seed=1007)
    assert a == b
    assert zipf_ranks(12, 240, seed=1008) != a
    # The skew the gateway exists for: the head dominates the tail.
    assert a.count(0) > a.count(11) * 3
    assert set(a) <= set(range(12))


#: Fixed-size replay parameters: the pinned values must be identical on
#: every machine.
_REPLAY_FILES = 12
_REPLAY_FILE_BYTES = 96 << 10
_REPLAY_DRAWS = 240
#: Cache sized to roughly half the catalog's share bytes, so the zipf
#: head fits hot and the tail churns — the regime a real gateway runs in.
_REPLAY_CACHE_BYTES = 512 << 10
_REPLAY_WINDOW_BYTES = 32 << 10


def _replayed_hit_ratio() -> float:
    servers = make_servers()
    catalog = store_catalog(servers, _REPLAY_FILES, _REPLAY_FILE_BYTES)
    names = sorted(catalog)
    lookup = make_client(servers)._lookup_key
    with GatewayService(
        servers,
        k=K,
        cache_bytes=_REPLAY_CACHE_BYTES,
        window_bytes=_REPLAY_WINDOW_BYTES,
        recipe_ttl=3600.0,
    ) as service:
        for rank in zipf_ranks(_REPLAY_FILES, _REPLAY_DRAWS, seed=1007):
            key = lookup(names[rank])
            _, _, windows = service.resolve_backup("reader", key)
            for index in range(len(windows)):
                for _server_id, _shares in service.iter_window_shards(
                    "reader", key, index
                ):
                    pass
        return service.stats()["cache_hit_ratio"]


def _modeled_gateway_over_direct(hit_ratio: float) -> float:
    """Modeled aggregate restore speedup on the commercial cloud testbed.

    Per 4 MB restore window the direct quorum fetches ``window/k`` share
    bytes from each of the ``k`` fastest clouds concurrently (makespan =
    slowest of them, one round trip each).  Through the gateway, a hit
    ships the window once over the LAN from cache memory; a miss pays
    the same cloud fetch *plus* the LAN forward.  Mixing by the measured
    hit ratio gives the steady-state speedup.
    """
    window = 4 << 20
    clouds = sorted(
        cloud_testbed().clouds,
        key=lambda c: c.downlink.transfer_time(window // K, batches=1),
    )[:K]
    direct = max(
        cloud.downlink.transfer_time(window // K, batches=1)
        for cloud in clouds
    )
    lan = lan_testbed().clouds[0].downlink.transfer_time(window, batches=1)
    gateway = hit_ratio * lan + (1.0 - hit_ratio) * (direct + lan)
    return direct / gateway


def test_fig10_hit_ratio_and_modeled_speedup():
    hit_ratio = _replayed_hit_ratio()
    modeled = _modeled_gateway_over_direct(hit_ratio)
    table = format_table(
        ["metric", "value"],
        [
            ["zipf draws", _REPLAY_DRAWS],
            ["catalog files", _REPLAY_FILES],
            ["cache/catalog bytes", _REPLAY_CACHE_BYTES
             / (_REPLAY_FILES * _REPLAY_FILE_BYTES)],
            ["cache hit ratio", f"{hit_ratio:.4f}"],
            ["modeled gateway/direct", f"{modeled:.4f}"],
        ],
        title="Figure 10: deterministic zipf replay, "
              f"(n, k)=({N}, {K}), theta=1.1",
    )
    pin("fig10_replay", table)
    # A cache half the catalog's size must serve well over half the zipf
    # traffic from memory...
    assert hit_ratio > 0.5, f"hit ratio {hit_ratio:.2f}"
    # ...which on Table 2 links makes the gateway a clear aggregate win.
    assert modeled > 1.5, f"modeled gateway/direct {modeled:.2f}"
