"""Cloud simulation: links, providers, testbed models."""

import pytest

from repro.cloud.network import Link
from repro.cloud.provider import CloudProvider
from repro.cloud.testbed import (
    CLOUD_LINKS,
    LOCAL_I5,
    LOCAL_XEON,
    cloud_testbed,
    lan_testbed,
)
from repro.errors import CloudUnavailableError, NotFoundError, ParameterError


class TestLink:
    def test_transfer_time(self):
        link = Link(bandwidth_mbps=100.0)
        assert link.transfer_time(100_000_000) == pytest.approx(1.0)

    def test_latency_charged_per_batch(self):
        link = Link(bandwidth_mbps=100.0, latency_s=0.1)
        base = link.transfer_time(1_000_000, batches=1)
        assert link.transfer_time(1_000_000, batches=5) == pytest.approx(base + 0.4)

    def test_validation(self):
        with pytest.raises(ParameterError):
            Link(0)
        with pytest.raises(ParameterError):
            Link(10, latency_s=-1)
        with pytest.raises(ParameterError):
            Link(10).transfer_time(-5)


class TestProvider:
    def test_failure_injection(self):
        cloud = CloudProvider("c", Link(10), Link(10))
        cloud.put_object("k", b"v")
        cloud.fail()
        with pytest.raises(CloudUnavailableError):
            cloud.get_object("k")
        with pytest.raises(CloudUnavailableError):
            cloud.put_object("k2", b"v")
        cloud.recover()
        assert cloud.get_object("k") == b"v"

    def test_stored_bytes_visible_during_outage(self):
        cloud = CloudProvider("c", Link(10), Link(10))
        cloud.put_object("k", b"12345")
        cloud.fail()
        assert cloud.stored_bytes == 5  # billing continues through outages

    def test_wipe(self):
        cloud = CloudProvider("c", Link(10), Link(10))
        cloud.put_object("k", b"v")
        cloud.wipe()
        with pytest.raises(NotFoundError):
            cloud.get_object("k")


class TestPerformanceModel:
    def test_thread_scaling(self):
        doubled = LOCAL_I5.scaled_threads(4)
        assert doubled.encode_mbps == pytest.approx(2 * LOCAL_I5.encode_mbps)
        assert doubled.server_disk_write_mbps == LOCAL_I5.server_disk_write_mbps
        with pytest.raises(ParameterError):
            LOCAL_I5.scaled_threads(0)

    def test_machine_presets(self):
        assert LOCAL_XEON.encode_mbps < LOCAL_I5.encode_mbps


class TestTestbeds:
    def test_lan_testbed_shape(self):
        tb = lan_testbed()
        assert tb.n == 4
        assert all(c.uplink.bandwidth_mbps == 110.0 for c in tb.clouds)

    def test_cloud_testbed_links_match_table2(self):
        tb = cloud_testbed()
        names = {c.name for c in tb.clouds}
        assert names == set(CLOUD_LINKS)
        for cloud in tb.clouds:
            up, down = CLOUD_LINKS[cloud.name]
            assert cloud.uplink.bandwidth_mbps == up
            assert cloud.downlink.bandwidth_mbps == down

    def test_upload_time_argument_validation(self):
        tb = lan_testbed()
        with pytest.raises(ParameterError):
            tb.upload_time(100, [1.0, 2.0])  # wrong cloud count

    def test_download_fragmentation_validation(self):
        tb = lan_testbed()
        with pytest.raises(ParameterError):
            tb.download_time(100, {0: 10.0}, fragmentation=1.5)

    def test_upload_unique_bounded_by_uplink(self):
        """LAN unique upload ≈ (k/n) x link speed (§5.5)."""
        tb = lan_testbed()
        data = 2 << 30
        t = tb.upload_time(data, [data / 3] * 4, k=3)
        speed = data / 1e6 / t
        assert speed == pytest.approx(110 * 3 / 4, rel=0.05)

    def test_duplicate_upload_is_compute_bound_on_lan(self):
        tb = lan_testbed()
        data = 2 << 30
        t = tb.upload_time(data, [0.0] * 4, k=3)
        speed = data / 1e6 / t
        assert speed == pytest.approx(tb.model.chunk_encode_mbps, rel=0.05)

    def test_duplicate_faster_than_unique_everywhere(self):
        data = 1 << 30
        for tb in (lan_testbed(), cloud_testbed()):
            t_uniq = tb.upload_time(data, [data / 3] * 4, k=3)
            t_dup = tb.upload_time(data, [0.0] * 4, k=3)
            assert t_dup < t_uniq

    def test_cloud_dup_gap_larger_than_lan(self):
        """Figure 7a: the dup/uniq ratio is bigger on the cloud testbed."""
        data = 1 << 30

        def ratio(tb):
            t_uniq = tb.upload_time(data, [data / 3] * 4, k=3)
            t_dup = tb.upload_time(data, [0.0] * 4, k=3)
            return t_uniq / t_dup

        assert ratio(cloud_testbed()) > ratio(lan_testbed())

    def test_download_under_link_speed(self):
        tb = lan_testbed()
        data = 2 << 30
        t = tb.download_time(data, {1: data / 3, 2: data / 3, 3: data / 3})
        speed = data / 1e6 / t
        assert speed < 110.0
        assert speed > 90.0
