"""Re-sending shares a cloud lost, and concurrent uploads on one client.

The client keeps no cache of share fingerprints: every secret it sends is
encoded and fingerprinted.  Convergent dispersal makes that encoding
deterministic, so a cloud that lost its shares is sent exactly the shares
it first received, and two uploads on one client see the same shares
whichever finishes first.
"""

from __future__ import annotations

import threading

import pytest

from repro.crypto.drbg import DRBG
from repro.system.cdstore import CDStoreSystem

SCHEDULES = {"inline": (1, 1), "pipelined": (3, 2)}


def data_of(size: int, seed: str) -> bytes:
    return DRBG(seed).random_bytes(size)


def make_system(schedule: str = "inline") -> CDStoreSystem:
    threads, depth = SCHEDULES[schedule]
    return CDStoreSystem(n=4, k=3, salt=b"org", threads=threads, pipeline_depth=depth)


def record_uploads(system: CDStoreSystem) -> list[list]:
    """Log the shares each server is sent, per cloud, in order."""
    log: list[list] = [[] for _ in system.servers]
    for idx, server in enumerate(system.servers):
        upload = server.upload_shares

        def logged_upload(user_id, uploads, idx=idx, upload=upload):
            log[idx].extend((u.meta, u.data) for u in uploads)
            return upload(user_id, uploads)

        server.upload_shares = logged_upload
    return log


DATA = data_of(300_000, "v0")


class TestCacheStates:
    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    def test_wiped_cloud_gets_its_shares_re_encoded(self, schedule):
        system = make_system(schedule)
        client = system.client("alice")
        first = record_uploads(system)
        client.upload("/f", DATA)
        assert all(first)
        system.wipe_cloud(2)  # a fresh server stands in for cloud 2
        log = record_uploads(system)
        receipt = client.upload("/f", DATA)
        # Only the wiped cloud lacked the shares, so only it is sent any,
        # and they are the very shares it was sent the first time.
        assert [b > 0 for b in receipt.wire_bytes_per_cloud] == [False, False, True, False]
        assert [bool(sent) for sent in log] == [False, False, True, False]
        assert log[2] == first[2]
        assert client.download("/f") == DATA
        # Cloud 2 with any two others restores the same bytes.
        system.fail_cloud(0)
        assert client.download("/f") == DATA
        system.close()


class TestConcurrentUploads:
    def test_two_uploads_share_one_client_cache(self):
        """Two uploads at once on one client, then the same two again: the
        second round finds every share stored and sends none."""
        system = CDStoreSystem(n=4, k=3, salt=b"org", threads=2)
        client = system.client("alice")
        files = {f"/f{i}": data_of(200_000, f"concurrent-{i}") for i in range(2)}
        errors: list[BaseException] = []
        receipts: dict = {}

        def back_up_all() -> None:
            barrier = threading.Barrier(len(files))

            def one(path: str, data: bytes) -> None:
                try:
                    barrier.wait()
                    receipts[path] = client.upload(path, data)
                except BaseException as exc:  # surfaced below
                    errors.append(exc)

            workers = [
                threading.Thread(target=one, args=item) for item in files.items()
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()

        back_up_all()
        assert not errors
        assert all(sum(r.wire_bytes_per_cloud) > 0 for r in receipts.values())
        back_up_all()
        assert not errors
        for receipt in receipts.values():
            assert receipt.wire_bytes_per_cloud == [0] * system.n
        for path, data in files.items():
            assert client.download(path) == data
        system.close()
