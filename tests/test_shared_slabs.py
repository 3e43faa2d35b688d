"""Shared-memory encode-slab transport and the slab release hook."""

import threading
from concurrent.futures import Future

import pytest

from repro.client.workers import (
    SharedSlabTransport,
    SlabbedShareSets,
    _attach_slab_segment,
    shared_slabs_available,
)
from repro.crypto.drbg import DRBG
from repro.system.cdstore import CDStoreSystem

pytestmark = pytest.mark.skipif(
    not shared_slabs_available(), reason="multiprocessing.shared_memory unavailable"
)


class TestSharedSlabTransport:
    def test_publish_round_trip(self):
        transport = SharedSlabTransport()
        secrets = [b"alpha", b"", b"gamma" * 100]
        try:
            name, spans = transport.publish(0, secrets)
            assert [length for _, length in spans] == [5, 0, 500]
            segment = _attach_slab_segment(name)
            try:
                view = segment.buf
                read = [bytes(view[off : off + length]) for off, length in spans]
            finally:
                segment.close()
            assert read == secrets
        finally:
            transport.close()

    def test_release_unlinks_segment(self):
        transport = SharedSlabTransport()
        name, _ = transport.publish(3, [b"payload"])
        assert len(transport) == 1
        transport.release(3)
        assert len(transport) == 0
        with pytest.raises(FileNotFoundError):
            _attach_slab_segment(name)
        transport.release(3)  # idempotent

    def test_close_sweeps_everything(self):
        transport = SharedSlabTransport()
        names = [transport.publish(i, [bytes([i])])[0] for i in range(3)]
        transport.release(1)
        transport.close()
        assert len(transport) == 0
        for name in names:
            with pytest.raises(FileNotFoundError):
                _attach_slab_segment(name)

    def test_empty_slab_publishable(self):
        # Zero-byte slabs still need a (minimum-size) segment.
        transport = SharedSlabTransport()
        try:
            name, spans = transport.publish(0, [b""])
            assert spans == [(0, 0)]
            segment = _attach_slab_segment(name)
            segment.close()
        finally:
            transport.close()


class TestSlabReleaseHook:
    @staticmethod
    def _view(spans, *, depth, consumers, released):
        def submit(start: int, end: int) -> Future:
            future: Future = Future()
            future.set_result([f"s{start}"])
            return future

        return SlabbedShareSets(
            spans=spans,
            submit=submit,
            depth=depth,
            consumers=consumers,
            release=released.append,
        )

    def test_hook_fires_once_per_slab_in_order(self):
        released: list[int] = []
        spans = [(0, 1), (1, 2), (2, 3)]
        view = self._view(spans, depth=2, consumers=1, released=released)
        with view.stream() as stream:
            list(stream)
        assert released == [0, 1, 2]

    def test_hook_waits_for_every_consumer(self):
        released: list[int] = []
        spans = [(0, 1), (1, 2)]
        view = self._view(spans, depth=2, consumers=2, released=released)
        with view.stream() as stream:
            list(stream)
        assert released == []  # one consumer is not enough
        with view.stream() as stream:
            list(stream)
        assert released == [0, 1]

    def test_abandoned_consumer_still_releases(self):
        released: list[int] = []
        spans = [(0, 1), (1, 2), (2, 3)]
        view = self._view(spans, depth=1, consumers=2, released=released)

        with pytest.raises(RuntimeError):
            with view.stream() as stream:
                for _item in stream:
                    raise RuntimeError("consumer died")

        done = threading.Event()

        def survivor():
            with view.stream() as stream:
                list(stream)
            done.set()

        worker = threading.Thread(target=survivor)
        worker.start()
        worker.join(timeout=5.0)
        assert done.is_set()
        assert released == [0, 1, 2]


@pytest.mark.slow
class TestSharedSlabsEndToEnd:
    def test_process_workers_stream_through_shared_memory(self):
        """Backup + restore with process encoders and streaming slabs: the
        payload rides shared memory, and every segment is gone afterwards."""
        system = CDStoreSystem(
            n=4,
            k=3,
            salt=b"shm-org",
            workers="process",
            threads=2,
            pipeline_depth=2,
            chunker="gear:avg=4096,min=1024,max=8192",
        )
        data = DRBG("shm-e2e").random_bytes(1 << 20)
        try:
            client = system.client("alice")
            receipt = client.upload("/blob.bin", data)
            assert receipt.secret_count > 4  # multiple slabs exercised
            assert client.download("/blob.bin") == data
            # Intra-user dedup across a re-upload (shared-memory path too).
            again = client.upload("/blob-copy.bin", data)
            assert again.intra_user_saving > 0.99
        finally:
            system.close()
