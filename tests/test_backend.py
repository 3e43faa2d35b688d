"""Storage backends: memory and local-directory object stores."""

import pytest

from repro.errors import NotFoundError, StorageError
from repro.storage.backend import LocalDirBackend, MemoryBackend


@pytest.fixture(params=["memory", "localdir"])
def backend(request, tmp_path):
    if request.param == "memory":
        return MemoryBackend()
    return LocalDirBackend(tmp_path / "objects")


class TestBackendContract:
    def test_put_get(self, backend):
        backend.put_object("key1", b"hello")
        assert backend.get_object("key1") == b"hello"

    def test_overwrite(self, backend):
        backend.put_object("k", b"one")
        backend.put_object("k", b"two")
        assert backend.get_object("k") == b"two"

    def test_get_missing_raises(self, backend):
        with pytest.raises(NotFoundError):
            backend.get_object("nope")

    def test_delete(self, backend):
        backend.put_object("k", b"v")
        backend.delete_object("k")
        assert not backend.exists("k")
        with pytest.raises(NotFoundError):
            backend.delete_object("k")

    def test_exists(self, backend):
        assert not backend.exists("k")
        backend.put_object("k", b"v")
        assert backend.exists("k")

    def test_list_keys_sorted_with_prefix(self, backend):
        for key in ("b-2", "a-1", "b-1"):
            backend.put_object(key, b"x")
        assert backend.list_keys() == ["a-1", "b-1", "b-2"]
        assert backend.list_keys("b-") == ["b-1", "b-2"]

    def test_object_size_and_stored_bytes(self, backend):
        backend.put_object("a", b"12345")
        backend.put_object("b", b"123")
        assert backend.object_size("a") == 5
        assert backend.stored_bytes == 8
        with pytest.raises(NotFoundError):
            backend.object_size("missing")

    def test_metering(self, backend):
        backend.put_object("a", b"12345")
        backend.get_object("a")
        assert backend.bytes_written == 5
        assert backend.bytes_read == 5
        assert backend.put_ops == 1
        assert backend.get_ops == 1

    def test_empty_object(self, backend):
        backend.put_object("empty", b"")
        assert backend.get_object("empty") == b""


class TestMemoryBackendExtras:
    def test_corrupt_flips_bytes(self):
        backend = MemoryBackend()
        backend.put_object("k", bytes(100))
        backend.corrupt("k", offset=10, flips=3)
        data = backend.get_object("k")
        assert data[10] == 0xFF and data[11] == 0xFF and data[12] == 0xFF
        assert data[0] == 0

    def test_corrupt_empty_raises(self):
        backend = MemoryBackend()
        backend.put_object("k", b"")
        with pytest.raises(StorageError):
            backend.corrupt("k")


class TestLocalDirExtras:
    def test_invalid_key_raises(self, tmp_path):
        backend = LocalDirBackend(tmp_path)
        with pytest.raises(StorageError):
            backend.put_object("", b"x")
        with pytest.raises(StorageError):
            backend.put_object(".hidden", b"x")

    def test_slash_keys_sanitised(self, tmp_path):
        backend = LocalDirBackend(tmp_path)
        backend.put_object("a/b/c", b"x")
        assert backend.get_object("a/b/c") == b"x"
        assert backend.list_keys("a/b") == ["a_b_c"]

    def test_persistence_across_instances(self, tmp_path):
        LocalDirBackend(tmp_path).put_object("k", b"v")
        assert LocalDirBackend(tmp_path).get_object("k") == b"v"

    def test_delete_between_check_and_read_stays_typed(self, tmp_path, monkeypatch):
        """A GC ``delete_object`` racing a read must surface as the typed
        ``NotFoundError`` — never a raw ``FileNotFoundError`` from an
        open() that followed a stale existence check."""

        class CheckedBeforeTheDelete(type(tmp_path)):
            """A path whose existence check ran just before the delete
            landed.  (Scoped to this backend's own paths: nothing global
            is patched.)"""

            def exists(self):
                return True

        backend = LocalDirBackend(tmp_path)
        backend.put_object("container-1", b"0123456789")
        assert backend.get_range("container-1", 2, 4) == b"2345"
        backend.delete_object("container-1")
        monkeypatch.setattr(
            backend, "_path", lambda key: CheckedBeforeTheDelete(tmp_path / key)
        )
        for read in (
            lambda: backend.get_range("container-1", 2, 4),
            lambda: backend.get_object("container-1"),
            lambda: backend.object_size("container-1"),
            lambda: backend.delete_object("container-1"),
        ):
            with pytest.raises(NotFoundError):
                read()

    def test_ranged_read_past_the_end_is_a_storage_error(self, tmp_path):
        backend = LocalDirBackend(tmp_path)
        backend.put_object("k", b"0123456789")
        with pytest.raises(StorageError):
            backend.get_range("k", 8, 4)
