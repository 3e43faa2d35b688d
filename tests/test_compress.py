"""Recipe codec: stored-or-zlib method byte, bounded typed decompression."""

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress.codec import (
    METHOD_STORED,
    METHOD_ZLIB,
    compress,
    compress_recipe,
    decompress,
    decompress_recipe,
)
from repro.crypto.drbg import DRBG
from repro.errors import ParameterError, ProtocolError


class TestComposedCodec:
    @settings(max_examples=30)
    @given(st.binary(min_size=0, max_size=1500))
    def test_roundtrip(self, data):
        blob = compress(data)
        assert decompress(blob) == data
        assert decompress(blob, expected_size=len(data)) == data

    def test_picks_the_smaller_method(self):
        repetitive = b"recipe entry " * 100
        assert compress(repetitive)[0] == METHOD_ZLIB
        assert len(compress(repetitive)) < len(repetitive) / 3
        assert compress(DRBG("rand").random_bytes(2000))[0] == METHOD_STORED
        assert compress(b"") == bytes([METHOD_STORED])

    def test_never_expands_beyond_header(self):
        data = DRBG("rand").random_bytes(2000)
        assert len(compress(data)) <= len(data) + 1

    def test_unknown_method_raises(self):
        with pytest.raises(ParameterError):
            decompress(b"\x63payload")
        with pytest.raises(ParameterError):
            decompress(b"")

    @pytest.mark.parametrize("method", [1, 2])
    def test_retired_method_bytes_rejected(self, method):
        """Bytes 1/2 named the LZSS coders: an old blob fails typed."""
        with pytest.raises(ParameterError):
            decompress(bytes([method]) + b"old lzss body")

    def test_corrupt_and_truncated_zlib_bodies_raise(self):
        blob = compress(b"recipe entry " * 100)
        with pytest.raises(ParameterError):
            decompress(blob[:-3])
        with pytest.raises(ParameterError):
            decompress(blob[:-3], expected_size=1300)
        with pytest.raises(ParameterError):
            decompress(bytes([METHOD_ZLIB]) + b"not a zlib stream")
        for expected_size in (None, 1300):
            with pytest.raises(ParameterError, match="trailing"):
                decompress(blob + b"x", expected_size=expected_size)

    def test_expected_size_validation(self):
        for data in (b"recipe entry " * 100, DRBG("rand").random_bytes(64)):
            blob = compress(data)
            for wrong in (0, len(data) - 1, len(data) + 1):
                with pytest.raises(ParameterError):
                    decompress(blob, expected_size=wrong)

    def test_bomb_is_refused_before_it_is_allocated(self):
        """DEFLATE tops out near 1000:1, so the bomb is a 64 KiB blob that
        inflates to 64 MiB (a wrong decoder then fails this test instead
        of exhausting the runner).  Read as a one-entry recipe it is
        refused on length after at most 37 bytes of output."""
        import tracemalloc

        deflater = zlib.compressobj(9)
        body = deflater.compress(bytes(64 << 20)) + deflater.flush()
        blob = bytes([METHOD_ZLIB]) + body
        assert len(blob) < 70 * 1024
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError):
                decompress(blob, expected_size=36)
            with pytest.raises(ParameterError):
                decompress_recipe(b"RCPZ" + blob, expected_size=36)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestRecipeCompression:
    def _recipe_blob(self, unique_fps: int = 30, entries: int = 300) -> bytes:
        from repro.server.messages import RecipeEntry

        rng = DRBG("recipes")
        fps = [rng.random_bytes(32) for _ in range(unique_fps)]
        return b"".join(
            RecipeEntry(fps[i % unique_fps], 8192).pack() for i in range(entries)
        )

    def test_roundtrip(self):
        blob = self._recipe_blob()
        assert decompress_recipe(compress_recipe(blob)) == blob

    def test_ratio_on_redundant_recipes(self):
        """Deduplicated backups repeat fingerprints across recipes; the
        paper cites recipe compression [41] as a real saving."""
        blob = self._recipe_blob()
        compressed = compress_recipe(blob)
        assert len(compressed) < len(blob) * 0.4

    def test_legacy_passthrough(self):
        """Uncompressed recipe blobs read back unchanged."""
        blob = self._recipe_blob(entries=3)
        assert decompress_recipe(blob) == blob

    def test_server_integration(self):
        """Servers with recipe compression store smaller recipe containers
        and still restore correctly."""
        from repro.cloud.network import Link
        from repro.cloud.provider import CloudProvider
        from repro.crypto.hashing import fingerprint
        from repro.server.messages import FileManifest, ShareMeta, ShareUpload
        from repro.server.server import CDStoreServer

        def run(compression: bool) -> tuple[int, list]:
            cloud = CloudProvider("c", Link(10), Link(10))
            server = CDStoreServer(0, cloud, recipe_compression=compression)
            data = b"share-payload" * 50
            upload = ShareUpload(
                meta=ShareMeta(fingerprint(data, "client"), len(data), 0, len(data)),
                data=data,
            )
            server.upload_shares("alice", [upload])
            # Many references to the same share: a compressible recipe.
            metas = [
                ShareMeta(upload.meta.fingerprint, len(data), i, len(data))
                for i in range(200)
            ]
            server.finalize_file(
                "alice", FileManifest(b"k", b"p", 200 * len(data), 200), metas
            )
            server.flush()
            recipe = server.get_recipe("alice", b"k")
            return cloud.stored_bytes, recipe

        size_on, recipe_on = run(True)
        size_off, recipe_off = run(False)
        assert size_on < size_off
        assert [e.fingerprint for e in recipe_on] == [e.fingerprint for e in recipe_off]

    def test_server_rejects_recipe_of_unexpected_size(self):
        """The file entry says how many entries the recipe has; a stored
        recipe that decodes to any other length fails typed, whether it
        is compressed or raw."""
        from repro.cloud.network import Link
        from repro.cloud.provider import CloudProvider
        from repro.crypto.hashing import fingerprint
        from repro.server.index import FileEntry
        from repro.server.messages import FileManifest, ShareMeta, ShareUpload
        from repro.server.server import CDStoreServer

        for compression in (True, False):
            server = CDStoreServer(
                0, CloudProvider("c", Link(10), Link(10)),
                recipe_compression=compression,
            )
            data = b"share-payload" * 50
            meta = ShareMeta(fingerprint(data, "client"), len(data), 0, len(data))
            server.upload_shares("alice", [ShareUpload(meta=meta, data=data)])
            metas = [
                ShareMeta(meta.fingerprint, len(data), i, len(data)) for i in range(50)
            ]
            server.finalize_file(
                "alice", FileManifest(b"k", b"p", 50 * len(data), 50), metas
            )
            assert len(server.get_recipe("alice", b"k")) == 50
            key = server._file_key("alice", b"k")
            entry = FileEntry.unpack(server.index.get(key))
            entry.secret_count = 49
            server.index.put(key, entry.pack())
            with pytest.raises(ProtocolError):
                server.get_recipe("alice", b"k")

