"""Chunkers: fixed-size, Rabin and gear content-defined, plus the registry."""

import pickle
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chunking import (
    DEFAULT_CHUNKER,
    GEAR_WINDOW,
    ChunkerSpec,
    chunker_names,
    create_chunker,
)
from repro.chunking.fixed import FixedChunker
from repro.chunking.gear import GearChunker
from repro.chunking.rabin import RabinChunker
from repro.crypto.drbg import DRBG
from repro.errors import ParameterError


class TestFixedChunker:
    def test_reconstruction(self):
        data = DRBG("fixed").random_bytes(10000)
        chunks = list(FixedChunker(4096).chunk_bytes(data))
        assert b"".join(c.data for c in chunks) == data
        assert [c.size for c in chunks] == [4096, 4096, 1808]

    def test_offsets_and_seqs(self):
        chunks = list(FixedChunker(100).chunk_bytes(b"z" * 250))
        assert [(c.offset, c.seq) for c in chunks] == [(0, 0), (100, 1), (200, 2)]

    def test_empty_input(self):
        assert list(FixedChunker(100).chunk_bytes(b"")) == []

    def test_bad_size(self):
        with pytest.raises(ParameterError):
            FixedChunker(0)

    def test_stream_equivalence(self):
        data = DRBG("stream").random_bytes(5000)
        chunker = FixedChunker(512)
        direct = [c.data for c in chunker.chunk_bytes(data)]
        streamed = [c.data for c in chunker.chunk_stream([data[:1000], data[1000:]])]
        assert direct == streamed


class TestRabinParameters:
    def test_avg_must_be_power_of_two(self):
        with pytest.raises(ParameterError):
            RabinChunker(avg_size=1000)

    def test_ordering_constraints(self):
        with pytest.raises(ParameterError):
            RabinChunker(avg_size=1024, min_size=2048, max_size=4096)
        with pytest.raises(ParameterError):
            RabinChunker(avg_size=1024, min_size=256, max_size=512)

    def test_window_constraints(self):
        with pytest.raises(ParameterError):
            RabinChunker(window=1)
        with pytest.raises(ParameterError):
            RabinChunker(avg_size=64, min_size=16, max_size=128, window=48)


class TestRabinFingerprints:
    @pytest.mark.slow
    @settings(max_examples=10, deadline=None)
    @given(st.binary(min_size=0, max_size=400))
    def test_vectorised_equals_rolling(self, data):
        chunker = RabinChunker(avg_size=256, min_size=64, max_size=1024, window=48)
        assert np.array_equal(
            chunker.window_fingerprints(data), chunker.rolling_fingerprints(data)
        )

    def test_short_input_has_no_fingerprints(self):
        chunker = RabinChunker()
        assert chunker.window_fingerprints(b"short").size == 0


class TestRabinChunking:
    @pytest.fixture
    def chunker(self):
        return RabinChunker(avg_size=1024, min_size=256, max_size=4096, window=48)

    def test_reconstruction(self, chunker):
        data = DRBG("rabin").random_bytes(50000)
        chunks = list(chunker.chunk_bytes(data))
        assert b"".join(c.data for c in chunks) == data

    def test_size_bounds(self, chunker):
        data = DRBG("bounds").random_bytes(100000)
        chunks = list(chunker.chunk_bytes(data))
        sizes = [c.size for c in chunks]
        assert max(sizes) <= chunker.max_size
        assert all(s >= chunker.min_size for s in sizes[:-1])

    def test_average_in_expected_range(self, chunker):
        data = DRBG("avg").random_bytes(300000)
        sizes = [c.size for c in chunker.chunk_bytes(data)]
        avg = sum(sizes) / len(sizes)
        # Content-defined chunking with min/max clamps lands near the target.
        assert chunker.avg_size * 0.5 < avg < chunker.avg_size * 2.5

    def test_determinism(self, chunker):
        data = DRBG("det").random_bytes(30000)
        a = [c.data for c in chunker.chunk_bytes(data)]
        b = [c.data for c in chunker.chunk_bytes(data)]
        assert a == b

    def test_shift_resilience(self, chunker):
        """Prepending bytes must leave most chunk boundaries unchanged —
        the property fixed-size chunking lacks (§3.3)."""
        data = DRBG("shift").random_bytes(60000)
        original = {c.data for c in chunker.chunk_bytes(data)}
        shifted = list(chunker.chunk_bytes(DRBG("prefix").random_bytes(137) + data))
        shared = sum(1 for c in shifted if c.data in original)
        assert shared / len(shifted) > 0.6

    def test_fixed_chunking_is_not_shift_resilient(self):
        """Contrast case motivating variable-size chunking."""
        data = DRBG("contrast").random_bytes(60000)
        fixed = FixedChunker(1024)
        original = {c.data for c in fixed.chunk_bytes(data)}
        shifted = list(fixed.chunk_bytes(b"x" * 137 + data))
        shared = sum(1 for c in shifted if c.data in original)
        assert shared / len(shifted) < 0.1

    def test_empty_input(self, chunker):
        assert list(chunker.chunk_bytes(b"")) == []

    def test_tiny_input_single_chunk(self, chunker):
        chunks = list(chunker.chunk_bytes(b"tiny"))
        assert len(chunks) == 1
        assert chunks[0].data == b"tiny"

    def test_paper_default_configuration(self):
        chunker = RabinChunker()
        assert (chunker.avg_size, chunker.min_size, chunker.max_size) == (
            8192,
            2048,
            16384,
        )


# ---------------------------------------------------------------------------
# gear (FastCDC-style)
# ---------------------------------------------------------------------------

#: Small configuration that exercises all three mask regions on test-sized
#: inputs (min covers the 16-byte gear window).
_SMALL_GEAR = dict(avg_size=256, min_size=64, max_size=1024)


class TestGearParameters:
    def test_avg_must_be_power_of_two(self):
        with pytest.raises(ParameterError):
            GearChunker(avg_size=1000)

    def test_ordering_constraints(self):
        with pytest.raises(ParameterError):
            GearChunker(avg_size=1024, min_size=2048, max_size=4096)
        with pytest.raises(ParameterError):
            GearChunker(avg_size=1024, min_size=256, max_size=512)

    def test_min_must_cover_window(self):
        with pytest.raises(ParameterError):
            GearChunker(avg_size=64, min_size=8, max_size=128)

    def test_mask_width_limits(self):
        with pytest.raises(ParameterError):
            GearChunker(avg_size=32768, min_size=2048, max_size=65536)  # 15+2 bits
        with pytest.raises(ParameterError):
            GearChunker(avg_size=32, min_size=16, max_size=64, norm=5)  # 5-5 bits
        with pytest.raises(ParameterError):
            GearChunker(norm=-1)

    def test_paper_size_defaults(self):
        chunker = GearChunker()
        assert (chunker.avg_size, chunker.min_size, chunker.max_size) == (
            8192,
            2048,
            16384,
        )


class TestGearHashes:
    @pytest.mark.slow
    @settings(max_examples=25, deadline=None)
    @given(st.binary(min_size=0, max_size=600))
    def test_dense_kernel_equals_rolling_reference(self, data):
        chunker = GearChunker(**_SMALL_GEAR)
        dense = chunker.window_hashes(data)
        rolling = chunker.rolling_hashes(data)
        if len(data) < GEAR_WINDOW:
            assert dense.size == 0
            return
        low16 = (rolling[GEAR_WINDOW - 1 :] & np.uint64(0xFFFF)).astype(np.uint16)
        assert np.array_equal(dense, low16)

    @pytest.mark.slow
    @settings(max_examples=25, deadline=None)
    @given(st.binary(min_size=0, max_size=2000))
    def test_two_level_scan_equals_dense_cuts(self, data):
        """The prescreen+confirm fast path must drop no candidate."""
        chunker = GearChunker(**_SMALL_GEAR)
        hard, easy = chunker._scan(data)
        dense = chunker.window_hashes(data)
        cuts = np.arange(dense.size, dtype=np.int64) + GEAR_WINDOW
        assert np.array_equal(hard, cuts[(dense & chunker.mask_hard) == 0])
        assert np.array_equal(easy, cuts[(dense & chunker.mask_easy) == 0])


class TestGearChunking:
    @pytest.fixture
    def chunker(self):
        return GearChunker(**_SMALL_GEAR)

    def test_reconstruction(self, chunker):
        data = DRBG("gear").random_bytes(50000)
        chunks = list(chunker.chunk_bytes(data))
        assert b"".join(c.data for c in chunks) == data
        assert [c.offset for c in chunks] == [
            sum(x.size for x in chunks[:i]) for i in range(len(chunks))
        ]
        assert [c.seq for c in chunks] == list(range(len(chunks)))

    def test_size_bounds(self, chunker):
        data = DRBG("gear-bounds").random_bytes(100000)
        sizes = [c.size for c in chunker.chunk_bytes(data)]
        assert max(sizes) <= chunker.max_size
        assert all(s >= chunker.min_size for s in sizes[:-1])

    def test_normalized_sizes_concentrate_near_average(self, chunker):
        data = DRBG("gear-avg").random_bytes(300000)
        sizes = [c.size for c in chunker.chunk_bytes(data)]
        avg = sum(sizes) / len(sizes)
        assert chunker.avg_size * 0.5 < avg < chunker.avg_size * 2.5

    def test_determinism(self, chunker):
        data = DRBG("gear-det").random_bytes(30000)
        a = [c.data for c in chunker.chunk_bytes(data)]
        b = [c.data for c in chunker.chunk_bytes(data)]
        assert a == b

    def test_shift_resilience(self, chunker):
        data = DRBG("gear-shift").random_bytes(60000)
        original = {c.data for c in chunker.chunk_bytes(data)}
        shifted = list(chunker.chunk_bytes(DRBG("prefix").random_bytes(137) + data))
        shared = sum(1 for c in shifted if c.data in original)
        assert shared / len(shifted) > 0.6

    def test_empty_input(self, chunker):
        assert list(chunker.chunk_bytes(b"")) == []

    def test_tiny_input_single_chunk(self, chunker):
        chunks = list(chunker.chunk_bytes(b"tiny"))
        assert len(chunks) == 1
        assert chunks[0].data == b"tiny"


class TestGearProperties:
    """Hypothesis suites for the FastCDC chunker's core contracts."""

    @pytest.mark.slow
    @settings(max_examples=30, deadline=None)
    @given(st.binary(min_size=1, max_size=8000))
    def test_size_bounds_respected(self, data):
        chunker = GearChunker(**_SMALL_GEAR)
        chunks = list(chunker.chunk_bytes(data))
        assert b"".join(c.data for c in chunks) == data
        sizes = [c.size for c in chunks]
        assert all(s <= chunker.max_size for s in sizes)
        # Every chunk except the last respects the minimum.
        assert all(s >= chunker.min_size for s in sizes[:-1])

    @pytest.mark.slow
    @settings(max_examples=30, deadline=None)
    @given(
        st.binary(min_size=0, max_size=12000),
        st.lists(st.integers(min_value=0, max_value=12000), max_size=8),
    )
    def test_chunk_stream_equals_chunk_bytes(self, data, raw_splits):
        """Streaming must be split-invariant: any slicing of the input into
        blocks yields the byte-identical chunk sequence."""
        chunker = GearChunker(**_SMALL_GEAR)
        bounds = sorted({min(s, len(data)) for s in raw_splits})
        edges = [0, *bounds, len(data)]
        blocks = [data[a:b] for a, b in zip(edges, edges[1:])]
        direct = [(c.data, c.offset, c.seq) for c in chunker.chunk_bytes(data)]
        streamed = [(c.data, c.offset, c.seq) for c in chunker.chunk_stream(blocks)]
        assert streamed == direct

    @pytest.mark.slow
    @settings(max_examples=15, deadline=None)
    @given(st.binary(min_size=1, max_size=300))
    def test_boundary_stability_under_prefix_insertion(self, prefix):
        """Prepending arbitrary bytes must leave most boundaries of a fixed
        payload unchanged — the content-defined property itself."""
        chunker = GearChunker(**_SMALL_GEAR)
        payload = DRBG("gear-stability").random_bytes(40000)
        original = {c.data for c in chunker.chunk_bytes(payload)}
        shifted = list(chunker.chunk_bytes(prefix + payload))
        shared = sum(1 for c in shifted if c.data in original)
        assert shared / len(shifted) > 0.5


def _chunk_via_spec(spec: ChunkerSpec, data: bytes) -> list[tuple[bytes, int, int]]:
    """Worker-side half of the registry round-trip test (top level, so
    picklable by the process pool)."""
    chunker = create_chunker(spec)
    return [(c.data, c.offset, c.seq) for c in chunker.chunk_bytes(data)]


class TestChunkerRegistry:
    def test_names(self):
        assert {"fixed", "rabin", "gear"} <= set(chunker_names())

    def test_default_is_rabin(self):
        assert isinstance(create_chunker(None), RabinChunker)

    def test_default_has_one_source_of_truth(self, tmp_path):
        """``create_chunker(None)``, ``ReproConfig()`` and ``repro init``
        without ``--chunker`` all follow ``DEFAULT_CHUNKER``, at the
        paper's 2/8/16 KiB sizes."""
        from repro.cli import main
        from repro.config import ReproConfig

        default = create_chunker(None)
        assert type(default) is type(create_chunker(DEFAULT_CHUNKER))
        assert (default.min_size, default.avg_size, default.max_size) == (
            2048, 8192, 16384,
        )
        assert ReproConfig().chunker == DEFAULT_CHUNKER
        assert main(["init", "--root", str(tmp_path / "root")]) == 0
        assert ReproConfig.from_file(tmp_path / "root").chunker == DEFAULT_CHUNKER

    def test_root_recorded_as_rabin_keeps_rabin_and_dedups(self, tmp_path, monkeypatch):
        """A root names its chunker in its config file: its clients keep
        cutting with rabin when ``DEFAULT_CHUNKER`` moves, so a re-backup
        deduplicates against what was written before."""
        import json

        from repro.chunking import registry
        from repro.config import CONFIG_FILE_NAME, ReproConfig
        from repro.system.cdstore import CDStoreSystem

        root = tmp_path / "root"
        root.mkdir()
        (root / CONFIG_FILE_NAME).write_text(
            json.dumps({"n": 4, "k": 3, "salt": "old", "chunker": "rabin"})
        )
        data = DRBG("pre-upgrade").random_bytes(200_000)
        with CDStoreSystem.from_config(ReproConfig.from_file(root), root=root) as old:
            writer = old.client("alice", chunker=RabinChunker())
            assert writer.upload("/v1", data).transferred_share_bytes > 0
            writer.flush()
        monkeypatch.setattr(registry, "DEFAULT_CHUNKER", "gear")
        assert isinstance(create_chunker(None), GearChunker)
        with CDStoreSystem.from_config(ReproConfig.from_file(root), root=root) as new:
            client = new.client("alice")
            assert isinstance(client.chunker, RabinChunker)
            assert client.upload("/v2", data).transferred_share_bytes == 0
            client.flush()
            assert client.download("/v2") == data

    def test_parse_and_create(self):
        chunker = create_chunker("gear:avg=512,min=64,max=2048,norm=1")
        assert isinstance(chunker, GearChunker)
        assert (chunker.avg_size, chunker.min_size, chunker.max_size) == (512, 64, 2048)
        assert chunker.norm == 1
        assert str(chunker.spec()) == "gear:avg=512,min=64,max=2048,norm=1"

    def test_live_instance_passes_through(self):
        chunker = FixedChunker(1234)
        assert create_chunker(chunker) is chunker
        assert chunker.spec() is None  # hand-built: no spec attached

    def test_unknown_name_rejected(self):
        with pytest.raises(ParameterError, match="unknown chunker"):
            create_chunker("bogus")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ParameterError, match="bad chunker parameter"):
            ChunkerSpec.parse("gear:windowsill=48")

    def test_non_integer_value_rejected(self):
        with pytest.raises(ParameterError, match="must be an integer"):
            ChunkerSpec.parse("gear:avg=big")

    def test_out_of_range_value_surfaces_at_create(self):
        spec = ChunkerSpec.parse("gear:avg=1000")
        with pytest.raises(ParameterError, match="power of two"):
            spec.create()

    def test_spec_pickles(self):
        spec = ChunkerSpec.parse("rabin:avg=4096")
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.create().avg_size == 4096

    @pytest.mark.slow
    @settings(max_examples=5, deadline=None)
    @given(
        st.sampled_from(
            [
                "gear",
                "gear:avg=256,min=64,max=1024",
                "gear:avg=512,min=128,max=2048,norm=1",
                "rabin:avg=256,min=64,max=1024",
                "fixed:size=512",
            ]
        ),
        st.binary(min_size=0, max_size=4000),
    )
    def test_round_trip_through_process_worker(self, text, data):
        """A spec built here must produce the identical chunking when
        reconstructed inside a worker process — the contract the CLI and
        the encode pool rely on."""
        spec = ChunkerSpec.parse(text)
        local = _chunk_via_spec(spec, data)
        remote = _WORKER_POOL.submit(_chunk_via_spec, spec, data).result()
        assert remote == local


#: One worker, forked lazily at module import and shared by every example
#: (forking per hypothesis example would dominate the suite's runtime).
_WORKER_POOL = ProcessPoolExecutor(max_workers=1)
