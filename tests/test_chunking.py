"""Chunkers: fixed-size, Rabin and gear content-defined, plus the registry."""

import hashlib
import os
import pickle
import select
import signal
import sys
import threading
import time
import tracemalloc
from unittest import mock

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
from repro.chunking import scan
from repro.chunking.fixed import FixedChunker
from repro.chunking.gear import GearChunker
from repro.chunking.rabin import RabinChunker, _mod_poly
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
    @settings(max_examples=10)
    @given(st.binary(min_size=0, max_size=400))
    def test_vectorised_equals_rolling(self, data):
        chunker = RabinChunker(avg_size=256, min_size=64, max_size=1024, window=48)
        assert np.array_equal(
            chunker.window_fingerprints(data), chunker.rolling_fingerprints(data)
        )

    def test_short_input_has_no_fingerprints(self):
        chunker = RabinChunker()
        assert chunker.window_fingerprints(b"short").size == 0

    @pytest.mark.parametrize("spec", ["rabin", "rabin:window=47", "rabin:window=512,min=2048"])
    def test_tables_built_by_recurrence_match_direct_reduction(self, spec):
        """``T[j][v] = v * x^(8*(w-1-j)) mod P``, whatever the window (wide
        ones used to cost seconds: one reduction step per shifted bit)."""
        chunker = create_chunker(spec)
        w = chunker.window
        assert chunker._tables.shape == (w, 256)
        for v, j in [(1, 0), (255, 0), (0x35, w // 2), (0x80, w - 9), (200, w - 1)]:
            assert int(chunker._tables[j][v]) == _mod_poly(v << (8 * (w - 1 - j)))


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
    @settings(max_examples=25)
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
    @settings(max_examples=25)
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
    @settings(max_examples=30)
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
    @settings(max_examples=30)
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
    @settings(max_examples=15)
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


# ---------------------------------------------------------------------------
# the shared scan kernel (repro.chunking.scan) under both CDC chunkers
# ---------------------------------------------------------------------------


def _scan_cuts(chunker, data: bytes) -> tuple[np.ndarray, ...]:
    """``chunker._scan(data)`` as a tuple, loosest mask last (Rabin has one)."""
    cuts = chunker._scan(data)
    return cuts if isinstance(cuts, tuple) else (cuts,)


def _dense_cuts(chunker, data: bytes) -> tuple[np.ndarray, ...]:
    """What :func:`_scan_cuts` must return, from the dense rendering."""
    if isinstance(chunker, RabinChunker):
        fps = chunker.window_fingerprints(data)
        return (np.flatnonzero((fps & chunker._mask) == chunker._magic) + chunker.window,)
    dense = chunker.window_hashes(data)
    cuts = np.arange(dense.size, dtype=np.int64) + GEAR_WINDOW
    return cuts[(dense & chunker.mask_hard) == 0], cuts[(dense & chunker.mask_easy) == 0]


def _assert_scan_is_dense(chunker, data: bytes) -> None:
    for got, want in zip(_scan_cuts(chunker, data), _dense_cuts(chunker, data), strict=True):
        assert got.dtype == np.int64 and np.array_equal(got, want)


def _constant_byte(chunker, survivors_are_cuts: bool) -> int:
    """A byte whose constant run survives the prescreen at *every* position
    (the low hash byte matches) and then passes / fails the full mask."""
    run_length = 1024
    windows = run_length - chunker._kernel.window + 1
    for b in range(256):
        run = bytes([b]) * run_length
        survivors = sum(c.size for c, _ in chunker._kernel.candidates(run))
        cuts = _scan_cuts(chunker, run)[-1].size
        if survivors == windows and cuts == (windows if survivors_are_cuts else 0):
            return b
    raise AssertionError("no degenerate byte for this configuration")


#: ``(offset, size)`` lists of a 3 MiB DRBG payload, hashed — captured from
#: the pre-kernel implementations (full uint64 pair-table Rabin pass, gear's
#: own two-level scan at PR 18).  Cut points are a persistent format in
#: effect: a root only keeps deduplicating while these do not move.
_GOLDEN_CUTS = {
    "rabin": (350, "87de0b69637bbab7bf23aa187debe859958240e86bbe169fa0ba4fa96dbb640c"),
    "rabin:avg=4096,min=1024,max=16384,window=47": (
        619, "b6f3632c30802875813065ebdbc0be73902a17f318495b6e9e56f7ede6362aa2",
    ),
    "gear": (345, "3b918e3fc7961377fda26ac45c6f73c22d03df14f27aeba855e4051bea0a9443"),
    "gear:norm=0": (374, "1d9f509bfdd0e79da4fe9dc5d0912e02e0c92911ed9caef5ec8562c803c73ea5"),
}


#: Table sets of every shape the kernel packs: 8 lanes (Rabin, even and
#: odd windows), 4 (gear) and 1 (a 3-byte window).
_KERNEL_CHUNKERS = pytest.mark.parametrize(
    "chunker",
    [
        RabinChunker(),
        RabinChunker(avg_size=1024, min_size=64, max_size=4096, window=47),
        RabinChunker(avg_size=1 << 17, min_size=64, max_size=1 << 18, window=3),
        GearChunker(),
        GearChunker(**_SMALL_GEAR),
    ],
    ids=["rabin", "rabin-odd", "rabin-wide-mask", "gear", "gear-small"],
)


def _prescreen_mask(chunker) -> int:
    """The mask whose low byte the chunker's kernel prescreens on."""
    return chunker.avg_size - 1 if isinstance(chunker, RabinChunker) else int(chunker.mask_easy)


def _assert_survivors_are_dense(kernel, data: bytes, mask: int) -> None:
    """The prescreen keeps exactly the windows whose dense ``H`` matches in
    the masked low byte, and hands back their full ``H``."""
    buf = np.frombuffer(data, dtype=np.uint8)
    count = max(buf.size - kernel.window + 1, 0)
    dense = np.zeros(count, dtype=kernel.tables.dtype)
    for j, table in enumerate(kernel.tables):
        dense ^= table[buf[j : j + count]]
    yields = list(kernel.candidates(data))
    ends = np.concatenate([np.zeros(0, dtype=np.int64)] + [c for c, _ in yields])
    hashes = np.concatenate([np.zeros(0, dtype=dense.dtype)] + [h for _, h in yields])
    low = mask & 0xFF
    assert np.array_equal(ends, np.flatnonzero((dense & low) == kernel._want) + kernel.window)
    assert np.array_equal(hashes, dense[ends - kernel.window])


class TestScanKernel:
    @pytest.mark.parametrize("spec", sorted(_GOLDEN_CUTS))
    def test_cut_points_match_the_vectors_captured_before_the_kernel(self, spec):
        data = DRBG("chunking-golden").random_bytes(3 << 20)
        cuts = [(c.offset, c.size) for c in create_chunker(spec).chunk_bytes(data)]
        digest = hashlib.sha256(repr(cuts).encode()).hexdigest()
        assert (len(cuts), digest) == _GOLDEN_CUTS[spec]

    @pytest.mark.slow
    @settings(max_examples=40)
    @given(
        data=st.binary(min_size=0, max_size=3000),
        bits=st.integers(min_value=6, max_value=17),
        window=st.integers(min_value=2, max_value=64),
        block=st.integers(min_value=1, max_value=700),
        confirm=st.integers(min_value=1, max_value=8),
    )
    def test_rabin_kernel_equals_rolling_reference(self, data, bits, window, block, confirm):
        """Random legal parameters (odd and even windows, masks narrower and
        wider than the prescreen byte), segments small enough that windows
        straddle them, scanned on one, two and three threads: the kernel
        keeps exactly the positions whose rolling fingerprint matches in
        the low byte, hands back their full fingerprints in order, and so
        cuts where the reference cuts."""
        avg = 1 << bits
        chunker = RabinChunker(avg_size=avg, min_size=avg, max_size=avg, window=window)
        rolling = chunker.rolling_fingerprints(data)
        low = np.uint64((avg - 1) & 0xFF)
        for width in (1, 2, 3):
            with (
                mock.patch.object(scan, "BLOCK", block),
                mock.patch.object(scan, "_CONFIRM", confirm),
                mock.patch.object(scan, "_WIDTH", width),
            ):
                yields = list(chunker._kernel.candidates(data))
                cuts = chunker._scan(data)
            ends = np.concatenate([np.zeros(0, dtype=np.int64)] + [c for c, _ in yields])
            fps = np.concatenate([np.zeros(0, dtype=np.uint64)] + [f for _, f in yields])
            assert np.array_equal(
                ends, np.flatnonzero((rolling & low) == (chunker._magic & low)) + window
            )
            assert np.array_equal(fps, rolling[ends - window])
            assert np.array_equal(
                cuts, np.flatnonzero((rolling & chunker._mask) == chunker._magic) + window
            )

    @_KERNEL_CHUNKERS
    @mock.patch.object(scan, "_WIDTH", 2)
    def test_block_edges_and_degenerate_inputs_equal_dense(self, chunker):
        """Two segments in flight: inputs up to a block split in halves,
        longer ones at block edges, and windows straddle every edge."""
        w = chunker._kernel.window
        payload = DRBG("scan-edges").random_bytes(2 * scan.BLOCK + w + 1)
        lengths = {0, 1, w - 1, w, w + 1, len(payload)}
        for edge in (scan.BLOCK, scan.BLOCK + w, 2 * scan.BLOCK + w - 1):
            lengths |= {edge - 1, edge, edge + 1}
        for length in sorted(lengths):
            _assert_scan_is_dense(chunker, payload[:length])
        assert chunker._kernel.segments(scan.BLOCK) == 2
        assert chunker._kernel.segments(len(payload)) == 3
        _assert_scan_is_dense(chunker, bytes(scan.BLOCK + 2 * w))
        _assert_scan_is_dense(chunker, b"\x00\xffab" * (scan.BLOCK // 4 + w))

    @_KERNEL_CHUNKERS
    @pytest.mark.parametrize("width", [1, 2])
    def test_sub_block_edges_equal_dense(self, chunker, width):
        """Inputs ending just before, at, after and a window past the
        prescreen's sub-block edges: survivors and cuts are the dense ones
        (the last sub-block is short, an odd window's reads one byte past
        the input, and at width 2 segments split between edges)."""
        w = chunker._kernel.window
        payload = DRBG("scan-sub-blocks").random_bytes(4 * scan._SUB + 2 * w)
        lengths = sorted(
            {k * scan._SUB + w - 1 + d for k in (1, 2, 3, 4) for d in (-1, 0, 1, w)}
        )
        mask = _prescreen_mask(chunker)
        with mock.patch.object(scan, "_WIDTH", width):
            for length in lengths:
                _assert_survivors_are_dense(chunker._kernel, payload[:length], mask)
                _assert_scan_is_dense(chunker, payload[:length])

    @_KERNEL_CHUNKERS
    def test_lane_tables_hold_each_pair_in_its_value_lane(self, chunker):
        """Lane ``m`` of a group at offset ``o`` — value bits ``8m .. 8m+7``,
        whatever the byte order — is the masked pair term of window offsets
        ``o + 2m, o + 2m + 1``: each live pair in exactly one group."""
        kernel = chunker._kernel
        low = (kernel.tables & kernel.tables.dtype.type(_prescreen_mask(chunker) & 0xFF))
        low = np.vstack([low.astype(np.uint8), np.zeros((1, 256), dtype=np.uint8)])
        index = np.arange(1 << 16)
        lanes = kernel._lanes
        held = np.zeros((-(-kernel.window // 2), 1 << 16), dtype=np.uint8)
        for offset, table in kernel.lane_tables:
            word = table.dtype.type
            assert table.dtype == np.dtype(f"uint{8 * lanes}") and offset % 2 == 0
            for m in range(lanes):
                lane = ((table >> word(8 * m)) & word(0xFF)).astype(np.uint8)
                if offset + 2 * m < kernel.window:
                    held[offset // 2 + m] ^= lane
                else:
                    assert not lane.any()
        for s, pair in enumerate(held):
            first, second = low[2 * s], low[min(2 * s + 1, kernel.window)]
            assert np.array_equal(pair, first[index >> 8] ^ second[index & 0xFF])

    @pytest.mark.parametrize("lanes, live", [(1, (6, 8)), (2, (4, 8)), (4, (0, 8)), (8, (0, 16))])
    @mock.patch.object(scan, "_WIDTH", 2)
    def test_every_lane_width_equals_dense(self, lanes, live):
        """Random 16-offset tables, live only on ``live`` offsets, pack into
        one group of the fewest lanes that holds them; the prescreen then
        still keeps exactly the dense low-byte matches."""
        tables = np.random.default_rng(lanes).integers(0, 1 << 16, (16, 256), dtype=np.uint16)
        tables[: live[0]] = tables[live[1] :] = 0
        kernel = scan.PairScan(tables, 0x3F, 0x2A)
        assert kernel._lanes == lanes and len(kernel.lane_tables) == 1
        payload = DRBG("scan-lanes").random_bytes(3 * scan._SUB + 100)
        for length in (0, 15, 16, 17, scan._SUB + 15, len(payload)):
            _assert_survivors_are_dense(kernel, payload[:length], 0x3F)

    @pytest.mark.parametrize(
        "chunker, survivors_are_cuts",
        [
            (RabinChunker(avg_size=64, min_size=64, max_size=256), True),  # 6-bit mask
            (RabinChunker(avg_size=512, min_size=64, max_size=4096), False),
            (GearChunker(avg_size=64, min_size=32, max_size=256, norm=0), True),
            (GearChunker(), False),  # 11-bit easy mask
        ],
        ids=["rabin-cuts", "rabin-none", "gear-cuts", "gear-none"],
    )
    @mock.patch.object(scan, "_WIDTH", 2)
    def test_input_where_every_position_survives_the_prescreen(
        self, chunker, survivors_are_cuts
    ):
        """A constant run whose low hash byte matches everywhere: the confirm
        stage degenerates to dense, its temporaries must stay per-segment,
        one segment in flight per thread."""
        run = bytes([_constant_byte(chunker, survivors_are_cuts)]) * (1 << 20)
        tracemalloc.start()
        try:
            cuts = _scan_cuts(chunker, run)[-1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        _assert_scan_is_dense(chunker, run[: scan.BLOCK + 100])
        windows = len(run) - chunker._kernel.window + 1
        assert cuts.size == (windows if survivors_are_cuts else 0)
        if not survivors_are_cuts:
            # Nothing is returned, so the peak is kernel scratch per thread:
            # the index and a full block of survivors at 8 bytes a position,
            # the rows, one confirm batch — and a helper's survivors, held
            # until yielded.  Confirming the file at once needs > 400 MiB.
            assert peak < 48 * scan.BLOCK * scan._WIDTH

    @pytest.mark.parametrize("chunker", [RabinChunker(), GearChunker()], ids=["rabin", "gear"])
    def test_scan_memory_is_per_block_not_per_file(self, chunker):
        """No clock: what the cut scan allocates is bounded by the block
        per segment in flight, so 8 MiB of input peaks where 4 MiB does
        (the pre-kernel Rabin pass held > 60 MiB of file-sized temporaries
        at 4 MiB).  On one thread the peaks repeat exactly; beside a
        helper they move by up to one confirm batch with the interleaving,
        so there both sizes meet the same per-width bound."""
        data = np.random.default_rng(19).bytes(8 << 20)
        for width in (1, 2):
            peaks = []
            for size in (4 << 20, 8 << 20):
                view = data[:size]
                with mock.patch.object(scan, "_WIDTH", width):
                    tracemalloc.start()
                    try:
                        chunker._scan(view)
                        peaks.append(tracemalloc.get_traced_memory()[1])
                    finally:
                        tracemalloc.stop()
            assert max(peaks) < (4 << 20) * width
            if width == 1:
                # The returned cut arrays (8 bytes per ~avg_size of input)
                # are the only thing allowed to grow.
                assert peaks[1] - peaks[0] < 128 << 10


class TestScanThreads:
    """Segments handed to helper threads: a forked child, a failing segment
    and a consumer that stops early leave no helper behind."""

    @staticmethod
    def watched_segments(fail_at: int | None = None, first_round: frozenset = frozenset()):
        """A ``PairScan._segment`` stand-in recording which segments (by
        base) started and which are running; helpers' segments linger so a
        caller that did not wait for them would still see them run.  The
        caller's segment 0 waits (10 s at most) until every base in
        ``first_round`` has started, so no helper is still to start one
        when the caller moves on."""
        real, started, running = scan.PairScan._segment, set(), set()
        changed = threading.Condition()

        def segment(self, buf, base, rows):
            with changed:
                started.add(base)
                running.add(base)
                changed.notify_all()
                if base == 0:
                    changed.wait_for(lambda: first_round <= started, timeout=10)
            try:
                if base == fail_at:
                    raise ValueError(f"segment {base} failed")
                if base:
                    time.sleep(0.2)
                yield from real(self, buf, base, rows)
            finally:
                with changed:
                    running.discard(base)

        return mock.patch.object(scan.PairScan, "_segment", segment), started, running

    @mock.patch.object(scan, "_WIDTH", 3)
    def test_concurrent_scans_share_the_helpers(self):
        """More callers than CPUs, switching threads every 10 us, hand their
        segments to one pool: every caller still gets its own cuts."""
        chunker = RabinChunker()
        payloads = [DRBG(f"scan-share-{i}").random_bytes(600_000) for i in range(4)]
        with mock.patch.object(scan, "_WIDTH", 1):
            want = [chunker._scan(payload) for payload in payloads]
        got = [[] for _ in payloads]

        def caller(i):
            for _ in range(3):
                got[i].append(chunker._scan(payloads[i]))

        threads = [threading.Thread(target=caller, args=(i,)) for i in range(len(payloads))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for cuts, expected in zip(got, want, strict=True):
            assert len(cuts) == 3 and all(np.array_equal(c, expected) for c in cuts)

    @mock.patch.object(scan, "_WIDTH", 2)
    def test_a_child_forked_after_the_pool_exists_cuts_like_its_parent(self):
        chunker = RabinChunker()
        data = DRBG("scan-fork").random_bytes(1 << 20)
        assert chunker._kernel.segments(len(data)) == 4
        want = chunker._scan(data)
        assert scan._pool is not None
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child never returns
            try:
                os.write(write_end, chunker._scan(data).tobytes())
            finally:
                os._exit(0)
        os.close(write_end)
        # A child handing segments to the parent's helper (no thread of
        # its own) would wait forever: fail the test, do not hang it.
        pidfd = os.pidfd_open(pid)
        try:
            exited, _, _ = select.select([pidfd], [], [], 120)
        finally:
            os.close(pidfd)
        if not exited:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        with os.fdopen(read_end, "rb") as pipe:
            got = np.frombuffer(pipe.read(), dtype=np.int64)
        assert exited, "the forked child never finished its scan"
        assert want.size > 0 and np.array_equal(got, want)

    @mock.patch.object(scan, "_WIDTH", 3)
    def test_a_failing_segment_raises_in_the_caller_after_its_helpers_stop(self):
        data = DRBG("scan-error").random_bytes(1 << 20)
        first_round = frozenset({0, scan.BLOCK, 2 * scan.BLOCK})
        patch, started, running = self.watched_segments(scan.BLOCK, first_round)
        with patch, pytest.raises(ValueError, match=f"segment {scan.BLOCK} failed"):
            RabinChunker()._scan(data)
        assert running == set()
        # The first round (the caller's segment, two helpers') ran; the
        # segment after it was never submitted.
        assert started == {0, scan.BLOCK, 2 * scan.BLOCK}

    @mock.patch.object(scan, "_WIDTH", 2)
    def test_closing_the_scan_early_waits_for_the_segments_in_flight(self):
        data = DRBG("scan-close").random_bytes(1 << 20)
        patch, started, running = self.watched_segments()
        with patch:
            candidates = RabinChunker()._kernel.candidates(data)
            next(candidates)  # the caller's first batch; a helper has the next segment
            candidates.close()
            assert running == set()
        assert started == {0, scan.BLOCK}


def _chunk_via_spec(spec: ChunkerSpec, data: bytes) -> list[tuple[bytes, int, int]]:
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
    @settings(max_examples=5)
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
    def test_round_trip_through_spec_string(self, text, data):
        """A spec must produce the identical chunking when rebuilt from its
        rendered string — the ``cdstore.json`` round trip by which every
        later CLI command on a root chunks the way ``repro init`` chose."""
        spec = ChunkerSpec.parse(text)
        local = _chunk_via_spec(spec, data)
        remote = _chunk_via_spec(ChunkerSpec.parse(str(spec)), data)
        assert remote == local
