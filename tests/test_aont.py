"""All-or-nothing transforms: OAEP and Rivest package transforms."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aont import (
    CANARY_SIZE,
    oaep_aont_decode,
    oaep_aont_encode,
    rivest_aont_decode,
    rivest_aont_encode,
    rivest_package_size,
)
from repro.crypto.hashing import HASH_SIZE
from repro.errors import CryptoError, IntegrityError

KEY = bytes(range(32))


class TestOaepAont:
    @given(st.binary(min_size=0, max_size=1000), st.binary(min_size=32, max_size=32))
    def test_roundtrip(self, secret, key):
        package = oaep_aont_encode(secret, key)
        assert len(package) == len(secret) + HASH_SIZE
        got_secret, got_key = oaep_aont_decode(package)
        assert got_secret == secret
        assert got_key == key

    def test_deterministic(self):
        assert oaep_aont_encode(b"data", KEY) == oaep_aont_encode(b"data", KEY)

    def test_key_size_enforced(self):
        with pytest.raises(CryptoError):
            oaep_aont_encode(b"data", b"short")

    def test_package_too_short(self):
        with pytest.raises(CryptoError):
            oaep_aont_decode(b"tiny")

    def test_all_or_nothing_head_flip_changes_key(self):
        """Flipping any head byte scrambles the recovered key, hence the
        whole secret — the all-or-nothing property."""
        secret = bytes(range(100))
        package = bytearray(oaep_aont_encode(secret, KEY))
        package[10] ^= 0xFF
        got_secret, got_key = oaep_aont_decode(bytes(package))
        assert got_key != KEY
        # Everything (not just byte 10) is scrambled relative to the secret.
        differing = sum(a != b for a, b in zip(got_secret, secret))
        assert differing > len(secret) // 2

    def test_tail_flip_changes_key(self):
        package = bytearray(oaep_aont_encode(b"x" * 64, KEY))
        package[-1] ^= 0x01
        _, got_key = oaep_aont_decode(bytes(package))
        assert got_key != KEY


class TestRivestAont:
    @given(st.binary(min_size=0, max_size=600), st.binary(min_size=32, max_size=32))
    def test_roundtrip(self, secret, key):
        package = rivest_aont_encode(secret, key)
        assert len(package) == rivest_package_size(len(secret))
        got_secret, got_key = rivest_aont_decode(package, len(secret))
        assert got_secret == secret
        assert got_key == key

    @settings(max_examples=15)
    @given(st.binary(min_size=0, max_size=300))
    def test_per_word_equals_bulk(self, secret):
        assert rivest_aont_encode(secret, KEY, per_word=True) == rivest_aont_encode(
            secret, KEY, per_word=False
        )

    def test_canary_detects_corruption(self):
        secret = b"payload" * 20
        package = bytearray(rivest_aont_encode(secret, KEY))
        package[3] ^= 0xFF
        with pytest.raises(IntegrityError):
            rivest_aont_decode(bytes(package), len(secret))

    def test_tail_corruption_detected(self):
        secret = b"payload" * 20
        package = bytearray(rivest_aont_encode(secret, KEY))
        package[-1] ^= 0x80
        with pytest.raises(IntegrityError):
            rivest_aont_decode(bytes(package), len(secret))

    def test_key_size_enforced(self):
        with pytest.raises(CryptoError):
            rivest_aont_encode(b"data", b"short")

    def test_package_too_short(self):
        with pytest.raises(CryptoError):
            rivest_aont_decode(b"x" * 10, 2)

    def test_secret_size_bounds_checked(self):
        package = rivest_aont_encode(b"ab", KEY)
        with pytest.raises(CryptoError):
            rivest_aont_decode(package, 10**6)

    def test_package_size_accounts_for_canary(self):
        assert rivest_package_size(0) >= CANARY_SIZE + HASH_SIZE
        # Package body is always 16-byte aligned plus a 32-byte tail.
        for size in (0, 1, 15, 16, 17, 8192):
            assert (rivest_package_size(size) - HASH_SIZE) % 16 == 0


class TestXorBytes:
    def test_short_path_matches_numpy_at_every_length(self):
        import numpy as np

        from repro.core.aont import _xor_bytes
        from repro.crypto.drbg import DRBG

        rng = DRBG("xor-bytes")
        for length in range(66):
            a, b = rng.random_bytes(length), rng.random_bytes(length)
            expected = (
                np.frombuffer(a, dtype=np.uint8) ^ np.frombuffer(b, dtype=np.uint8)
            ).tobytes()
            assert _xor_bytes(a, b) == expected
            assert _xor_bytes(a, bytes(length)) == a
            # Leading zero bytes survive the int round trip.
            assert _xor_bytes(a, a) == bytes(length)

    @pytest.mark.parametrize("lengths", [(0, 1), (32, 31), (64, 65), (100, 99)])
    def test_length_mismatch_raises(self, lengths):
        from repro.core.aont import _xor_bytes

        with pytest.raises(CryptoError):
            _xor_bytes(bytes(lengths[0]), bytes(lengths[1]))
