"""Deterministic random byte generator."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.drbg import DRBG, system_random_bytes
from repro.errors import ParameterError


class TestDeterminism:
    def test_same_seed_same_stream(self):
        assert DRBG("s").random_bytes(100) == DRBG("s").random_bytes(100)

    def test_different_seeds_differ(self):
        assert DRBG("a").random_bytes(32) != DRBG("b").random_bytes(32)

    def test_stream_is_continuous(self):
        one = DRBG("s")
        first, second = one.random_bytes(10), one.random_bytes(10)
        whole = DRBG("s").random_bytes(20)
        assert first + second == whole

    def test_stream_is_pinned(self):
        """The linear-time draw emits the very bytes the block-by-block
        (quadratic) one did: digests taken from that implementation, for
        one 1 MiB draw and for the same MiB drawn in uneven pieces."""
        import hashlib

        pinned = "d4d9dfd3a11700e634fcfeb7925caaf3a735389e99ceaed9bcd19ad64f5a76eb"
        total = 1 << 20
        whole = DRBG("drbg-linear-pin").random_bytes(total)
        assert hashlib.sha256(whole).hexdigest() == pinned
        pieces, drawn = DRBG("drbg-linear-pin"), hashlib.sha256()
        sizes, done, turn = [1, 31, 32, 33, 0, 4097, 65521, 7], 0, 0
        while done < total:
            size = min(sizes[turn % len(sizes)], total - done)
            drawn.update(pieces.random_bytes(size))
            done, turn = done + size, turn + 1
        assert drawn.hexdigest() == pinned

    def test_seed_types(self):
        assert DRBG(b"x").random_bytes(8) == DRBG(b"x").random_bytes(8)
        DRBG("str-seed")
        DRBG(12345)

    def test_empty_seed_raises(self):
        with pytest.raises(ParameterError):
            DRBG(b"")


class TestFork:
    def test_forks_are_independent_and_stable(self):
        root = DRBG("root")
        a1 = root.fork("a").random_bytes(16)
        b1 = root.fork("b").random_bytes(16)
        assert a1 != b1
        assert DRBG("root").fork("a").random_bytes(16) == a1

    def test_fork_does_not_consume_parent_stream(self):
        one = DRBG("root")
        one.fork("child")
        assert one.random_bytes(8) == DRBG("root").random_bytes(8)


class TestDistributionHelpers:
    @given(st.integers(-100, 100), st.integers(0, 200))
    def test_randint_bounds(self, low, span):
        high = low + span
        rng = DRBG("bounds")
        for _ in range(20):
            value = rng.randint(low, high)
            assert low <= value <= high

    def test_randint_empty_range_raises(self):
        with pytest.raises(ParameterError):
            DRBG("x").randint(5, 4)

    def test_randint_covers_range(self):
        rng = DRBG("coverage")
        seen = {rng.randint(0, 3) for _ in range(200)}
        assert seen == {0, 1, 2, 3}

    def test_random_unit_interval(self):
        rng = DRBG("float")
        values = [rng.random() for _ in range(100)]
        assert all(0 <= v < 1 for v in values)
        assert 0.2 < sum(values) / len(values) < 0.8

    def test_choice(self):
        rng = DRBG("choice")
        items = ["a", "b", "c"]
        assert all(rng.choice(items) in items for _ in range(20))
        with pytest.raises(ParameterError):
            rng.choice([])

    def test_shuffle_is_permutation(self):
        rng = DRBG("shuffle")
        items = list(range(50))
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items
        assert shuffled != items  # astronomically unlikely to be identity

    def test_negative_length_raises(self):
        with pytest.raises(ParameterError):
            DRBG("x").random_bytes(-1)


def test_system_random_bytes():
    assert len(system_random_bytes(16)) == 16
    assert system_random_bytes(16) != system_random_bytes(16)
