"""Classical secret-sharing schemes: SSSS, IDA, RSSS, SSMS + registry."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.drbg import DRBG
from repro.errors import CodingError, ParameterError
from repro.sharing import (
    RSSS,
    SSMS,
    SSSS,
    IDAScheme,
    available_schemes,
    create_scheme,
    register_scheme,
)


def scheme_instances():
    rng = DRBG("schemes")
    return [
        SSSS(4, 3, rng=rng.fork("ssss")),
        IDAScheme(4, 3),
        RSSS(4, 3, 1, rng=rng.fork("rsss")),
        RSSS(4, 3, 2, rng=rng.fork("rsss2")),
        SSMS(4, 3, rng=rng.fork("ssms")),
    ]


class TestContract:
    @pytest.mark.parametrize("scheme", scheme_instances(), ids=lambda s: f"{s.name}-r{s.r}")
    def test_roundtrip_every_k_subset(self, scheme):
        secret = DRBG("contract").random_bytes(2000)
        share_set = scheme.split(secret)
        assert share_set.n == scheme.n
        for subset in combinations(range(scheme.n), scheme.k):
            got = scheme.recover(share_set.subset(list(subset)), len(secret))
            assert got == secret, f"{scheme.name} failed on subset {subset}"

    @pytest.mark.parametrize("scheme", scheme_instances(), ids=lambda s: f"{s.name}-r{s.r}")
    @pytest.mark.parametrize("size", [0, 1, 2, 33, 1000])
    def test_odd_sizes(self, scheme, size):
        secret = DRBG(f"odd{size}").random_bytes(size)
        share_set = scheme.split(secret)
        got = scheme.recover(share_set.subset(list(range(scheme.k))), size)
        assert got == secret

    @pytest.mark.parametrize("scheme", scheme_instances(), ids=lambda s: f"{s.name}-r{s.r}")
    def test_too_few_shares_raise(self, scheme):
        share_set = scheme.split(b"x" * 100)
        with pytest.raises(CodingError):
            scheme.recover(share_set.subset(list(range(scheme.k - 1))), 100)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            SSSS(2, 3)
        with pytest.raises(ParameterError):
            RSSS(4, 3, 3)  # r must be < k
        with pytest.raises(ParameterError):
            RSSS(4, 3, -1)


class TestBlowups:
    def test_table1_blowups(self):
        size = 9000  # divisible by k - r combinations below
        secret = DRBG("blowup").random_bytes(size)
        assert SSSS(4, 3).split(secret).storage_blowup == pytest.approx(4.0)
        assert IDAScheme(4, 3).split(secret).storage_blowup == pytest.approx(4 / 3)
        assert RSSS(4, 3, 1).split(secret).storage_blowup == pytest.approx(2.0)
        assert RSSS(4, 3, 2).split(secret).storage_blowup == pytest.approx(4.0)
        assert SSMS(4, 3).split(secret).storage_blowup == pytest.approx(
            4 / 3 + 4 * 32 / size, rel=0.01
        )

    def test_expected_blowup_matches_measured(self):
        for scheme in scheme_instances():
            secret = DRBG("expected").random_bytes(6000)
            measured = scheme.split(secret).storage_blowup
            assert scheme.expected_blowup(6000) == pytest.approx(measured, rel=0.01)


class TestRandomisation:
    def test_ssss_shares_differ_between_splits(self):
        scheme = SSSS(4, 3)
        secret = b"classified" * 20
        assert scheme.split(secret).shares != scheme.split(secret).shares

    def test_rsss_r0_is_deterministic_ida(self):
        scheme = RSSS(4, 3, 0)
        secret = b"plain" * 100
        assert scheme.split(secret).shares == scheme.split(secret).shares

    def test_ssms_shares_differ_between_splits(self):
        scheme = SSMS(4, 3)
        secret = b"enc" * 100
        assert scheme.split(secret).shares != scheme.split(secret).shares

    def test_ssss_single_share_leaks_nothing_trivially(self):
        """The same secret yields unrelated share bytes run-to-run."""
        secret = b"\x00" * 64
        a = SSSS(4, 3).split(secret).shares[0]
        b = SSSS(4, 3).split(secret).shares[0]
        assert a != b

    def test_rsss_single_share_is_masked(self):
        """With r >= 1, a share of the zero secret is not all zeroes."""
        share = RSSS(4, 3, 1).split(b"\x00" * 128).shares[0]
        assert any(share)


class TestShamirDetails:
    @settings(max_examples=20)
    @given(st.binary(min_size=1, max_size=200), st.integers(min_value=2, max_value=6))
    def test_ssss_any_k_of_n(self, secret, k):
        n = k + 2
        scheme = SSSS(n, k, rng=DRBG("prop"))
        share_set = scheme.split(secret)
        got = scheme.recover(share_set.subset(list(range(n - k, n))), len(secret))
        assert got == secret

    def test_interpolate_regenerates_a_lost_share_of_the_same_sharing(self):
        scheme = SSSS(5, 3)
        shares = scheme.split(b"/backups/week1/system.tar").shares
        for lost in range(5):
            for donors in combinations([i for i in range(5) if i != lost], 3):
                got = scheme.interpolate({i: shares[i] for i in donors}, lost + 1)
                assert got == shares[lost]

    def test_share_size_equals_secret_size(self):
        share_set = SSSS(4, 3).split(b"z" * 777)
        assert all(len(s) == 777 for s in share_set.shares)


class TestRegistry:
    def test_builtins_present(self):
        names = available_schemes()
        for expected in ("ssss", "ida", "rsss", "ssms", "aont-rs", "caont-rs", "caont-rs-rivest"):
            assert expected in names

    def test_create_by_name(self):
        scheme = create_scheme("ssss", 4, 3)
        assert isinstance(scheme, SSSS)

    def test_unknown_name_raises(self):
        with pytest.raises(ParameterError):
            create_scheme("does-not-exist", 4, 3)

    def test_conflicting_registration_raises(self):
        with pytest.raises(ParameterError):
            register_scheme("ssss", lambda *a, **k: None)


class TestShareSet:
    def test_properties(self):
        share_set = SSSS(4, 3).split(b"abcd" * 10)
        assert share_set.n == 4
        assert share_set.total_size == 4 * 40
        assert share_set.subset([1, 3]).keys() == {1, 3}

    def test_empty_secret_blowup_is_infinite(self):
        share_set = SSSS(4, 3).split(b"")
        assert share_set.storage_blowup == float("inf")
