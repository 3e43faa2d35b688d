"""ConvergentDispersal facade: share pinning, brute-force decode."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.convergent import ConvergentDispersal, create_codec
from repro.core.caont_rs import CAONTRS
from repro.core.package_codec import KeyedSecrets
from repro.crypto.drbg import DRBG
from repro.crypto.hashing import hash_key
from repro.errors import CodingError, IntegrityError, ParameterError


class TestConstruction:
    def test_default_scheme(self):
        cd = ConvergentDispersal(4, 3)
        assert cd.scheme == "caont-rs"
        assert isinstance(cd.codec, CAONTRS)

    def test_rejects_non_convergent_scheme(self):
        with pytest.raises(ParameterError):
            ConvergentDispersal(4, 3, scheme="aont-rs")

    def test_create_codec_factory(self):
        codec = create_codec("caont-rs", 4, 3)
        assert isinstance(codec, CAONTRS)


class TestDecode:
    def test_roundtrip(self):
        cd = ConvergentDispersal(4, 3)
        secret = b"facade" * 100
        share_set = cd.encode(secret)
        assert cd.decode(share_set.subset([0, 2, 3]), len(secret)) == secret

    def test_too_few_shares(self):
        cd = ConvergentDispersal(4, 3)
        share_set = cd.encode(b"x" * 50)
        with pytest.raises(CodingError):
            cd.decode(share_set.subset([0, 1]), 50)

    def test_brute_force_skips_corrupt_share(self):
        """With n shares available and one corrupt, some k-subset works."""
        cd = ConvergentDispersal(4, 3)
        secret = b"resilient" * 50
        share_set = cd.encode(secret)
        shares = dict(enumerate(share_set.shares))
        bad = bytearray(shares[1])
        bad[0] ^= 0xFF
        shares[1] = bytes(bad)
        assert cd.decode(shares, len(secret)) == secret

    def test_all_subsets_corrupt_raises(self):
        cd = ConvergentDispersal(4, 3)
        secret = b"hopeless" * 50
        share_set = cd.encode(secret)
        shares = {}
        for i, share in enumerate(share_set.shares[:3]):
            bad = bytearray(share)
            bad[i] ^= 0xFF
            shares[i] = bytes(bad)
        with pytest.raises(IntegrityError):
            cd.decode(shares, len(secret))

    def test_share_size_passthrough(self):
        cd = ConvergentDispersal(4, 3)
        assert cd.share_size(8192) == cd.codec.share_size(8192)

    def test_determinism_for_dedup(self):
        cd1 = ConvergentDispersal(4, 3, salt=b"org")
        cd2 = ConvergentDispersal(4, 3, salt=b"org")
        secret = b"dedupable" * 30
        assert cd1.encode(secret).shares == cd2.encode(secret).shares


@pytest.mark.parametrize("scheme", ["caont-rs", "caont-rs-rivest", "crsss"])
@pytest.mark.parametrize("n,k", [(4, 3), (5, 3), (6, 4), (3, 2)])
class TestSharePrediction:
    """An upload counts a copied secret's shares by ``share_size``
    without encoding it, so the prediction must be exact on every scheme."""

    @settings(max_examples=15, deadline=None)
    @given(sizes=st.lists(st.integers(1, 40_000), min_size=1, max_size=3))
    def test_share_size_and_batch_match_encode(self, scheme, n, k, sizes):
        dispersal = ConvergentDispersal(n, k, scheme=scheme, salt=b"org")
        secrets = [
            DRBG(f"predict-{i}-{size}").random_bytes(size)
            for i, size in enumerate(sizes)
        ]
        batch = dispersal.encode_batch(secrets)
        for secret, share_set in zip(secrets, batch):
            assert share_set == dispersal.encode(secret)
            assert [len(share) for share in share_set.shares] == [
                dispersal.share_size(len(secret))
            ] * n
        keys = dispersal.hash_keys(secrets)
        assert keys == [hash_key(secret, b"org") for secret in secrets]
        assert dispersal.encode_batch(KeyedSecrets(secrets, keys)) == batch

