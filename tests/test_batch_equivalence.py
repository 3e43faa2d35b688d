"""Property tests: ``encode_batch``/``decode_batch`` ≡ per-secret paths.

For every registered scheme (vectorised batch kernels and generic
fallbacks alike) a batch call must be *byte-identical* to looping the
per-secret API:

* ``encode_batch(secrets)[i].shares == split(secrets[i]).shares`` — for
  randomised schemes this additionally pins the batch path to drawing
  per-secret randomness in batch order (two instances seeded identically,
  one driven per-secret and one batched, must agree);
* ``decode_batch`` recovers every secret from an arbitrary ``k``-subset of
  its shares, including mixed subsets within one batch (each group shares
  one inverse matrix) and ragged trailing lengths.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core  # noqa: F401  (registers the AONT-RS-family codecs)
from repro.crypto.drbg import DRBG
from repro.sharing.registry import available_schemes, create_scheme

N, K = 4, 3

#: Pool of secret sizes: small pool → same-length groups are common (the
#: vectorised stacks), while 0/1 and the +1/-1 offsets exercise padding
#: and ragged tails.
SIZE_POOL = (0, 1, 31, 32, 100, 999, 1000, 1001)


def fresh_scheme(name: str, seed: str = "batch-eq"):
    """A scheme instance with deterministic randomness where applicable."""
    if name == "ida":
        return create_scheme(name, N, K)
    if name == "rsss":
        return create_scheme(name, N, K, 1, rng=DRBG(seed))
    if name in ("caont-rs", "caont-rs-rivest", "crsss"):
        return create_scheme(name, N, K, salt=b"org")
    if name == "aont-rs-bulk":  # the per_word=False bulk-mask variant
        return create_scheme("aont-rs", N, K, rng=DRBG(seed), per_word=False)
    return create_scheme(name, N, K, rng=DRBG(seed))


ALL_SCHEMES = sorted(available_schemes()) + ["aont-rs-bulk"]


secret_lists = st.lists(
    st.sampled_from(SIZE_POOL).flatmap(
        lambda size: st.binary(min_size=size, max_size=size)
    ),
    min_size=0,
    max_size=8,
)


@pytest.mark.slow
@pytest.mark.parametrize("name", ALL_SCHEMES)
@settings(max_examples=20)
@given(data=st.data())
def test_batch_equals_per_secret(name, data):
    secrets = data.draw(secret_lists)

    # Two identically seeded instances: one driven per-secret, one batched.
    per_secret = fresh_scheme(name)
    batched = fresh_scheme(name)
    singles = [per_secret.split(secret) for secret in secrets]
    batch = batched.encode_batch(secrets)

    assert len(batch) == len(singles)
    for single, got in zip(singles, batch):
        assert got.shares == single.shares
        assert got.secret_size == single.secret_size
        assert got.scheme == single.scheme

    # decode_batch from arbitrary k-subsets (mixed within the batch).
    requests = []
    for share_set in batch:
        indices = sorted(
            data.draw(
                st.permutations(range(N)).map(lambda p: tuple(p[:K])),
                label="k-subset",
            )
        )
        requests.append((share_set.subset(list(indices)), share_set.secret_size))
    decoded = batched.decode_batch(requests)
    assert decoded == list(secrets)

    # ...and element-wise identical to the per-secret recover path.
    recovered = [per_secret.recover(shares, size) for shares, size in requests]
    assert decoded == recovered


@pytest.mark.parametrize("name", ALL_SCHEMES)
def test_batch_empty(name):
    scheme = fresh_scheme(name)
    assert scheme.encode_batch([]) == []
    assert scheme.decode_batch([]) == []
