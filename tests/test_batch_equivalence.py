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


# ---------------------------------------------------------------------------
# Ragged runs: the batched decode on Rabin-like chunk sizes

RAGGED_SCHEMES = ("caont-rs", "aont-rs-bulk")


def ragged_secrets(count: int = 260) -> list[bytes]:
    """Rabin-like secrets: 2-16 KiB, nearly every length distinct, enough
    of them that the packages span more than two decode runs."""
    rng = DRBG("ragged-sizes")
    return [
        rng.random_bytes(2048 + int.from_bytes(rng.random_bytes(2), "big") % 14337)
        for _ in range(count)
    ]


def count_runs(monkeypatch, scheme) -> list[int]:
    """Record the number of packages each ``_open_packages`` call opens."""
    runs: list[int] = []
    original = scheme._open_packages

    def spy(packages, spans):
        runs.append(len(spans))
        return original(packages, spans)

    monkeypatch.setattr(scheme, "_open_packages", spy)
    return runs


@pytest.mark.parametrize("name", RAGGED_SCHEMES)
def test_ragged_runs_equal_recover_on_every_subset(name, monkeypatch):
    from itertools import combinations

    from repro.core.package_codec import _RUN_BYTES

    scheme = fresh_scheme(name)
    secrets = ragged_secrets()
    share_sets = scheme.encode_batch(secrets)
    assert len({len(secret) for secret in secrets}) > 200
    assert sum(K * len(s.shares[0]) for s in share_sets) > 2 * _RUN_BYTES
    runs = count_runs(monkeypatch, scheme)
    subsets = list(combinations(range(N), K))
    assert len(subsets) == 4
    for subset in subsets:
        requests = [(s.subset(list(subset)), s.secret_size) for s in share_sets]
        runs.clear()
        assert scheme.decode_batch(requests) == secrets
        assert len(runs) >= 3 and sum(runs) == len(secrets)
        assert [scheme.recover(*request) for request in requests] == secrets
    # Mixed subsets in one batch: one group (and its own runs) per subset.
    mixed = [
        (s.subset(list(subsets[i % 4])), s.secret_size)
        for i, s in enumerate(share_sets)
    ]
    runs.clear()
    assert scheme.decode_batch(mixed) == secrets
    assert sum(runs) == len(secrets) and len(runs) >= 4
    # Extra shares: the lowest k indices win, as in recover.
    full = [(dict(enumerate(s.shares)), s.secret_size) for s in share_sets]
    assert scheme.decode_batch(full) == secrets


@pytest.mark.parametrize("subset", [(0, 1, 2), (1, 2, 3)])
def test_a_corrupt_share_mid_run_fails_the_codec_not_the_dispersal(subset):
    from repro.core.convergent import ConvergentDispersal
    from repro.errors import IntegrityError

    dispersal = ConvergentDispersal(N, K, salt=b"org")
    secrets = ragged_secrets(160)
    share_sets = dispersal.encode_batch(secrets)
    bad = len(secrets) // 2
    shares = [dict(enumerate(s.shares)) for s in share_sets]
    victim = bytearray(shares[bad][subset[1]])
    victim[len(victim) // 2] ^= 0x40
    shares[bad][subset[1]] = bytes(victim)

    # k shares each: the codec's batch raises, and the dispersal's
    # per-secret retry hands exactly the corrupt secret to the fallback.
    requests = [
        ({i: s[i] for i in subset}, len(secret))
        for s, secret in zip(shares, secrets)
    ]
    with pytest.raises(IntegrityError):
        dispersal.codec.decode_batch(requests)
    failed = []

    def fallback(index, _shares, _size):
        failed.append(index)
        return b"<fallback>"

    decoded = dispersal.decode_batch(requests, fallback=fallback)
    assert failed == [bad]
    assert decoded[:bad] == secrets[:bad] and decoded[bad + 1 :] == secrets[bad + 1 :]

    # All n shares: the §3.2 subset retry recovers the corrupt secret too.
    full = [(s, len(secret)) for s, secret in zip(shares, secrets)]
    assert dispersal.decode_batch(full) == secrets


def test_mask_spans_equals_mask_block_on_every_backend():
    from repro.crypto.ciphers import available_aes_backends, mask_block, mask_spans

    rng = DRBG("mask-spans")
    # Ragged lengths, a gap between spans, an empty span, and one span past
    # the 128 KiB counter cache (the keystream fallback).
    lengths = [1, 15, 16, 17, 0, 4095, 31, (128 << 10) + 5, 33]
    spans, offset = [], 0
    for length in lengths:
        spans.append((offset, length))
        offset += length + 7
    keys = [rng.random_bytes(32) for _ in lengths]
    for backend in available_aes_backends():
        masks = mask_spans(keys, spans, offset, backend=backend)
        assert masks.shape == (offset,)
        for key, (start, length) in zip(keys, spans):
            assert masks[start : start + length].tobytes() == mask_block(key, length)
