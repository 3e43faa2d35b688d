"""Multi-tenant serving: the auth handshake, tenant scoping, quotas.

Real loopback sockets throughout — the handshake, the per-frame tenant
pinning, the admin-role gate, owner-scoped fetches and the typed quota
errors are all exercised over the wire, exactly as a deployment sees
them.  Raw-socket tests drive the frames by hand where the proxy (which
only ever does the right thing) cannot express the attack.
"""

from __future__ import annotations

import hashlib
import os
import socket
from contextlib import closing

import pytest

from repro.cloud.network import Link
from repro.cloud.provider import CloudProvider
from repro.crypto.hashing import fingerprint
from repro.errors import AuthError, NotFoundError, QuotaExceededError
from repro.net import CDStoreTCPServer, RemoteServerProxy, wire
from repro.server.messages import FileManifest, ShareMeta, ShareUpload
from repro.server.server import CDStoreServer
from repro.tenants import (
    ROLE_ADMIN,
    Credentials,
    TenantQuota,
    TenantRecord,
    TenantRegistry,
    auth_proof,
)

SECRETS = {
    "alice": b"alice-secret",
    "bob": b"bob-secret",
    "root": b"root-secret",
    "drip": b"drip-secret",
    "small": b"small-secret",
}


def make_registry() -> TenantRegistry:
    return TenantRegistry(
        [
            TenantRecord("alice", SECRETS["alice"]),
            TenantRecord("bob", SECRETS["bob"]),
            TenantRecord("root", SECRETS["root"], role=ROLE_ADMIN),
            TenantRecord(
                "drip",
                SECRETS["drip"],
                quota=TenantQuota(max_requests_per_sec=0.001),
            ),
            TenantRecord(
                "small", SECRETS["small"], quota=TenantQuota(max_bytes=6000)
            ),
        ]
    )


@pytest.fixture
def served():
    """One in-memory tenant-aware server behind a loopback TCP server."""
    registry = make_registry()
    server = CDStoreServer(
        server_id=0,
        cloud=CloudProvider("cloud-0", Link(100.0), Link(100.0)),
        tenants=registry,
    )
    tcp = CDStoreTCPServer(server, tenants=registry).start()
    try:
        yield server, tcp
    finally:
        tcp.shutdown()


def proxy_for(tcp, tenant: str | None = None, secret: bytes | None = None):
    creds = None
    if tenant is not None:
        creds = Credentials(tenant, secret or SECRETS[tenant])
    host, port = tcp.address
    return RemoteServerProxy(f"tcp://{host}:{port}", credentials=creds)


def make_upload(data: bytes) -> ShareUpload:
    meta = ShareMeta(
        fingerprint=hashlib.sha256(b"client:" + data).digest(),
        share_size=len(data),
        secret_seq=0,
        secret_size=len(data),
    )
    return ShareUpload(meta=meta, data=data)


def store_file(proxy, user: str, name: bytes, data: bytes) -> bytes:
    """Upload + finalize one single-share file; returns the server fp.

    Follows the client protocol: query first, upload only what the user
    has not stored before (two-stage dedup), then finalize.
    """
    upload = make_upload(data)
    if not proxy.query_duplicates(user, [upload.meta.fingerprint])[0]:
        proxy.upload_shares(user, [upload])
    manifest = FileManifest(
        lookup_key=name, path_share=b"", file_size=len(data), secret_count=1
    )
    proxy.finalize_file(user, manifest, [upload.meta])
    return fingerprint(data, domain="server")


# ---------------------------------------------------------------------------
# raw frame access (for what the well-behaved proxy cannot express)
# ---------------------------------------------------------------------------


def _call(sock: socket.socket, frame_type: int, payload: bytes = b""):
    sock.sendall(wire.encode_mux_frame(frame_type, 1, payload))
    reply_type, request_id, reply = wire.read_frame_mux(
        lambda n: wire.recv_exact(sock, n)
    )
    assert request_id == 1
    return reply_type, reply


def _connect(tcp) -> socket.socket:
    return socket.create_connection(tcp.address, timeout=10)


# ---------------------------------------------------------------------------
# the handshake
# ---------------------------------------------------------------------------


class TestHandshake:
    def test_valid_credentials_authenticate(self, served):
        _server, tcp = served
        with proxy_for(tcp, "alice") as proxy:
            assert proxy.list_files("alice") == []
            assert proxy.role == "tenant"

    def test_admin_role_is_reported(self, served):
        _server, tcp = served
        with proxy_for(tcp, "root") as proxy:
            assert proxy.scrub() == []
            assert proxy.role == ROLE_ADMIN

    def test_ping_needs_no_credentials(self, served):
        _server, tcp = served
        with proxy_for(tcp) as proxy:
            assert proxy.ping()

    def test_ping_with_bad_credentials_is_an_auth_error_not_an_outage(
        self, served
    ):
        """A live server rejecting the secret must not read as unreachable
        — that answer sends the operator debugging the network instead of
        their credentials (and `InsufficientCloudsError` would bury the
        cause entirely)."""
        _server, tcp = served
        with proxy_for(tcp, "alice", secret=b"wrong") as proxy:
            with pytest.raises(AuthError):
                proxy.ping()

    def test_requests_require_auth(self, served):
        _server, tcp = served
        with proxy_for(tcp) as proxy:
            with pytest.raises(AuthError, match="authentication required"):
                proxy.list_files("alice")

    def test_bad_secret_is_rejected(self, served):
        _server, tcp = served
        with proxy_for(tcp, "alice", secret=b"guessed") as proxy:
            with pytest.raises(AuthError) as wrong_secret:
                proxy.list_files("alice")
        # An unknown tenant gets byte-identical treatment: same message,
        # so the error is not an existence oracle for tenant ids.
        with proxy_for(tcp, "mallory", secret=b"whatever") as proxy:
            with pytest.raises(AuthError) as unknown_tenant:
                proxy.list_files("mallory")
        assert str(wrong_secret.value) == str(unknown_tenant.value)

    def test_proxy_reauthenticates_after_reconnect(self, served):
        _server, tcp = served
        with proxy_for(tcp, "alice") as proxy:
            assert proxy.list_files("alice") == []
            proxy.close()  # drop the socket; next call redials
            assert proxy.list_files("alice") == []
            assert proxy.role == "tenant"

    def test_replayed_proof_is_rejected(self, served):
        """A captured proof is useless: the server nonce is fresh per
        attempt, so the HMAC never verifies against a new challenge."""
        _server, tcp = served
        client_nonce = os.urandom(wire.AUTH_NONCE_SIZE)
        with closing(_connect(tcp)) as s1:
            frame_type, payload = _call(
                s1, wire.T_AUTH, wire.T_AUTH.encode("alice", client_nonce)
            )
            assert frame_type == wire.R_AUTH_CHALLENGE
            nonce1 = wire.R_AUTH_CHALLENGE.decode_result(payload)
            proof = auth_proof(SECRETS["alice"], "alice", client_nonce, nonce1)
            frame_type, _ = _call(
                s1, wire.T_AUTH_PROOF, wire.T_AUTH_PROOF.encode(proof)
            )
            assert frame_type == wire.R_AUTH_OK

        with closing(_connect(tcp)) as s2:
            frame_type, payload = _call(
                s2, wire.T_AUTH, wire.T_AUTH.encode("alice", client_nonce)
            )
            nonce2 = wire.R_AUTH_CHALLENGE.decode_result(payload)
            assert nonce2 != nonce1
            frame_type, payload = _call(
                s2, wire.T_AUTH_PROOF, wire.T_AUTH_PROOF.encode(proof)
            )
            assert frame_type == wire.R_ERROR
            assert isinstance(wire.decode_error(payload), AuthError)

    def test_failed_proof_consumes_the_challenge(self, served):
        """One challenge, one attempt: after a bad proof even the correct
        one is refused until the handshake restarts."""
        _server, tcp = served
        client_nonce = os.urandom(wire.AUTH_NONCE_SIZE)
        with closing(_connect(tcp)) as sock:
            _, payload = _call(
                sock, wire.T_AUTH, wire.T_AUTH.encode("alice", client_nonce)
            )
            server_nonce = wire.R_AUTH_CHALLENGE.decode_result(payload)
            frame_type, _ = _call(
                sock, wire.T_AUTH_PROOF, wire.T_AUTH_PROOF.encode(b"\x00" * 32)
            )
            assert frame_type == wire.R_ERROR
            correct = auth_proof(
                SECRETS["alice"], "alice", client_nonce, server_nonce
            )
            frame_type, payload = _call(
                sock, wire.T_AUTH_PROOF, wire.T_AUTH_PROOF.encode(correct)
            )
            assert frame_type == wire.R_ERROR
            assert isinstance(wire.decode_error(payload), AuthError)

    def test_proof_is_bound_to_the_claimed_tenant(self, served):
        """bob's secret proving a claim for alice's id never verifies."""
        _server, tcp = served
        client_nonce = os.urandom(wire.AUTH_NONCE_SIZE)
        with closing(_connect(tcp)) as sock:
            _, payload = _call(
                sock, wire.T_AUTH, wire.T_AUTH.encode("alice", client_nonce)
            )
            server_nonce = wire.R_AUTH_CHALLENGE.decode_result(payload)
            forged = auth_proof(
                SECRETS["bob"], "alice", client_nonce, server_nonce
            )
            frame_type, payload = _call(
                sock, wire.T_AUTH_PROOF, wire.T_AUTH_PROOF.encode(forged)
            )
            assert frame_type == wire.R_ERROR
            assert isinstance(wire.decode_error(payload), AuthError)


# ---------------------------------------------------------------------------
# tenant pinning: every user_id-bearing frame
# ---------------------------------------------------------------------------

MISMATCH_OPS = [
    ("query_duplicates", lambda p: p.query_duplicates("bob", [])),
    ("upload_shares", lambda p: p.upload_shares("bob", [])),
    (
        "finalize_file",
        lambda p: p.finalize_file("bob", FileManifest(b"k", b"", 0, 0), []),
    ),
    ("get_file_entry", lambda p: p.get_file_entry("bob", b"k")),
    ("get_recipe", lambda p: p.get_recipe("bob", b"k")),
    ("list_files", lambda p: p.list_files("bob")),
    ("delete_file", lambda p: p.delete_file("bob", b"k")),
]


class TestTenantPinning:
    @pytest.mark.parametrize("op", [op for _, op in MISMATCH_OPS],
                             ids=[name for name, _ in MISMATCH_OPS])
    def test_foreign_user_id_is_rejected(self, served, op):
        _server, tcp = served
        with proxy_for(tcp, "alice") as proxy:
            with pytest.raises(AuthError, match="does not match"):
                op(proxy)

    def test_own_user_id_is_allowed(self, served):
        _server, tcp = served
        with proxy_for(tcp, "alice") as proxy:
            assert proxy.query_duplicates("alice", []) == []

    def test_admin_may_name_any_user(self, served):
        _server, tcp = served
        with proxy_for(tcp, "root") as proxy:
            assert proxy.list_files("bob") == []


# ---------------------------------------------------------------------------
# the admin frame set
# ---------------------------------------------------------------------------

ADMIN_OPS = [
    ("scrub", lambda p: p.scrub()),
    ("collect_garbage", lambda p: p.collect_garbage()),
    ("list_backups", lambda p: p.list_backups()),
    ("stats", lambda p: p.stats),
    ("stored_bytes", lambda p: p.stored_bytes),
    ("replace_share", lambda p: p.replace_share(b"\x01" * 32, b"d")),
    (
        "rebuild_recipe",
        lambda p: p.rebuild_recipe("alice", b"k", []),
    ),
]


class TestAdminFrames:
    @pytest.mark.parametrize("op", [op for _, op in ADMIN_OPS],
                             ids=[name for name, _ in ADMIN_OPS])
    def test_reserved_to_admin_role(self, served, op):
        _server, tcp = served
        with proxy_for(tcp, "alice") as proxy:
            with pytest.raises(AuthError, match="administrator role"):
                op(proxy)

    def test_admin_passes(self, served):
        _server, tcp = served
        with proxy_for(tcp, "root") as proxy:
            assert proxy.collect_garbage() == 0
            assert proxy.list_backups() == []
            assert proxy.stored_bytes == 0

    def test_flush_is_open_to_any_tenant(self, served):
        _server, tcp = served
        with proxy_for(tcp, "alice") as proxy:
            proxy.flush()  # only makes buffered writes durable


# ---------------------------------------------------------------------------
# owner-scoped share fetches
# ---------------------------------------------------------------------------


class TestOwnerScoping:
    def test_tenants_cannot_fetch_or_probe_foreign_shares(self, served):
        _server, tcp = served
        data = b"bob-owned-share-data" * 100
        with proxy_for(tcp, "bob") as bob:
            server_fp = store_file(bob, "bob", b"bobs-file", data)
            assert bob.fetch_shares([server_fp]) == {server_fp: data}

        with proxy_for(tcp, "alice") as alice:
            # Another tenant's share answers exactly like one that was
            # never stored: not-found, not forbidden.
            with pytest.raises(NotFoundError):
                alice.fetch_shares([server_fp])
            with pytest.raises(NotFoundError):
                alice.fetch_shares([b"\x02" * 32])

        with proxy_for(tcp, "root") as root:
            assert root.fetch_shares([server_fp]) == {server_fp: data}


# ---------------------------------------------------------------------------
# rate limiting and byte quotas, over the wire
# ---------------------------------------------------------------------------


class TestQuotas:
    def test_rate_limit_is_typed_and_survives_reconnect(self, served):
        """drip's bucket holds one token refilling at 1/1000s: the second
        request trips the limit, and redialling (which re-authenticates)
        does not buy a fresh bucket — it is per tenant, not per socket."""
        _server, tcp = served
        with proxy_for(tcp, "drip") as proxy:
            assert proxy.list_files("drip") == []
            with pytest.raises(QuotaExceededError, match="rate limit"):
                proxy.list_files("drip")
            proxy.close()
            with pytest.raises(QuotaExceededError, match="rate limit"):
                proxy.list_files("drip")

    def test_byte_quota_accounts_across_reconnects(self, served):
        server, tcp = served
        first = os.urandom(4096)
        with proxy_for(tcp, "small") as proxy:
            store_file(proxy, "small", b"f1", first)
        assert server.tenant_usage("small").bytes_stored == 4096

        # A fresh connection (fresh handshake) sees the same durable
        # ledger: the next 4 KiB would exceed max_bytes=6000.
        with proxy_for(tcp, "small") as proxy:
            with pytest.raises(QuotaExceededError, match="quota"):
                proxy.upload_shares("small", [make_upload(os.urandom(4096))])
        assert server.tenant_usage("small").bytes_stored == 4096

    def test_intra_tenant_dedup_is_free(self, served):
        server, tcp = served
        data = os.urandom(4096)
        with proxy_for(tcp, "small") as proxy:
            store_file(proxy, "small", b"f1", data)
            # The same share under a second name re-references, not
            # re-stores: no new charge, no quota trip.
            store_file(proxy, "small", b"f2", data)
        assert server.tenant_usage("small").bytes_stored == 4096


# ---------------------------------------------------------------------------
# open mode: no registry, no handshake
# ---------------------------------------------------------------------------


def test_open_mode_stays_open():
    server = CDStoreServer(
        server_id=0, cloud=CloudProvider("cloud-0", Link(100.0), Link(100.0))
    )
    with CDStoreTCPServer(server) as tcp:
        with proxy_for(tcp) as proxy:
            assert proxy.query_duplicates("anyone", []) == []
            assert proxy.scrub() == []
            assert proxy.role is None
