#!/usr/bin/env python3
"""Disaster recovery: vendor termination and share repair.

The paper's introduction motivates multi-cloud storage with the single
point of failure and vendor lock-in of one-cloud deployments — Nirvanix
telling customers to stop sending data being the canonical example.  This
scenario walks that failure end-to-end:

1. an organisation backs up across four clouds;
2. one vendor terminates: its data is gone for good;
3. restores keep working from the surviving k = 3 clouds;
4. a replacement cloud is provisioned and repaired: every lost share is
   rebuilt from the survivors, Reed-Solomon style (§3.1);
5. a *different* cloud then fails, proving the repaired cloud carries
   real, usable shares — of the data and of the pathnames;
6. a corrupted container on yet another cloud is routed around by the
   brute-force decoding fallback of §3.2.

Run:  python examples/disaster_recovery.py
"""

from __future__ import annotations

import os

from repro.chunking import RabinChunker
from repro.config import ReproConfig
from repro.system import CDStoreSystem


def main() -> None:
    config = ReproConfig(n=4, k=3, salt="acme-corp")
    system = CDStoreSystem.from_config(config)
    chunker = RabinChunker(avg_size=4096, min_size=1024, max_size=16384)
    client = system.client("ops-team", chunker=chunker)

    files = {
        f"/backups/week{i}/system.tar": os.urandom(120_000 + 7 * i)
        for i in range(3)
    }
    for path, data in files.items():
        client.upload(path, data)
    client.flush()
    print(f"backed up {len(files)} archives across {system.n} clouds")

    # --- vendor termination: cloud 2's data is irrecoverable -------------
    system.fail_cloud(2)
    print("cloud 2 terminated service (offline, data unreachable)")
    for path, data in files.items():
        assert client.download(path) == data
    print("all archives restored from the 3 surviving clouds")

    # --- provision a replacement and repair ------------------------------
    system.recover_cloud(2)
    system.wipe_cloud(2)  # the replacement starts empty
    rebuilt = system.repair_cloud(2)
    print(f"repair rebuilt {rebuilt} shares onto the replacement cloud")

    # --- prove the repaired cloud carries its weight ----------------------
    system.fail_cloud(0)
    for path, data in files.items():
        assert client.download(path) == data
    # Pathnames are Shamir-shared too (§4.3): the repaired cloud holds
    # its share of the same sharing, so listing works through it.
    assert client.list_files() == sorted(files)
    system.recover_cloud(0)
    print("a different cloud failed; restores and the listing used the "
          "repaired cloud")

    # --- corruption: brute-force decode (§3.2) ---------------------------
    backend = system.clouds[1].backend
    for key in backend.list_keys("container-"):
        backend.corrupt(key, offset=128, flips=32)
    print("injected bit flips into every container on cloud 1")
    for path, data in files.items():
        assert client.download(path) == data
    print("restores detected the corruption (embedded hash) and decoded "
          "from other share subsets")
    print("disaster recovery complete.")


if __name__ == "__main__":
    main()
