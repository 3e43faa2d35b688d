"""Typed deployment config: CloudSpec parsing, ReproConfig validation,
persistence round-trips and the pre-config-object schema shim."""

from __future__ import annotations

import json

import pytest

from repro.config import CONFIG_FILE_NAME, CloudSpec, ReproConfig
from repro.errors import ParameterError, ReproError


# ---------------------------------------------------------------------------
# CloudSpec


def test_parse_local():
    spec = CloudSpec.parse("local")
    assert not spec.is_remote
    assert str(spec) == "local"


def test_parse_tcp():
    spec = CloudSpec.parse("tcp://backup.example:7000")
    assert spec.is_remote
    assert spec.address == ("backup.example", 7000)
    assert str(spec) == "tcp://backup.example:7000"


def test_parse_roundtrips_through_str():
    for text in ("local", "tcp://127.0.0.1:9999", "tcp://host:1"):
        assert str(CloudSpec.parse(text)) == text


@pytest.mark.parametrize(
    "bad",
    [
        "http://host:1",  # wrong scheme
        "tcp://",  # no host, no port
        "tcp://host",  # no port
        "tcp://:7000",  # no host
        "tcp://host:port",  # non-numeric port
        "tcp://host:0",  # port out of range
        "tcp://host:65536",
        "LOCAL",  # specs are case-sensitive
        "",
    ],
)
def test_parse_rejects_malformed_specs(bad):
    with pytest.raises(ParameterError):
        CloudSpec.parse(bad)


def test_parse_rejects_non_strings():
    with pytest.raises(ParameterError):
        CloudSpec.parse(7000)  # type: ignore[arg-type]


def test_local_spec_has_no_address():
    with pytest.raises(ParameterError):
        CloudSpec.local().address


def test_constructor_validates_fields():
    with pytest.raises(ParameterError):
        CloudSpec(kind="local", host="leftover")
    with pytest.raises(ParameterError):
        CloudSpec(kind="tcp", host="h")  # port missing
    with pytest.raises(ParameterError):
        CloudSpec(kind="ftp", host="h", port=21)


def test_ipv6_style_host_uses_last_colon():
    # rpartition(":") keeps everything before the final colon as the host.
    spec = CloudSpec.parse("tcp://::1:7000")
    assert spec.address == ("::1", 7000)


# ---------------------------------------------------------------------------
# ReproConfig validation


def test_defaults_expand_to_n_local_clouds():
    config = ReproConfig()
    assert len(config.cloud_specs) == config.n == 4
    assert all(not spec.is_remote for spec in config.cloud_specs)
    assert config.remote_count == 0


def test_spec_strings_are_coerced():
    config = ReproConfig(n=2, k=1, cloud_specs=["local", "tcp://h:7000"])
    assert config.cloud_specs[0] == CloudSpec.local()
    assert config.cloud_specs[1] == CloudSpec.tcp("h", 7000)
    assert config.remote_count == 1


def test_spec_count_must_match_n():
    with pytest.raises(ParameterError, match="cloud specs for n="):
        ReproConfig(n=4, k=3, cloud_specs=["local", "local"])


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n": 0},
        {"n": 2, "k": 0},
        {"n": 2, "k": 3},  # k > n
        {"threads": 0},
        {"pipeline_depth": 0},
        {"pipeline_depth": "turbo"},
    ],
)
def test_bad_parameters_are_rejected(kwargs):
    with pytest.raises(ParameterError):
        ReproConfig(**kwargs)


def test_pipeline_depth_auto_is_allowed():
    assert ReproConfig(pipeline_depth="auto").pipeline_depth == "auto"


def test_salt_bytes():
    assert ReproConfig(salt="pepper").salt_bytes == b"pepper"


def test_with_overrides_revalidates():
    config = ReproConfig(n=4, k=3)
    assert config.with_overrides(threads=8).threads == 8
    with pytest.raises(ParameterError):
        config.with_overrides(k=9)


# ---------------------------------------------------------------------------
# Persistence


def test_mapping_roundtrip():
    config = ReproConfig(
        n=2,
        k=1,
        salt="s",
        chunker="fixed",
        cloud_specs=["tcp://a:1", "local"],
        threads=3,
        pipeline_depth="auto",
    )
    assert ReproConfig.from_mapping(config.to_mapping()) == config


def test_file_roundtrip_accepts_directory(tmp_path):
    config = ReproConfig(n=2, k=1, salt="x")
    config.to_file(tmp_path)  # directory -> <dir>/cdstore.json
    assert (tmp_path / CONFIG_FILE_NAME).is_file()
    assert ReproConfig.from_file(tmp_path) == config


def test_missing_config_names_repro_init(tmp_path):
    with pytest.raises(ReproError, match="repro init"):
        ReproConfig.from_file(tmp_path)


def test_corrupt_config_is_a_parameter_error(tmp_path):
    (tmp_path / CONFIG_FILE_NAME).write_text("{not json")
    with pytest.raises(ParameterError, match="not JSON"):
        ReproConfig.from_file(tmp_path)


def test_unknown_keys_are_rejected_with_names(tmp_path):
    (tmp_path / CONFIG_FILE_NAME).write_text(
        json.dumps({"n": 2, "k": 1, "saltt": "typo"})
    )
    with pytest.raises(ParameterError, match="saltt"):
        ReproConfig.from_file(tmp_path)


@pytest.mark.parametrize(
    "key, value", [("mux", False), ("workers", "thread"), ("workers", "process")]
)
def test_retired_key_loads_and_is_not_written_back(tmp_path, key, value):
    # Written when "mux" still chose between two proxy modes, or "workers"
    # between thread and process encode pools (which wrote the same bytes).
    old = {**ReproConfig(n=2, k=1).to_mapping(), key: value}
    (tmp_path / CONFIG_FILE_NAME).write_text(json.dumps(old))
    config = ReproConfig.from_file(tmp_path)
    assert config == ReproConfig(n=2, k=1)
    assert key not in config.to_mapping()
    assert not hasattr(config, key)


def test_pre_config_object_schema_still_loads(tmp_path):
    # Files written before ReproConfig existed carried only these keys.
    (tmp_path / CONFIG_FILE_NAME).write_text(
        json.dumps({"n": 4, "k": 3, "salt": "old", "chunker": "rabin"})
    )
    config = ReproConfig.from_file(tmp_path)
    assert (config.n, config.k, config.salt) == (4, 3, "old")
    assert config.scheme == "caont-rs"  # defaults fill the gaps
    assert len(config.cloud_specs) == 4


# ---------------------------------------------------------------------------
# The deprecated net-client shim is gone; CloudSpec.parse is the one parser


def test_parse_cloud_spec_shim_removed():
    import repro.net
    import repro.net.client

    assert not hasattr(repro.net, "parse_cloud_spec")
    assert not hasattr(repro.net.client, "parse_cloud_spec")
    assert CloudSpec.parse("tcp://h:7000").address == ("h", 7000)
