"""The command-line surface, pinned: every option of every subcommand and
the verdict on every value the validation tests probe.

``tests/data/cli_surface.json`` was written by the tree whose CLI still
carried its own argparse ``type`` helpers, before they were replaced by
the config layer's checks.  Regenerate it only for an intended surface
change::

    PYTHONPATH=src python tests/test_cli_surface.py > tests/data/cli_surface.json
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from repro.cli import build_parser, main

SURFACE_FILE = Path(__file__).parent / "data" / "cli_surface.json"

_BAD_CHUNKERS = [
    "bogus", "gear:windowsill=48", "gear:avg=notanum", "gear:avg=1000",
    "gear:avg=256,min=512,max=128",
]
_BAD_CLOUD_SPECS = [
    "tcp://", "tcp://host", "tcp://host:", "tcp://host:abc",
    "tcp://host:0", "tcp://host:70000", "udp://host:1", "nonsense",
]
_QUOTA_FLAGS = ["--max-bytes", "--max-containers", "--max-requests-per-sec"]

#: Every probed command line.  ``{root}`` is an initialised n=4, k=3
#: deployment, ``{new}`` a directory that does not exist yet, ``{file}``
#: a small input file and ``{key}`` a file holding a tenant secret.
PROBES: list[list[str]] = [
    *(["backup", "--root", "{root}", "--user", "alice", "{file}",
       "--pipeline-depth", v] for v in ("0", "-3", "two")),
    *(["backup", "--root", "{root}", "--user", "alice", "{file}",
       "--threads", v] for v in ("0", "-1")),
    *(["backup", "--root", "{root}", "--user", "alice", "{file}",
       "--chunker", spec] for spec in _BAD_CHUNKERS),
    ["restore", "--root", "{root}", "--user", "alice", "/x", "-o", "{new}",
     "--pipeline-depth", "0"],
    *(["serve", "--root", "{root}", "--cloud", "0", "--port", port]
      for port in ("0", "-1", "65536", "http", "9300.5")),
    *(["serve", "--root", "{root}", "--cloud", cloud, "--port", "9300"]
      for cloud in ("-1", "one", "1.5")),
    ["serve", "--root", "{root}", "--cloud", "7", "--port", "9300"],
    ["serve", "--root", "{root}", "--cloud", "0", "--port", "9300",
     "--frame-budget", "0"],
    *(["init", "--root", "{new}", "--cloud-spec", spec] for spec in _BAD_CLOUD_SPECS),
    ["init", "--root", "{new}", "--n", "4", "--cloud-spec", "tcp://h:1",
     "--cloud-spec", "local"],
    ["init", "--root", "{new}", "--gateway-cache-bytes", "268435456"],
    ["init", "--root", "{new}", "--gateway-recipe-ttl", "30"],
    ["init", "--root", "{new}", "--gateway-shard-count", "64"],
    ["init", "--root", "{new}", "--gateway-replica", "tcp://127.0.0.1:9412"],
    ["init", "--root", "{new}", "--gateway", "tcp://127.0.0.1:9411",
     "--gateway-shard-count", "8"],
    ["init", "--root", "{new}", "--n", "2", "--k", "1", "--cloud-spec", "local",
     "--cloud-spec", "tcp://127.0.0.1:9411"],
    *(["tenant", "add", "--root", "{root}", "--id", "t", "--secret-file", "{key}",
       flag, value] for flag in _QUOTA_FLAGS for value in ("0", "-1")),
]


def _parsers(parser: argparse.ArgumentParser, prefix: str = ""):
    """``(command path, parser)`` for every subcommand, nested ones too."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                path = f"{prefix}{name}"
                yield path, child
                yield from _parsers(child, path + " ")


def _describe(action: argparse.Action) -> dict:
    choices = action.choices
    if isinstance(choices, dict):  # a subparsers action: its command names
        choices = sorted(choices)
    elif choices is not None:
        choices = list(choices)
    return {
        "dest": action.dest,
        "default": action.default,
        "choices": choices,
        "required": action.required,
        "nargs": action.nargs,
        "action": type(action).__name__,
    }


def _probe(argv: list[str], workdir: Path) -> int:
    root = workdir / "store"
    workdir.mkdir()
    (workdir / "v.bin").write_bytes(b"\x00" * 5_000)
    (workdir / "key").write_bytes(b"s3cret")
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        assert main(["init", "--root", str(root), "--n", "4", "--k", "3",
                     "--salt", "org"]) == 0
        argv = [
            arg.format(root=root, new=workdir / "new", file=workdir / "v.bin",
                       key=workdir / "key")
            for arg in argv
        ]
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


def surface(workdir: Path) -> dict:
    """The parser's options per subcommand, plus each probe's exit code."""
    commands = {}
    for path, parser in _parsers(build_parser()):
        actions = parser._actions
        commands[path] = {
            "positionals": [_describe(a) for a in actions if not a.option_strings],
            "options": {
                option: _describe(a) for a in actions for option in a.option_strings
            },
        }
    probes = []
    for i, argv in enumerate(PROBES):
        code = _probe(argv, workdir / f"probe-{i}")
        probes.append({
            "argv": argv,
            "exit": code,
            "verdict": "accepted" if code == 0 else "rejected",
        })
    return {"commands": commands, "probes": probes}


def test_parser_surface_matches_the_pinned_one(tmp_path):
    want = json.loads(SURFACE_FILE.read_text(encoding="utf-8"))
    # The one intended difference: the rate quota is checked by the same
    # rule as the other two quota flags, so 0 and -1 are usage errors at
    # the prompt (exit 2) instead of failing after the registry loaded.
    for probe in want["probes"]:
        if "--max-requests-per-sec" in probe["argv"]:
            assert probe["exit"] == 1
            probe["exit"] = 2
    got = json.loads(json.dumps(surface(tmp_path)))
    assert got["commands"] == want["commands"]
    assert got["probes"] == want["probes"]


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("flag", _QUOTA_FLAGS)
def test_every_quota_flag_rejects_non_positive_values_at_the_prompt(
    tmp_path, flag, value, capsys
):
    root = tmp_path / "store"
    assert main(["init", "--root", str(root)]) == 0
    key = tmp_path / "key"
    key.write_bytes(b"s3cret")
    with pytest.raises(SystemExit) as excinfo:
        main(["tenant", "add", "--root", str(root), "--id", "t",
              "--secret-file", str(key), flag, value])
    assert excinfo.value.code == 2
    assert flag in capsys.readouterr().err
    assert not (root / "tenants.json").exists()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        json.dump(surface(Path(scratch)), sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
