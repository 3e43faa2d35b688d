"""Fixture-driven proof that every `repro analyze` checker earns its keep.

Each checker gets one deliberate true positive and one justified
suppression in ``tests/analysis_fixtures/`` — the former must be flagged,
the latter must stay silent.  A final test runs the full suite over the
real ``src/`` tree, pinning the repository's own invariant-clean state.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import run_analysis

FIXTURES = Path(__file__).parent / "analysis_fixtures"
REPO_SRC = Path(__file__).parent.parent / "src"


def line_of(path: Path, needle: str) -> int:
    """1-based line number of the first line containing ``needle``."""
    for lineno, text in enumerate(path.read_text().splitlines(), start=1):
        if needle in text:
            return lineno
    raise AssertionError(f"{needle!r} not found in {path}")


def findings_for(subdir: str):
    return run_analysis([FIXTURES / subdir])


def rules(findings) -> set[str]:
    return {f.rule for f in findings}


# ---------------------------------------------------------------------------
# LOCK-001


def test_lock_checker_flags_unlocked_mutation():
    sample = FIXTURES / "locks" / "sample.py"
    findings = findings_for("locks")
    assert rules(findings) == {"LOCK-001"}
    assert [f.line for f in findings] == [line_of(sample, "TRUE-POSITIVE")]
    assert "bad_add" in findings[0].message
    assert "'_items'" in findings[0].message


def test_lock_checker_suppression_is_honoured():
    sample = FIXTURES / "locks" / "sample.py"
    suppressed_line = line_of(sample, "analysis: ignore[LOCK-001]")
    assert all(f.line != suppressed_line for f in findings_for("locks"))


# ---------------------------------------------------------------------------
# DUR-001 / DUR-002


def test_durability_checker_flags_unsynced_publish():
    sample = FIXTURES / "storage" / "sample.py"
    findings = findings_for("storage")
    assert rules(findings) == {"DUR-001"}
    lines = {f.line for f in findings}
    assert line_of(sample, "publish with no fsync barrier") in lines
    assert line_of(sample, "fsync of an unflushed buffer") in lines
    assert len(findings) == 2


def test_durability_ack_suppression_is_honoured():
    # The DUR-002 ack finding exists but is suppressed with justification.
    assert "DUR-002" not in rules(findings_for("storage"))


# ---------------------------------------------------------------------------
# DUR-003


def test_log_order_checker_flags_records_ahead_of_their_commit():
    sample = FIXTURES / "lsm" / "sample.py"
    findings = findings_for("lsm")
    assert rules(findings) == {"DUR-003"}
    assert sorted(f.line for f in findings) == [
        line_of(sample, "TRUE-POSITIVE: record written before sync()"),
        line_of(sample, "TRUE-POSITIVE: memtable flush inside a request"),
    ]
    messages = " ".join(f.message for f in findings)
    assert "WriteThroughLog.append_put" in messages
    assert "put → _maybe_flush → flush" in messages


def test_log_order_suppression_is_honoured():
    sample = FIXTURES / "lsm" / "sample.py"
    suppressed_line = line_of(sample, "analysis: ignore[DUR-003]")
    assert all(f.line != suppressed_line for f in findings_for("lsm"))


# ---------------------------------------------------------------------------
# DUR-004


def test_delete_order_checker_flags_a_delete_before_the_commit():
    sample = FIXTURES / "server" / "sample.py"
    findings = findings_for("server")
    assert rules(findings) == {"DUR-004"}
    assert [f.line for f in findings] == [
        line_of(sample, "TRUE-POSITIVE: delete before commit")
    ]
    assert "delete_object" in findings[0].message


def test_delete_order_suppression_is_honoured():
    sample = FIXTURES / "server" / "sample.py"
    suppressed_line = line_of(sample, "analysis: ignore[DUR-004]")
    assert all(f.line != suppressed_line for f in findings_for("server"))


# ---------------------------------------------------------------------------
# LIFE-001


def test_lifecycle_checker_flags_leak_on_exception():
    sample = FIXTURES / "lifecycle" / "sample.py"
    findings = findings_for("lifecycle")
    assert rules(findings) == {"LIFE-001"}
    assert [f.line for f in findings] == [line_of(sample, "TRUE-POSITIVE")]
    assert "socket 'sock'" in findings[0].message


def test_lifecycle_suppression_is_honoured():
    sample = FIXTURES / "lifecycle" / "sample.py"
    suppressed_line = line_of(sample, "analysis: ignore[LIFE-001]")
    assert all(f.line != suppressed_line for f in findings_for("lifecycle"))


# ---------------------------------------------------------------------------
# OBS-001


def test_obs_checker_flags_undocumented_metric():
    sample = FIXTURES / "obs_docs" / "sample.py"
    findings = findings_for("obs_docs")
    assert rules(findings) == {"OBS-001"}
    assert [f.line for f in findings] == [line_of(sample, "TRUE-POSITIVE")]
    assert "'ghost_total'" in findings[0].message
    assert "counter" in findings[0].message
    assert "OBSERVABILITY.md" in findings[0].message


def test_obs_checker_suppression_is_honoured():
    sample = FIXTURES / "obs_docs" / "sample.py"
    suppressed_line = line_of(sample, "analysis: ignore[OBS-001]")
    assert all(f.line != suppressed_line for f in findings_for("obs_docs"))


def test_obs_checker_flags_missing_catalogue(tmp_path):
    (tmp_path / "metrics.py").write_text(
        'REGISTRY = None\n_C = REGISTRY.counter("orphan_total")\n'
    )
    findings = run_analysis([tmp_path])
    assert any(
        f.rule == "OBS-001" and "no operator catalogue" in f.message
        for f in findings
    )


# ---------------------------------------------------------------------------
# SUP-001


def test_bare_suppression_fires_and_silences_nothing():
    sample = FIXTURES / "framework" / "sample.py"
    findings = findings_for("framework")
    bare_line = line_of(sample, "analysis: ignore[LOCK-001]")
    assert {(f.rule, f.line) for f in findings} == {
        ("SUP-001", bare_line),
        ("LOCK-001", bare_line),  # the underlying finding survives
    }


# ---------------------------------------------------------------------------
# The real tree


def test_src_tree_is_invariant_clean():
    """`repro analyze src/` must exit 0 on the merged tree (acceptance)."""
    findings = run_analysis([REPO_SRC])
    assert findings == [], "\n".join(f.render() for f in findings)
