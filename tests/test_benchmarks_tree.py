"""The split that keeps tier-1 deterministic: ``benchmarks/`` models and
pins, ``benchmarks/measured/`` holds every stopwatch.

* no module tier-1 collects under ``benchmarks/`` can read a clock or the
  environment;
* the tables those modules pin are exactly the tracked
  ``benchmarks/out/*.txt``;
* the pin itself: silent on a match, rewrites *and* fails on a difference;
* property tests inherit no wall-clock deadline either.
"""

import ast
import importlib.util
from pathlib import Path

import hypothesis
import pytest

BENCH_DIR = Path(__file__).parent.parent / "benchmarks"
PINNED_MODULES = sorted(BENCH_DIR.glob("*.py"))

#: What a pinned module may not import: clocks, and the one bench driver
#: that times its work (Figure 5).
CLOCK_MODULES = {"time", "timeit", "repro.bench.encoding"}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _imported_modules(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("path", PINNED_MODULES, ids=lambda p: p.name)
def test_pinned_module_reads_no_clock_and_no_environment(path):
    tree = _tree(path)
    assert not _imported_modules(tree) & CLOCK_MODULES
    environ = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
    ]
    assert not environ, f"{path.name} reads the environment at line(s) {environ}"


def test_measured_tree_is_not_collected_by_tier1():
    assert _load_pinned_conftest().collect_ignore == ["measured"]


def test_pinned_names_are_exactly_the_tracked_tables():
    pinned = []
    for path in PINNED_MODULES:
        for node in ast.walk(_tree(path)):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "pin"
            ):
                name = node.args[0]
                assert isinstance(name, ast.Constant), (
                    f"{path.name}:{node.lineno}: pin() takes a literal table name"
                )
                pinned.append(name.value)
    assert len(pinned) == len(set(pinned)), "a table is pinned twice"
    tracked = {p.stem for p in (BENCH_DIR / "out").glob("*.txt")}
    assert set(pinned) == tracked


def _load_pinned_conftest():
    spec = importlib.util.spec_from_file_location(
        "benchmarks_conftest", BENCH_DIR / "conftest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestPin:
    @pytest.fixture
    def conftest(self, tmp_path, monkeypatch):
        module = _load_pinned_conftest()
        monkeypatch.setattr(module, "OUT_DIR", tmp_path)
        return module

    def test_identical_rendering_passes_and_is_not_rewritten(self, conftest, tmp_path):
        golden = tmp_path / "t.txt"
        golden.write_text("a  b\n1  2\n")
        before = golden.stat().st_mtime_ns
        conftest.pin("t", "a  b\n1  2")
        assert golden.stat().st_mtime_ns == before

    def test_differing_rendering_fails_and_leaves_the_new_text(self, conftest, tmp_path):
        golden = tmp_path / "t.txt"
        golden.write_text("a  b\n1  2\n")
        with pytest.raises(pytest.fail.Exception, match="git diff benchmarks/out"):
            conftest.pin("t", "a  b\n1  3")
        assert golden.read_text() == "a  b\n1  3\n"

    def test_missing_golden_fails_once_and_creates_it(self, conftest, tmp_path):
        with pytest.raises(pytest.fail.Exception):
            conftest.pin("t", "a  b\n1  2")
        assert (tmp_path / "t.txt").read_text() == "a  b\n1  2\n"
        conftest.pin("t", "a  b\n1  2")


def test_property_tests_inherit_no_deadline():
    assert hypothesis.settings.default.deadline is None
