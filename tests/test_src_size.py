"""src/ holds at or below its line ceiling (ROADMAP item 10). Lower the ceiling whenever src/ shrinks."""

from conftest import REPO_ROOT

CEILING = 2879


def test_src_holds_at_or_below_its_line_ceiling():
    """Counted as `cat src/skyledger/*.py | wc -l` counts: every newline of every module."""
    lines = sum(path.read_bytes().count(b"\n") for path in (REPO_ROOT / "src" / "skyledger").glob("*.py"))
    assert lines <= CEILING, f"src/skyledger is {lines} lines, ceiling {CEILING}"
