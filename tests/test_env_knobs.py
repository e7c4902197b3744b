"""The README's environment-knob table lists exactly the knobs the code reads."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Every knob is a quoted ``"REPRO_*"`` literal somewhere under ``src/``.
_LITERAL = re.compile(r"[\"'](REPRO_[A-Z_]+)[\"']")


def _code_knobs():
    return {
        knob
        for path in (ROOT / "src").rglob("*.py")
        for knob in _LITERAL.findall(path.read_text(encoding="utf-8"))
    }


def _readme_knobs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("### Environment knobs", 1)[1].split("\n#", 1)[0]
    return set(re.findall(r"^\| `(REPRO_[A-Z_]+)`", section, re.MULTILINE))


def test_readme_knob_table_matches_the_code():
    code = _code_knobs()
    assert _readme_knobs() == code
    # The knob count is a design metric: adding one is a deliberate change.
    assert len(code) == 11, sorted(code)
