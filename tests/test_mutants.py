"""The mutation probe's list stays in step with the source it mutates."""

from mutants import MUTANTS, ROOT


def test_every_mutant_text_occurs_exactly_once():
    for name, file, old, _new, _expected in MUTANTS:
        text = (ROOT / "src" / "fairaudit" / file).read_text(encoding="utf-8")
        assert text.count(old) == 1, f"{name}: its text occurs {text.count(old)} times in {file}"
