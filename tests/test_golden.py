"""Replay the golden CLI corpus and compare every output file byte for byte.

The corpus (``tests/golden/``) was frozen before the CLI refactor it guards;
see ``tests/golden/regen.py`` for the cases and for how to regenerate it.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_regen", Path(__file__).parent / "golden" / "regen.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

EXPECTED_FILES = sorted(p.name for p in golden.EXPECTED.iterdir())


@pytest.fixture(scope="module")
def corpus_run(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("golden")
    codes = golden.run_corpus(workdir)
    return workdir, codes


def test_exit_codes_match(corpus_run):
    _, codes = corpus_run
    expected = json.loads((golden.EXPECTED / golden.EXIT_CODES).read_text(encoding="utf-8"))
    assert codes == expected


def test_same_set_of_output_files(corpus_run):
    workdir, _ = corpus_run
    assert golden.outputs(workdir) == EXPECTED_FILES


@pytest.mark.parametrize("name", EXPECTED_FILES)
def test_output_file_byte_identical(corpus_run, name):
    workdir, _ = corpus_run
    produced = workdir / name
    assert produced.exists(), f"{name} was not written"
    assert produced.read_bytes() == (golden.EXPECTED / name).read_bytes(), name
