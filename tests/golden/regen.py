"""Golden corpus of CLI outputs: the invocations, and the script that freezes them.

Every case runs ``fairaudit.cli.main`` in-process, in order, with the working
directory set to a scratch copy of ``inputs/``, so reports embed relative
paths only and later cases read the files earlier ones wrote (the synth
table, the models). ``expected/`` holds every file the run leaves behind
besides the inputs, each case's stdout as ``<case>.stdout`` when it prints
anything, and ``exit_codes.json``. ``tests/test_golden.py`` replays the cases
and compares every file byte for byte.

Regenerate only for a change that alters outputs on purpose, and record the
change in CHANGES.md:

    python tests/golden/regen.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
EXPECTED = HERE / "expected"
EXIT_CODES = "exit_codes.json"

COMMON = ["--no-timestamp", "--format", "both"]
GEN = ["--data", "gen.csv", "--schema", "gen-schema.json"]
HAND = ["--data", "hand.csv", "--schema", "hand-schema.json"]

# case name -> argv (COMMON is appended); insertion order is run order
CASES = {
    "synth": ["synth", "--n", "500", "--seed", "7", "--group-bias", "-0.8",
              "--data", "gen.csv", "--schema-out", "gen-schema.json", "--out", "synth.json"],
    "synth_target_di": ["synth", "--spec", "spec.json", "--n", "300", "--target-di", "0.7",
                        "--data", "gen-target.csv", "--schema-out", "gen-target-schema.json",
                        "--out", "synth-target.json"],
    "validate_gen": ["validate", *GEN, "--out", "validate-gen.json"],
    "validate_hand_stdout": ["validate", *HAND],
    "audit_gen": ["audit", *GEN, "--out", "audit-gen.json"],
    "audit_hand": ["audit", *HAND, "--level", "0.9", "--out", "audit-hand.json"],
    "audit_zero_cell": ["audit", "--data", "zero.csv", "--schema", "zero-schema.json",
                        "--out", "audit-zero.json"],
    "train_sensitive": ["train", *GEN, "--model", "model-s.json", "--include-sensitive",
                        "--replicates", "2", "--seed", "1", "--out", "train-s.json"],
    "train_outcome": ["train", *HAND, "--model", "model-hand.json", "--target", "outcome",
                      "--replicates", "2", "--seed", "2", "--out", "train-hand.json"],
    "fliptest": ["fliptest", *GEN, "--model", "model-s.json", "--out", "fliptest.json"],
    "fliptest_vacuous": ["fliptest", *HAND, "--model", "model-hand.json",
                         "--out", "fliptest-vacuous.json"],
    "audit_model": ["audit", *GEN, "--model", "model-s.json", "--out", "audit-model.json"],
    "repair": ["repair", *GEN, "--features", "x1,x2", "--lambda", "0.5", "--seed", "3",
               "--repaired-out", "repaired.csv", "--plan-out", "plan.json", "--out", "repair.json"],
    "repair_hand": ["repair", *HAND, "--features", "age,income",
                    "--repaired-out", "repaired-hand.csv", "--out", "repair-hand.json"],
    "explain": ["explain", *GEN, "--model", "model-s.json", "--row", "17", "--replicates", "2",
                "--samples", "200", "--out", "explain.json"],
    "explain_hand": ["explain", *HAND, "--model", "model-hand.json", "--row", "3",
                     "--replicates", "2", "--out", "explain-hand.json"],
}


def run_corpus(workdir: Path) -> dict[str, int]:
    """Copy the inputs into ``workdir``, run every case there, return exit codes."""
    from fairaudit.cli import main

    for src in INPUTS.iterdir():
        shutil.copy(src, workdir / src.name)
    codes: dict[str, int] = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for name, argv in CASES.items():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                codes[name] = main(argv + COMMON)
            if out.getvalue():
                Path(f"{name}.stdout").write_text(out.getvalue(), encoding="utf-8")
    finally:
        os.chdir(cwd)
    (workdir / EXIT_CODES).write_text(json.dumps(codes, indent=2) + "\n", encoding="utf-8")
    return codes


def outputs(workdir: Path) -> list[str]:
    """Names of the files a run left in ``workdir``, inputs excluded."""
    inputs = {p.name for p in INPUTS.iterdir()}
    return sorted(p.name for p in workdir.iterdir() if p.name not in inputs)


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        run_corpus(workdir)
        if EXPECTED.exists():
            shutil.rmtree(EXPECTED)
        EXPECTED.mkdir()
        for name in outputs(workdir):
            shutil.copy(workdir / name, EXPECTED / name)
    print(f"wrote {len(list(EXPECTED.iterdir()))} files to {EXPECTED}", file=sys.stderr)


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parents[1] / "src"))  # this checkout's package
    regenerate()
