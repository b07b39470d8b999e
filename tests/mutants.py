"""Mutation probe: does the suite notice a small, deliberate fault in src/?

Each mutant replaces one piece of text in one file of ``src/fairaudit``. For
every mutant the script copies ``src/`` and ``tests/`` into a temporary
directory, applies the mutant there, and runs ``pytest -x -q`` on the copy. A
failing run kills the mutant; a passing run means it survived. Mutants marked
``equivalent`` cannot change any outcome, and are expected to survive.

Run from anywhere, with the same interpreter as the test suite:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only the named ones

It prints one line per mutant and then the kill ratio over the mutants that
are not equivalent, and exits 1 if any mutant ends other than expected (or
its text no longer occurs exactly once). It uses only the standard library,
and pytest does not collect it. Each run of the suite takes up to about 30 s.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

KILLED, EQUIVALENT = "killed", "equivalent"

# (name, file under src/fairaudit, old text, new text, expected status)
MUTANTS = [
    ("verdict-lo-strict", "metrics.py",
     "if lo >= threshold:", "if lo > threshold:", KILLED),
    ("gap-ratio-rule-on-differences", "metrics.py",
     "(ratio and y == 0)", "(y == 0)", KILLED),
    ("fields-keeps-defaults", "cli.py",
     "if f.name not in drop and getattr(obj, f.name) != f.default}", "if f.name not in drop}", KILLED),
    ("model-file-accepts-zero-sd", "model.py",
     "0.0 < v.sd < math.inf", "0.0 <= v.sd < math.inf", KILLED),
    ("model-file-accepts-nested-weights", "model.py",
     "if weights.ndim != 1:", "if weights.ndim > 2:", KILLED),
    ("spec-accepts-bool-n", "synth.py",
     "isinstance(v, int) and not isinstance(v, bool)", "isinstance(v, int)", KILLED),
    ("target-di-accepts-nan", "synth.py",
     "if not target_di > 0:", "if target_di <= 0:", KILLED),
    ("spec-accepts-short-pairs", "synth.py",
     "if any(len(pair) != 2 for pair in pairs):", "if any(len(pair) > 2 for pair in pairs):", KILLED),
    ("bootstrap-failure-bound-20pct", "inference.py",
     "if failures > 0.10 * B:", "if failures > 0.20 * B:", KILLED),
    ("repair-clamp-counts-lower-edge", "repair.py",
     "(x < qmap.values[0])", "(x <= qmap.values[0])", KILLED),
    ("encode-counts-missing-as-unknown", "model.py",
     '| (values == "")', "", KILLED),
    ("newton-always-converged", "model.py",
     "return params, float(np.max(np.abs(grad))) < TOL", "return params, True", KILLED),
    ("model-file-target-default", "model.py",
     'obj["config"].get("target", "auto")', 'obj["config"].get("target", "decision")', KILLED),
    ("read-json-lets-attribute-error-out", "data.py",
     "except (AttributeError, KeyError, TypeError, ValueError, DataError)",
     "except (KeyError, TypeError, ValueError, DataError)", KILLED),
    ("load-plan-unwrapped", "repair.py",
     'return read_json(path, "repair plan", plan_from_dict)',
     'return plan_from_dict(read_json(path, "repair plan"))', KILLED),
    ("eo-interval-one-outcome-positive", "inference.py",
     "if m1 < 2 or m2 < 2:", "if m1 < 1 or m2 < 2:", KILLED),
    ("log-ratio-accepts-zero-p2", "inference.py",
     "if not (0.0 < p1 and 0.0 < p2):", "if not 0.0 < p1:", KILLED),
    ("split-group-clamp-takes-whole-group", "data.py",
     "counts[i] = max(1, min(len(g) - 1, counts[i] + test_size - sum(counts)))",
     "counts[i] = max(1, min(len(g), counts[i] + test_size - sum(counts)))", KILLED),
    ("auc-ties-count-zero", "metrics.py",
     'np.searchsorted(neg, hits, "right")', 'np.searchsorted(neg, hits, "left")', KILLED),
    ("auc-outcomes-unchecked", "metrics.py",
     '    if not np.array_equal(pos, y):\n        raise DataError("outcomes must be boolean or 0/1")\n', "", KILLED),
    ("bootstrap-level-unchecked", "inference.py",
     "    IntervalEstimate.check_level(level)\n    if isinstance(B, bool)", "    if isinstance(B, bool)", KILLED),
    ("eo-pack-shift-31", "inference.py",
     "+ (outcome << 32)", "+ (outcome << 31)", KILLED),
    ("eo-unpack-mask-33-bits", "inference.py",
     "(sums & 0xFFFFFFFF)", "(sums & 0x1FFFFFFFF)", KILLED),
    ("bootstrap-group-cut-off-by-one", "inference.py",
     "[0, sizes[0]], axis=1)", "[0, sizes[0] - 1], axis=1)", KILLED),
    ("resample-offsets-dropped", "rng.py",
     "        block += offsets\n", "", KILLED),
    ("surrogate-slope-unscaled", "explain.py",
     "slopes = beta[1:] / sds", "slopes = beta[1:]", KILLED),
    ("surrogate-intercept-not-moved", "explain.py",
     "intercept = beta[0] - slopes @ (base[positions] * sds + means)", "intercept = beta[0]", KILLED),
    ("surrogate-rank-check-dropped", "explain.py",
     "if rank < A.shape[1]:", "if False:", KILLED),
    ("surrogate-raw-finiteness-dropped", "explain.py",
     "if not np.all(np.isfinite(np.append(slopes, intercept))):", "if False:", KILLED),
    ("meta-after-sections", "cli.py",
     'report = {"meta": _meta(args, d), **sections}', 'report = {**sections, "meta": _meta(args, d)}', KILLED),
    ("exit-unfair-never-matches", "cli.py",
     '.get("point") == "fail"', '.get("point") == "failed"', KILLED),
    ("synth-meta-without-spec-seed", "cli.py",
     "args.seed = spec.seed", "args.seed = args.seed", KILLED),
    ("explain-flags-accepted-without-row", "cli.py",
     "if args.row is None and (args.samples is not None or args.kernel_width is not None):",
     "if False:", KILLED),
    ("infinite-cells-accepted", "model.py",
     "if np.isinf(values).any():", "if False:", KILLED),
    ("repair-infinite-cells-accepted", "repair.py",
     "if np.isinf(d.values(name)).any():", "if False:", KILLED),
    ("repair-plan-labels-unchecked", "repair.py",
     "if labels[0] != plan.labels[0] or labels[1] not in plan.labels:", "if False:", KILLED),
    ("encode-non-finite-accepted", "model.py",
     "if not np.isfinite(z).all():", "if False:", KILLED),
    ("normal-quantile-nan-accepted", "inference.py",
     "if not 0.0 < p < 1.0:", "if p <= 0.0 or p >= 1.0:", KILLED),
    ("plan-sizes-unchecked", "repair.py",
     "if not isinstance(size, int) or isinstance(size, bool) or any(size < pair[i].size for pair in maps.values()):",
     "if False:", KILLED),
    ("quantile-map-accepts-infinite", "repair.py",
     "if not np.isfinite(v).all() or", "if np.isnan(v).any() or", KILLED),
    ("group-count-rows-swapped", "metrics.py",
     "code + k * ~d.protected_mask()", "code + k * d.protected_mask()", KILLED),
    ("confusion-code-weights-swapped", "metrics.py",
     "2 * decision + outcome", "decision + 2 * outcome", KILLED),
    ("correction-needs-both-zero-cells", "metrics.py",
     "corrected = (a == 0) | (c == 0)", "corrected = (a == 0) & (c == 0)", KILLED),
    # the one block map places every design-matrix column, the flip test's indicator among them
    ("flip-indicator-off-by-one", "model.py",
     "blocks[col] = slice(stop, stop + width)", "blocks[col] = slice(stop + 1, stop + 1 + width)", KILLED),
    ("flip-not-applied", "audit.py",
     "flipped[:, j] = 1.0 - X[:, j]", "flipped[:, j] = X[:, j]", KILLED),
    ("flip-sensitive-column-unchecked", "audit.py",
     "if s.name != d.sensitive_column:", "if False:", KILLED),
    ("flip-protected-label-unchecked", "audit.py",
     "if not (d.values(s.name) == s.protected).any() and len(labels := list(d.modality_counts(s.name))) == 2:",
     "if False:", KILLED),
    ("model-file-kind-twice-accepted", "model.py",
     "if twice := sorted({c for c in specs if specs.count(c) > 1}):", "if twice := []:", KILLED),
    ("model-file-source-order-unchecked", "model.py",
     "if sorted(self.source_order) != sorted(specs):", "if False:", KILLED),
    ("schema-misplaced-key-accepted", "data.py",
     "if value is not None and self.kind not in kinds:", "if False:", KILLED),
    ("plan-repeated-feature-accepted", "repair.py",
     "if repeated := sorted({name for name in self.features if self.features.count(name) > 1}):",
     "if repeated := []:", KILLED),
    ("synth-one-group-accepted", "synth.py",
     "if protected.all() or not protected.any():", "if False:", KILLED),
    ("csv-nul-unchecked", "data.py",
     'if "\\x00" in "".join(lines):', "if False:", KILLED),
    ("csv-empty-numeric-cell-zero", "data.py",
     'np.where(col == b"", b"nan", col)', 'np.where(col == b"", b"0", col)', KILLED),
    ("csv-width-bound-unchecked", "data.py",
     "if max(widths, default=0) >= 32:", "if False:", KILLED),
    ("csv-width-one-short", "data.py",
     "    return lo\n", "    return max(lo - 1, 0)\n", KILLED),
    ("csv-field-limit-unchecked", "data.py",
     "if col.dtype == object and max(map(len, col)) >= csv.field_size_limit():", "if False:", KILLED),
    ("csv-warned-chunk-kept", "data.py",
     'warnings.simplefilter("error", UserWarning)', 'warnings.simplefilter("ignore", UserWarning)', KILLED),
    # the csv module's route: a ragged record read whole, an empty numeric cell read as 0
    ("csv-module-field-count-unchecked", "data.py",
     "if len(row) != len(header):", "if False:", KILLED),
    ("csv-module-empty-numeric-cell-zero", "data.py",
     "row[j] = float(row[j]) if row[j] else np.nan", "row[j] = float(row[j]) if row[j] else 0.0", KILLED),
    ("csv-write-cr-unquoted", "data.py",
     """'"' in text or "\\r" in text""", """'"' in text""", KILLED),
    ("contingency-refuses-one-row", "metrics.py",
     "if self.n < 1:", "if self.n <= 1:", KILLED),
    ("rates-accept-p1-0", "metrics.py",
     "0.0 < r.p1 < 1.0", "0.0 <= r.p1 < 1.0", KILLED),
    ("rates-accept-p2-0", "metrics.py",
     "0.0 < r.p2 < 1.0", "0.0 <= r.p2 < 1.0", KILLED),
    ("verdict-accepts-threshold-0", "metrics.py",
     "if not 0.0 < threshold <= 1.0:", "if not 0.0 <= threshold <= 1.0:", KILLED),
    ("di-interval-refuses-2-protected-rows", "inference.py",
     "if t.n1 < 2 or t.n2 < 2:", "if t.n1 <= 2 or t.n2 < 2:", KILLED),
    ("di-interval-refuses-2-other-rows", "inference.py",
     "if t.n1 < 2 or t.n2 < 2:", "if t.n1 < 2 or t.n2 <= 2:", KILLED),
    ("kernel-width-nan-accepted", "cli.py",
     'lambda v: v > 0.0, "> 0"', 'lambda v: not v <= 0.0, "> 0"', KILLED),
    ("lambda-range-unchecked", "cli.py",
     'type=_ranged(float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")', "type=float", KILLED),
    ("newton-undamped", "model.py",
     "if new_loss <= loss:", "if True:", KILLED),
    ("split-fraction-accepts-0", "data.py",
     "if not 0.0 < test_fraction < 1.0:", "if not 0.0 <= test_fraction < 1.0:", KILLED),
    ("split-fraction-accepts-1", "data.py",
     "if not 0.0 < test_fraction < 1.0:", "if not 0.0 < test_fraction <= 1.0:", KILLED),
    ("cross-validate-accepts-1-replicate", "model.py",
     "if replicates < 2:", "if replicates < 1:", KILLED),
    # the same labels and counts, but the labels from np.unique without counts
    ("check-roles-imports-numpy-ma", "data.py",
     "np.unique(self.values(name), return_counts=True)",
     "np.unique(self.values(name)), np.bincount(np.unique(self.values(name), return_inverse=True)[1])", KILLED),
    ("negative-exponent-read-as-option", "cli.py",
     'self._negative_number_matcher = re.compile(r"-(\\.?\\d|inf|nan)", re.IGNORECASE)', "pass", KILLED),
    ("group-bias-infinite-accepted", "cli.py",
     'type=_ranged(float, math.isfinite, "a finite number")', "type=float", KILLED),
    # modality counts in order of first appearance: the row-order relation of tests/test_cli.py sees it
    ("validate-modalities-in-row-order", "data.py",
     'entry["modalities"] = d.modality_counts(name)',
     'entry["modalities"] = {v: d.modality_counts(name)[v] for v in dict.fromkeys(d.values(name).tolist())}',
     KILLED),
    ("with-values-skips-binary-check", "data.py",
     "            out._binary_counts(name)\n", "            pass\n", KILLED),
    ("feature-name-clash-accepted", "model.py",
     "if clash := sorted({f for f in names if names.count(f) > 1}):", "if clash := []:", KILLED),
    # The total test size needs no clamp of its own: the per-group clamps bound
    # every count (tests/test_data.py checks every table with n <= 36).
    ("split-total-clamp-restored", "data.py",
     "test_size = int(round(d.n * test_fraction))",
     "test_size = max(1, min(d.n - 1, int(round(d.n * test_fraction))))", EQUIVALENT),
]


def run_mutant(file: str, old: str, new: str) -> str:
    """Status of one mutant: killed, survived, or stale when its text is gone."""
    with tempfile.TemporaryDirectory(prefix="fairaudit-mutant-") as tmp:
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tmp) / part, ignore=ignore)
        target = Path(tmp) / "src" / "fairaudit" / file
        text = target.read_text(encoding="utf-8")
        if text.count(old) != 1:
            return "stale"
        target.write_text(text.replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"), PYTHONDONTWRITEBYTECODE="1")
        run = subprocess.run(  # test_mutants.py checks the unmutated texts, so it would kill every mutant
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--ignore", "tests/test_mutants.py", "tests"],
            cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        return "survived" if run.returncode == 0 else KILLED


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    killed = counted = 0
    unexpected = []
    for name, file, old, new, expected in chosen:
        status = run_mutant(file, old, new)
        expected_status = "survived" if expected == EQUIVALENT else KILLED
        if status != expected_status:
            unexpected.append(name)
        if expected != EQUIVALENT:
            counted += 1
            killed += status == KILLED
        mark = "" if status == expected_status else "  <- unexpected"
        print(f"{name:40s} {file:14s} {status:9s} (expected {expected}){mark}", flush=True)
    print(f"kill ratio: {killed}/{counted} non-equivalent mutants killed")
    if unexpected:
        print(f"unexpected: {', '.join(unexpected)}")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
