"""Command-line front end.

Subcommands: validate, audit, train, fliptest, repair, explain, synth.
Reports are emitted as JSON (stable key order, full float precision) and
optionally Markdown; the Markdown is a rendering of the JSON report, so every
number it shows is present in the JSON. Exit codes are made for pipelines:

    0  success
    1  usage error
    2  data error
    3  audit completed and the four-fifths rule failed
"""

from __future__ import annotations

import argparse
import contextlib
import math
import re
import sys
from dataclasses import asdict, fields, replace
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .audit import flip_test
from .data import Dataset, json_text, load_csv, parse_schema, read_json, save_csv, split, validate, write_json
from .errors import DataError
from .explain import local_surrogate, permutation_importance
from .inference import di_ci_delta, disparate_impact_statistic, eo_ci_delta
from .metrics import (
    base_rates,
    confusion_gaps,
    contingency,
    disparity_metrics,
    eighty_percent_verdict,
    group_confusion,
)
from .model import (
    cross_validate,
    decide,
    load_model,
    predict_scores,
    save_model,
    target_mask,
    test_error,
    train_logistic,
)
from .repair import apply_repair, fit_repair, repair_distortion, save_plan
from .synth import SCHEMA, GeneratorSpec, generate, solve_group_bias, spec_from_dict

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_UNFAIR = 3


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # no prefix matching: "synth --schema x" must not overwrite x as --schema-out
        super().__init__(*args, allow_abbrev=False, **kwargs)
        # argparse reads only -1 and -.5 as negative numbers, so "--group-bias -1e-3" would want an
        # argument; every float spelling is a value here, and no option string starts this way
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    # argparse exits with code 2 on usage errors; the exit-code contract
    # reserves 2 for data errors, so remap. The error line comes first so that
    # stderr always starts with the program name.
    def error(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _ranged(cast, ok, wording: str):
    """argparse type: ``cast(text)`` where ``ok`` holds of it, or the message "must be <wording>"."""
    def parse(text: str):
        with contextlib.suppress(ValueError):
            if ok(value := cast(text)):
                return value
        raise argparse.ArgumentTypeError(f"must be {wording}, got {text!r}")
    return parse


_FRACTION = _ranged(float, lambda v: 0.0 < v < 1.0, "in (0, 1)")
_POSITIVE = _ranged(float, lambda v: v > 0.0, "> 0")


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        return format(v, ".6g")
    if v is None:
        return "undefined"
    return str(v)


def _markdown_lines(obj, indent: int = 0) -> list[str]:
    lines = []
    pad = "  " * indent
    if isinstance(obj, dict):
        for key, value in obj.items():
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{pad}- {key}:")
                lines.extend(_markdown_lines(value, indent + 1))
            else:
                rendered = "[]" if isinstance(value, list) else _fmt(value)
                lines.append(f"{pad}- {key}: {rendered}")
    elif all(not isinstance(v, (dict, list)) for v in obj):  # otherwise obj is a list, here of scalars
        lines.append(f"{pad}- " + ", ".join(_fmt(v) for v in obj))
    else:
        for v in obj:
            lines.extend(_markdown_lines(v, indent))
    return lines


def render_markdown(report: dict) -> str:
    lines = [f"# fairaudit report: {report.get('meta', {}).get('subcommand', '')}", ""]
    for section, content in report.items():
        lines.append(f"## {section}")
        lines.extend(_markdown_lines(content))
        lines.append("")
    return "\n".join(lines)


def _emit(report: dict, args) -> None:
    fmt = args.format
    if args.out is None:
        if fmt in ("json", "both"):
            sys.stdout.write(json_text(report))
        if fmt in ("md", "both"):
            sys.stdout.write(render_markdown(report))
        return
    out = Path(args.out)
    if fmt in ("json", "both"):
        write_json(report, out)
    if fmt in ("md", "both"):
        md_path = out if fmt == "md" else out.with_suffix(".md")
        md_path.write_text(render_markdown(report), encoding="utf-8")


def _meta(args, d: Dataset | None) -> dict:
    meta = {"tool": "fairaudit", "version": __version__, "subcommand": args.subcommand}
    if "seed" in args:
        meta["seed"] = args.seed
    if d is not None:
        s_name = d.sensitive_column
        meta["orientation"] = {
            "protected_modality": f"{s_name}={d.schema[s_name].protected}",
            "ratios": "protected / non-protected",
            "differences": "protected - non-protected",
        }
        if d.decision_column is not None:
            dec = d.decision_column
            meta["orientation"]["positive_decision"] = f"{dec}={d.schema[dec].positive}"
    if not args.no_timestamp:
        meta["timestamp"] = datetime.now(timezone.utc).isoformat()
    return meta


def _fields(obj, *drop: str, derived: tuple[str, ...] = ()) -> dict:
    """A result dataclass as a report section: its fields in declaration order, less the ``drop``
    names and less the fields left at their declared default, then the ``derived`` properties."""
    return {**{f.name: getattr(obj, f.name) for f in fields(obj)
               if f.name not in drop and getattr(obj, f.name) != f.default},
            **{name: getattr(obj, name) for name in derived}}


def _fliptest_section(ft, **extra) -> dict:
    return {
        "n": ft.n,
        **extra,
        "flips_to_positive": len(ft.to_positive),
        "flips_to_negative": len(ft.to_negative),
        "flip_rate": ft.flip_rate,
        "vacuous": ft.vacuous,
        "to_positive": ft.to_positive,
        "to_negative": ft.to_negative,
    }


# -- subcommands: each takes the loaded table (None for synth) and returns its sections --


def _cmd_validate(args, d: Dataset) -> dict:
    return {"dataset": validate(d)}


def _cmd_audit(args, d: Dataset) -> dict:
    report: dict = {"dataset": validate(d)}

    table = contingency(d)
    rates = base_rates(table)
    report["contingency"] = {**_fields(table, derived=("n1", "n2", "m1", "m2", "n")), **asdict(rates)}
    estimates = disparity_metrics(rates)
    report["metrics"] = {name: _fields(e, "name") for name, e in estimates.items()}

    intervals: dict = {}
    verdict: dict = {
        "rule_threshold": args.threshold,
        "point": eighty_percent_verdict(estimates["disparate_impact"], args.threshold),
    }
    with contextlib.suppress(DataError):  # too few rows for an interval: no interval verdict
        di_iv = di_ci_delta(table, args.level)
        intervals["disparate_impact"] = _fields(di_iv, "statistic")
        verdict["interval"] = eighty_percent_verdict(di_iv, args.threshold)

    pair = None
    if d.outcome_column is not None:
        pair = group_confusion(d)
        with contextlib.suppress(DataError):
            intervals["equal_opportunity_ratio"] = _fields(eo_ci_delta(pair, args.level), "statistic")
    if intervals:
        report["intervals"] = intervals
    report["verdict"] = verdict

    if pair is not None:
        derived = ("tpr", "fpr", "fnr", "ppv", "accuracy", "base_rate")
        report["confusion"] = {
            "protected": _fields(pair[0], derived=derived),
            "non_protected": _fields(pair[1], derived=derived),
            "gaps": {name: _fields(e, "name") for name, e in confusion_gaps(pair).items()},
        }

    if args.model is not None:
        ft = flip_test(load_model(args.model), d, args.decision_threshold)
        report["fliptest"] = _fliptest_section(ft)
    return report


def _cmd_train(args, d: Dataset) -> dict:
    train_d, holdout_d = split(d, args.test_fraction, args.seed)
    m = train_logistic(train_d, include_sensitive=args.include_sensitive, target=args.target)
    holdout = test_error(m, holdout_d, args.decision_threshold)
    report: dict = {
        "model": {
            "path": str(args.model),
            "target_column": m.target_column,
            "include_sensitive": args.include_sensitive,
            "converged": m.converged,
            "intercept": m.intercept,
            "weights": {name: float(w) for name, w in zip(m.encoding.feature_names, m.weights)},
        },
        "holdout_error": {"rate": holdout.rate, "test_fraction": args.test_fraction},
    }
    if args.replicates:
        cv = cross_validate(d, args.replicates, args.test_fraction, args.seed,
                            target=args.target, include_sensitive=args.include_sensitive,
                            threshold=args.decision_threshold)
        report["cv_error"] = _fields(cv, "scheme")
    save_model(m, args.model)  # after the holdout and CV, so that a refused row writes no model
    return report


def _cmd_fliptest(args, d: Dataset) -> dict:
    ft = flip_test(load_model(args.model), d, args.decision_threshold)
    return {"fliptest": _fliptest_section(ft, threshold=args.decision_threshold)}


def _model_decision_di(d: Dataset, seed: int, threshold: float) -> tuple[float, float]:
    """(decision DI, holdout error) of a freshly trained sensitive-blind baseline."""
    train_d, holdout_d = split(d, 0.3, seed)
    m = train_logistic(train_d, include_sensitive=False)
    decisions = decide(predict_scores(m, holdout_d), threshold)
    rates = base_rates(contingency(holdout_d, decisions))
    return rates.p1 / rates.p2, float((decisions != target_mask(m, holdout_d)).mean())


def _cmd_repair(args, d: Dataset) -> dict:
    features = [f.strip() for f in args.features.split(",") if f.strip()]
    plan = fit_repair(d, features)
    repaired = apply_repair(plan, d, args.lam)
    distortion = repair_distortion(d, repaired, features)
    report: dict = {
        "repair": {
            "lambda": args.lam,
            "features": features,
            "repaired_csv": args.repaired_out,
            "distortion": distortion,
        },
    }
    if d.decision_column is not None:
        di_before, err_before = _model_decision_di(d, args.seed, args.decision_threshold)
        di_after, err_after = _model_decision_di(repaired, args.seed, args.decision_threshold)
        report["repair"]["effect"] = {
            "dataset_decision_di": disparate_impact_statistic(d),
            "model_di_before": di_before,
            "model_di_after": di_after,
            "model_error_before": err_before,
            "model_error_after": err_after,
        }
    # after the effect's trainings, so that a refused table writes no file
    save_csv(repaired, args.repaired_out)
    if args.plan_out:
        save_plan(plan, args.plan_out)
    return report


def _cmd_explain(args, d: Dataset) -> dict:
    if args.row is None and (args.samples is not None or args.kernel_width is not None):
        raise DataError("--samples and --kernel-width apply only to the local surrogate of --row")
    m = load_model(args.model)
    pi = permutation_importance(m, d, threshold=args.decision_threshold,
                                repeats=args.replicates, seed=args.seed)
    report: dict = {"explain": {"permutation_importance": asdict(pi)}}
    if args.row is not None:
        ls = local_surrogate(m, args.row, d, n_samples=args.samples or 1000, kernel_width=args.kernel_width,
                             seed=args.seed)
        report["explain"]["local_surrogate"] = asdict(ls)
    return report


def _cmd_synth(args, _d: None) -> dict:
    def spec_of(base) -> GeneratorSpec:
        if not isinstance(base, dict):
            raise DataError("generator spec must be a JSON object")
        return spec_from_dict({"n": 1000, "seed": 0, **base})

    # a spec file is checked on its own, so that its errors name it; flags override it
    spec = read_json(args.spec, "generator spec", spec_of) if args.spec else spec_of({})
    flags = {"n": args.n, "seed": args.seed, "protected_fraction": args.protected_fraction,
             "group_bias": args.group_bias}
    spec = replace(spec, **{k: v for k, v in flags.items() if v is not None})
    args.seed = spec.seed  # the report's meta names the seed the table was drawn with
    if args.target_di is not None:
        spec = replace(spec, group_bias=solve_group_bias(spec, args.target_di))
    d, true_di = generate(spec)
    save_csv(d, args.data)
    if args.schema_out:
        write_json(SCHEMA, args.schema_out)
    return {
        "synth": {
            "spec": asdict(spec),
            "true_di": true_di,
            "empirical_di": disparate_impact_statistic(d),
            "data_csv": str(args.data),
        },
    }


# -- argument wiring -------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="fairaudit", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"fairaudit {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser, model: bool = False, schema: bool = True,
               threshold: str | None = "--threshold", seeded: bool = True) -> None:
        p.add_argument("--data", required=True, help="CSV file path")
        if schema:
            p.add_argument("--schema", required=True, help="JSON role-declaration path")
        p.add_argument("--out", help="report path (JSON; Markdown derived)")
        p.add_argument("--format", choices=("json", "md", "both"), default="json")
        if seeded:  # only a subcommand that draws takes a seed
            p.add_argument("--seed", type=int, default=None)
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit the timestamp for byte-stable reports")
        if threshold:
            p.add_argument(threshold, dest="decision_threshold", type=_FRACTION, default=0.5,
                           help="decision threshold on model scores")
        if model:
            p.add_argument("--model", required=True, help="model JSON path")
        p.set_defaults(outputs=("out",))  # the flags naming files the subcommand writes

    p = sub.add_parser("validate", help="data report: roles, missing cells, group sizes")
    common(p, threshold=None, seeded=False)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("audit", help="disparity metrics, intervals, four-fifths verdict")
    common(p, threshold="--decision-threshold", seeded=False)
    p.add_argument("--model", help="model JSON path for the flip-test section")
    p.add_argument("--level", type=_FRACTION, default=0.95, help="confidence level")
    p.add_argument("--threshold", type=_ranged(float, lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
                   default=0.8, help="four-fifths rule threshold")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("train", help="fit and serialize the baseline model")
    common(p, model=True)
    p.add_argument("--include-sensitive", action="store_true")
    p.add_argument("--test-fraction", type=_FRACTION, default=0.3)
    p.add_argument("--replicates", default=10, help="cross-validation replicates, 0 or >= 2",
                   type=_ranged(int, lambda v: v == 0 or v >= 2, "0 (no cross-validation) or at least 2"))
    p.add_argument("--target", choices=("auto", "decision", "outcome"), default="auto")
    p.set_defaults(func=_cmd_train, outputs=("model", "out"), seed=0)

    p = sub.add_parser("fliptest", help="flip-test a serialized model")
    common(p, model=True, seeded=False)
    p.set_defaults(func=_cmd_fliptest)

    p = sub.add_parser("repair", help="fit/apply quantile repair, write repaired CSV")
    common(p)
    p.add_argument("--features", required=True,
                   help="comma-separated numeric features to repair")
    p.add_argument("--lambda", dest="lam", type=_ranged(float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
                   default=1.0)
    p.add_argument("--repaired-out", default="repaired.csv", help="repaired CSV path (default %(default)s)")
    p.add_argument("--plan-out", help="optional path to serialize the repair plan")
    p.set_defaults(func=_cmd_repair, outputs=("repaired_out", "plan_out", "out"), seed=0)

    p = sub.add_parser("explain", help="permutation importance and local surrogate")
    common(p, model=True)
    p.add_argument("--row", type=_ranged(int, lambda v: v >= 0, "an integer >= 0"),
                   help="row index for the local surrogate")
    p.add_argument("--replicates", type=_ranged(int, lambda v: v >= 1, "an integer >= 1"), default=10,
                   help="permutation repeats")
    # at least 10 per numeric feature the model reads, and it reads one or more
    p.add_argument("--samples", type=_ranged(int, lambda v: v >= 10, "an integer >= 10"), default=None,
                   help="surrogate perturbations (default 1000; needs --row)")
    p.add_argument("--kernel-width", type=_POSITIVE, default=None,
                   help="surrogate kernel width (needs --row)")
    p.set_defaults(func=_cmd_explain, seed=0)

    p = sub.add_parser("synth", help="generate synthetic data with known disparity")
    common(p, schema=False, threshold=None)
    p.add_argument("--n", type=_ranged(int, lambda v: v >= 1, "an integer >= 1"), default=None)
    p.add_argument("--protected-fraction", type=_FRACTION, default=None)
    p.add_argument("--group-bias", type=_ranged(float, math.isfinite, "a finite number"), default=None)
    p.add_argument("--target-di", type=_POSITIVE, default=None,
                   help="solve the group bias so the exact DI hits this value")
    p.add_argument("--spec", help="generator spec JSON; explicit flags override it")
    p.add_argument("--schema-out", help="write the matching schema JSON here")
    p.set_defaults(func=_cmd_synth, outputs=("data", "schema_out", "out"))

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        # fail before any work, so that no write fails after another has been made
        for path in filter(None, (getattr(args, dest) for dest in args.outputs)):
            if not Path(path).parent.is_dir():
                raise DataError(f"no directory for output file: {path}")
        d = load_csv(args.data, parse_schema(read_json(args.schema, "schema"))) if "schema" in args else None
        sections = args.func(args, d)
        # meta leads the report but is built after the work, so its timestamp marks completion
        report = {"meta": _meta(args, d), **sections}
        _emit(report, args)
        return EXIT_UNFAIR if report.get("verdict", {}).get("point") == "fail" else EXIT_OK
    except (DataError, ValueError, OSError) as e:
        # OSError: an input that cannot be read or an output that cannot be written
        print(f"fairaudit: data error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
