"""Command-line interface: estimate, elasticities, split-test, temporal-test,
partition, simulate, summarize.

Reports go to --out (written atomically) or stdout. Structured output
(--format records) is JSON lines, one self-describing record per result
object, with the fully resolved configuration echoed as the first record.
Exit codes: 0 success, 2 config error, 3 ingestion error, 4 non-convergence,
5 non-identification, 1 anything else.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__, report
from ._kernels import active_backend
# partition is not called here, but perfbench/tracing.py patches it in this namespace
from .data import Dataset, partition, summarize  # noqa: F401
from .errors import ConfigError, SevlogitError
from .estimate import EstimateOptions, estimate
from .inference import (
    DEFAULT_SIGNIFICANCE_T,
    PartitionReport,
    elasticity_report,
    evaluate_partition,
    lr_temporal_test,
)
from .io import ingest_csv, load_generator_config, load_model_spec, write_csv, write_text_atomic
from .simulate import RNG_ALGORITHM, simulate


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sevlogit",
        description="Multinomial-logit injury-severity models: estimation, "
        "elasticities, and likelihood-ratio segmentation tests.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model=True):
        p.add_argument("--data", required=True, help="input CSV file")
        if model:
            p.add_argument("--model", required=True, help="model-spec JSON file")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("table", "records"), default="table")
        p.add_argument("--tol", type=float, default=1e-6, help="gradient max-norm tolerance")
        p.add_argument("--max-iter", type=int, default=200, help="Newton iteration cap")

    p = sub.add_parser("estimate", help="fit one model on one dataset")
    common(p)
    p.set_defaults(handler=_cmd_estimate)

    p = sub.add_parser("elasticities", help="fit a model and report elasticities")
    common(p)
    p.add_argument("--sig-threshold", type=float, default=DEFAULT_SIGNIFICANCE_T)
    p.add_argument("--aggregation", choices=("mean", "prob-weighted"), default="mean")
    p.set_defaults(handler=_cmd_elasticities)

    p = sub.add_parser("split-test", help="likelihood-ratio test for splitting by segment")
    common(p)
    p.add_argument("--by", required=True, help="comma list of road_class,location,accident_type,period")
    p.set_defaults(handler=_cmd_split_test)

    p = sub.add_parser("temporal-test", help="likelihood-ratio test for pooling two periods")
    common(p)
    p.add_argument("--period-a", help="first period label (default: inferred)")
    p.add_argument("--period-b", help="second period label (default: inferred)")
    p.set_defaults(handler=_cmd_temporal_test)

    p = sub.add_parser("partition", help="estimate pooled and per-cell models, test the split")
    common(p)
    p.add_argument("--by", required=True, help="comma list of partition dimensions")
    p.add_argument("--min-cell-size", type=int, help="minimum observations per cell (default 30*K)")
    p.add_argument("--confidence", type=float, default=0.95, help="headline decision level")
    p.set_defaults(handler=_cmd_partition)

    p = sub.add_parser("simulate", help="draw a synthetic dataset from a generator config")
    p.add_argument("--config", required=True, help="generator-config JSON file")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--period", help="period label stamped on every observation")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("summarize", help="severity distribution by speed-limit band")
    p.add_argument("--data", required=True, help="input CSV file")
    p.add_argument("--bins", required=True, help="comma list of increasing interior band edges")
    p.add_argument("--speed-var", default="speed_limit", help="speed-limit column name")
    p.add_argument("--outcomes", help="comma list of outcome labels, base first")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=("table", "records"), default="table")
    p.set_defaults(handler=_cmd_summarize)

    return parser


def _check_inputs(*paths) -> None:
    for path in paths:
        if path is None:
            continue
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"input file not found: {p}")


def _options(args) -> EstimateOptions:
    return EstimateOptions(gradient_tol=args.tol, max_iterations=args.max_iter)


def _emit(args, text: str) -> None:
    if args.out:
        write_text_atomic(args.out, text)
    else:
        sys.stdout.write(text)


def _config_dict(args, command: str, **extra) -> dict:
    resolved = {
        "version": __version__,
        "backend": active_backend(),
        "data": getattr(args, "data", None),
        "model": getattr(args, "model", None),
        "format": getattr(args, "format", None),
        "gradient_tol": getattr(args, "tol", None),
        "max_iterations": getattr(args, "max_iter", None),
    }
    resolved.update(extra)
    return report.run_config_record(command, {k: v for k, v in resolved.items() if v is not None})


def _config_header(record: dict) -> str:
    pairs = [f"{k}={record[k]}" for k in sorted(record) if k != "record"]
    return "# " + " ".join(pairs) + "\n\n"


def _cmd_estimate(args) -> int:
    _check_inputs(args.data, args.model)
    model = load_model_spec(args.model)
    dataset = ingest_csv(args.data, model.outcome_set)
    result = estimate(model, dataset, _options(args))
    config = _config_dict(args, "estimate")
    if args.format == "records":
        text = report.records_to_text([config, report.estimation_record(result)])
    else:
        text = _config_header(config) + report.render_estimation(result)
    _emit(args, text)
    return 0


def _cmd_elasticities(args) -> int:
    _check_inputs(args.data, args.model)
    model = load_model_spec(args.model)
    dataset = ingest_csv(args.data, model.outcome_set)
    result = estimate(model, dataset, _options(args))
    rep = elasticity_report(
        model, result, dataset, threshold=args.sig_threshold, aggregation=args.aggregation
    )
    config = _config_dict(
        args, "elasticities", sig_threshold=args.sig_threshold, aggregation=args.aggregation
    )
    if args.format == "records":
        text = report.records_to_text(
            [config, report.estimation_record(result), report.elasticity_record(rep)]
        )
    else:
        text = _config_header(config) + report.render_elasticity(rep)
    _emit(args, text)
    return 0


def _parse_dims(raw: str) -> tuple[str, ...]:
    dims = tuple(d.strip() for d in raw.split(",") if d.strip())
    if not dims:
        raise ConfigError("--by must name at least one dimension")
    return dims


def _fit_cells(args, model, dataset, dims) -> PartitionReport:
    """Pooled and per-cell fits over every non-empty cell; a failed fit raises its own error."""
    rep = evaluate_partition(model, dataset, dims, _options(args), min_cell_size=1)
    if not rep.cells:
        raise ConfigError(f"splitting by {{{', '.join(dims)}}} produces 1 cell(s); need at least 2")
    for cell in rep.cells:
        if cell.error is not None:
            raise cell.error
    return rep


def _cmd_split_test(args) -> int:
    _check_inputs(args.data, args.model)
    model = load_model_spec(args.model)
    dataset = ingest_csv(args.data, model.outcome_set)
    dims = _parse_dims(args.by)
    rep = _fit_cells(args, model, dataset, dims)
    records = [report.estimation_record(rep.pooled, label="pooled")]
    for cell in rep.cells:
        label = ", ".join(str(v) for v in cell.key)
        records.append(report.estimation_record(cell.result, label=label))
    config = _config_dict(args, "split-test", by=",".join(dims))
    if args.format == "records":
        text = report.records_to_text([config, *records, report.lr_record(rep.test, "split")])
    else:
        text = _config_header(config) + report.render_lr(rep.test, "split")
    _emit(args, text)
    return 0


def _cmd_temporal_test(args) -> int:
    _check_inputs(args.data, args.model)
    model = load_model_spec(args.model)
    dataset = ingest_csv(args.data, model.outcome_set)

    periods = sorted({o.period for o in dataset.observations if o.period is not None})
    label_a, label_b = args.period_a, args.period_b
    if label_a is None and label_b is None:
        if len(periods) != 2:
            raise ConfigError(
                f"temporal test needs exactly two periods in the data, found {periods}; "
                "use --period-a/--period-b to select"
            )
        label_a, label_b = periods
    elif label_a is None or label_b is None:
        raise ConfigError("give both --period-a and --period-b, or neither")
    for label in (label_a, label_b):
        if label not in periods:
            raise ConfigError(f"period {label!r} not present in the data (found {periods})")

    rows = tuple(o for o in dataset.observations if o.period in (label_a, label_b))
    both = Dataset(dataset.outcome_set, rows, dataset.variable_names)
    rep = _fit_cells(args, model, both, ("period",))
    fits = {cell.key: cell.result for cell in rep.cells}
    fit_all, fit_a, fit_b = rep.pooled, fits[(label_a,)], fits[(label_b,)]
    test = lr_temporal_test(
        fit_all.ll_converged,
        fit_a.ll_converged,
        fit_b.ll_converged,
        fit_all.n_params,
        fit_a.n_params,
        fit_b.n_params,
    )
    config = _config_dict(args, "temporal-test", period_a=label_a, period_b=label_b)
    if args.format == "records":
        text = report.records_to_text(
            [
                config,
                report.estimation_record(fit_all, label="combined"),
                report.estimation_record(fit_a, label=label_a),
                report.estimation_record(fit_b, label=label_b),
                report.lr_record(test, "temporal"),
            ]
        )
    else:
        text = _config_header(config) + report.render_lr(test, "temporal")
    _emit(args, text)
    return 0


def _cmd_partition(args) -> int:
    _check_inputs(args.data, args.model)
    model = load_model_spec(args.model)
    dataset = ingest_csv(args.data, model.outcome_set)
    dims = _parse_dims(args.by)
    rep = evaluate_partition(
        model, dataset, dims, options=_options(args), min_cell_size=args.min_cell_size
    )
    config = _config_dict(
        args,
        "partition",
        by=",".join(dims),
        min_cell_size=rep.min_cell_size,
        confidence=args.confidence,
    )
    if args.format == "records":
        text = report.records_to_text([config, report.partition_record(rep, args.confidence)])
    else:
        text = _config_header(config) + report.render_partition(rep, args.confidence)
    _emit(args, text)
    return 0


def _cmd_simulate(args) -> int:
    _check_inputs(args.config)
    config, period = load_generator_config(args.config)
    if args.seed is not None:
        from dataclasses import replace

        config = replace(config, seed=args.seed)
    if args.period is not None:
        period = args.period
    dataset = simulate(config)
    if period is not None:
        dataset = dataset.with_period(period)
    note = f"generator: numpy {RNG_ALGORITHM}, seed={config.seed}"
    write_csv(dataset, args.out, note=note)
    counts = dataset.outcome_counts()
    shares = ", ".join(
        f"{lab}={counts[i] / dataset.n_obs:.4f}"
        for i, lab in enumerate(dataset.outcome_set.labels)
    )
    sys.stdout.write(
        f"wrote {dataset.n_obs} observations to {args.out} "
        f"({RNG_ALGORITHM} seed {config.seed}; shares: {shares})\n"
    )
    return 0


def _cmd_summarize(args) -> int:
    _check_inputs(args.data)
    outcome_set = None
    if args.outcomes:
        from .data import OutcomeSet

        outcome_set = OutcomeSet(tuple(s.strip() for s in args.outcomes.split(",")))
    dataset = ingest_csv(args.data, outcome_set)
    try:
        bins = [float(b) for b in args.bins.split(",") if b.strip()]
    except ValueError:
        raise ConfigError(f"--bins must be a comma list of numbers, got {args.bins!r}") from None
    table = summarize(dataset, bins, variable=args.speed_var)
    config = _config_dict(
        args, "summarize", bins=args.bins, speed_var=args.speed_var
    )
    if args.format == "records":
        text = report.records_to_text([config, report.summary_record(table)])
    else:
        text = _config_header(config) + report.render_summary(table)
    _emit(args, text)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.handler(args)
    except SevlogitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
