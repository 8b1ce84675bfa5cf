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
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import __version__, report
from ._kernels import active_backend
# partition is not called here, but perfbench/tracing.py patches it in this namespace
from .data import OutcomeSet, bin_edges, partition, partition_dims, summarize  # noqa: F401
from .errors import ConfigError, SevlogitError
from .estimate import EstimateOptions, estimate
from .inference import (
    AGGREGATIONS,
    DEFAULT_SIGNIFICANCE_T,
    ElasticityOptions,
    PartitionOptions,
    PartitionReport,
    elasticity_report,
    evaluate_partition,
    lr_temporal_test,
)
from .io import ingest_csv, load_generator_config, load_model_spec, write_csv, write_text_atomic
from .simulate import RNG_ALGORITHM, generator_seed, simulate


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sevlogit",
        description="Multinomial-logit injury-severity models: estimation, "
        "elasticities, and likelihood-ratio segmentation tests.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--data", required=True, help="input CSV file")
        p.add_argument("--model", required=True, help="model-spec JSON file")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("table", "records"), default="table")
        p.add_argument("--tol", type=float, default=EstimateOptions.gradient_tol,
                       help="gradient max-norm tolerance (> 0)")
        p.add_argument("--max-iter", type=int, default=EstimateOptions.max_iterations,
                       help="Newton iteration cap (>= 1)")

    p = sub.add_parser("estimate", help="fit one model on one dataset")
    common(p)
    p.set_defaults(handler=_cmd_estimate)

    p = sub.add_parser("elasticities", help="fit a model and report elasticities")
    common(p)
    p.add_argument("--sig-threshold", type=float, default=DEFAULT_SIGNIFICANCE_T,
                   help="|t| above which a cell's elasticity is shown (finite, >= 0)")
    p.add_argument("--aggregation", choices=AGGREGATIONS, default="mean")
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
    p.add_argument("--min-cell-size", type=int, help="minimum cell size, >= 1 (default 30*K)")
    p.add_argument("--confidence", type=float, default=0.95, help="headline decision level in (0, 1)")
    p.set_defaults(handler=_cmd_partition)

    p = sub.add_parser("simulate", help="draw a synthetic dataset from a generator config")
    p.add_argument("--config", required=True, help="generator-config JSON file")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--period", help="period label stamped on every observation")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("summarize", help="severity distribution by speed-limit band")
    p.add_argument("--data", required=True, help="input CSV file")
    p.add_argument("--bins", required=True, help="comma list of finite, increasing interior edges")
    p.add_argument("--speed-var", default="speed_limit", help="speed-limit column name")
    p.add_argument("--outcomes", help="comma list of outcome labels, base first")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=("table", "records"), default="table")
    p.set_defaults(handler=_cmd_summarize)

    return parser


def _check_inputs(*paths) -> None:
    for path in map(Path, paths):
        if not path.is_file():
            raise ConfigError(f"input file not found: {path}")


def _check_out(out) -> None:
    """Refuse an --out that is a directory or whose nearest existing ancestor is not a
    writable directory."""
    path = Path(out).absolute()
    if path.is_dir():
        raise ConfigError(f"cannot write {out} (it is a directory)")
    ancestor = next(parent for parent in path.parents if parent.exists())
    if not (ancestor.is_dir() and os.access(ancestor, os.W_OK)):
        raise ConfigError(f"cannot write {out} ({ancestor} is not a writable directory)")


def _options(args) -> EstimateOptions:
    return EstimateOptions(gradient_tol=args.tol, max_iterations=args.max_iter)


def _config_dict(args, command: str, options=None, **extra) -> dict:
    """The run_config record: inputs and format from `args`, fit settings from `options`."""
    resolved = {
        "version": __version__,
        "backend": active_backend(),
        "data": args.data,
        "model": getattr(args, "model", None),
        "format": args.format,
        **(asdict(options) if options else {}),
        **extra,
    }
    return report.run_config_record(command, {k: v for k, v in resolved.items() if v is not None})


def _report(args, config: dict, records: list) -> int:
    """Write the run config and result records as JSON lines, or as the config header
    plus the table of the last record, to --out or stdout."""
    if args.format == "records":
        text = report.records_to_text([config, *records])
    else:
        pairs = " ".join(f"{k}={config[k]}" for k in sorted(config) if k != "record")
        text = f"# {pairs}\n\n" + report.render(records[-1])
    if args.out:
        write_text_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _load(args):
    """The model spec and the dataset of a fitting command."""
    _check_inputs(args.data, args.model)
    model = load_model_spec(args.model)
    return model, ingest_csv(args.data, model.outcome_set)


def _cmd_estimate(args) -> int:
    options = _options(args)
    model, dataset = _load(args)
    result = estimate(model, dataset, options)
    config = _config_dict(args, "estimate", options)
    return _report(args, config, [report.estimation_record(result)])


def _cmd_elasticities(args) -> int:
    options, settings = _options(args), ElasticityOptions(args.sig_threshold, args.aggregation)
    model, dataset = _load(args)
    result = estimate(model, dataset, options)
    rep = elasticity_report(
        model, result, dataset, threshold=settings.threshold, aggregation=settings.aggregation
    )
    config = _config_dict(
        args, "elasticities", options,
        sig_threshold=settings.threshold, aggregation=settings.aggregation,
    )
    return _report(args, config, [report.estimation_record(result), report.elasticity_record(rep)])


def _parse_dims(raw: str) -> tuple[str, ...]:
    return tuple(d.strip() for d in raw.split(",") if d.strip())


def _fit_cells(model, dataset, dims, options: EstimateOptions) -> PartitionReport:
    """Pooled and per-cell fits over every non-empty cell; a failed fit raises its own error."""
    rep = evaluate_partition(model, dataset, dims, options, min_cell_size=1)
    if not rep.cells:
        raise ConfigError(f"splitting by {{{', '.join(dims)}}} produces 1 cell(s); need at least 2")
    for cell in rep.cells:
        if cell.error is not None:
            raise cell.error
    return rep


def _cmd_split_test(args) -> int:
    options, dims = _options(args), _parse_dims(args.by)
    partition_dims(dims)  # the dims rule, checked before any file is read
    model, dataset = _load(args)
    rep = _fit_cells(model, dataset, dims, options)
    records = [report.estimation_record(rep.pooled, label="pooled")]
    for cell in rep.cells:
        label = ", ".join(str(v) for v in cell.key)
        records.append(report.estimation_record(cell.result, label=label))
    records.append(report.lr_record(rep.test, "split"))
    return _report(args, _config_dict(args, "split-test", options, by=",".join(dims)), records)


def _cmd_temporal_test(args) -> int:
    options, label_a, label_b = _options(args), args.period_a, args.period_b
    if (label_a is None) != (label_b is None):
        raise ConfigError("give both --period-a and --period-b, or neither")
    if label_a is not None and label_a == label_b:
        raise ConfigError(f"--period-a and --period-b must differ, both are {label_a!r}")
    model, dataset = _load(args)

    periods = list(dataset.period_labels)
    if label_a is None:
        if len(periods) != 2:
            raise ConfigError(
                f"temporal test needs exactly two periods in the data, found {periods}; "
                "use --period-a/--period-b to select"
            )
        label_a, label_b = periods
    for label in (label_a, label_b):
        if label not in periods:
            raise ConfigError(f"period {label!r} not present in the data (found {periods})")

    code = dataset.columns["period"]
    both = dataset.take((code == periods.index(label_a)) | (code == periods.index(label_b)))
    rep = _fit_cells(model, both, ("period",), options)
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
    records = [
        report.estimation_record(fit_all, label="combined"),
        report.estimation_record(fit_a, label=label_a),
        report.estimation_record(fit_b, label=label_b),
        report.lr_record(test, "temporal"),
    ]
    config = _config_dict(args, "temporal-test", options, period_a=label_a, period_b=label_b)
    return _report(args, config, records)


def _cmd_partition(args) -> int:
    options, dims = _options(args), _parse_dims(args.by)
    settings = PartitionOptions(dims, args.min_cell_size, args.confidence)
    model, dataset = _load(args)
    rep = evaluate_partition(
        model, dataset, settings.dims, options=options, min_cell_size=settings.min_cell_size
    )
    config = _config_dict(
        args,
        "partition",
        options,
        by=",".join(dims),
        min_cell_size=rep.min_cell_size,
        confidence=settings.confidence,
    )
    return _report(args, config, [report.partition_record(rep, settings.confidence)])


def _cmd_simulate(args) -> int:
    if args.seed is not None:
        generator_seed(args.seed)  # the seed rule, checked before the config is read
    _check_inputs(args.config)
    config, period = load_generator_config(args.config)
    if args.seed is not None:
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
    try:
        bins = [float(b) for b in args.bins.split(",") if b.strip()]
    except ValueError:
        raise ConfigError(f"--bins must be a comma list of numbers, got {args.bins!r}") from None
    bins = bin_edges(bins)
    outcome_set = None
    if args.outcomes:
        outcome_set = OutcomeSet(tuple(s.strip() for s in args.outcomes.split(",")))
    _check_inputs(args.data)
    dataset = ingest_csv(args.data, outcome_set)
    table = summarize(dataset, bins, variable=args.speed_var)
    config = _config_dict(args, "summarize", bins=args.bins, speed_var=args.speed_var)
    return _report(args, config, [report.summary_record(table)])


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        if args.out:
            _check_out(args.out)
        return args.handler(args)
    except (SevlogitError, ValueError) as exc:  # a ValueError is a bad value: exit 2
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)


if __name__ == "__main__":
    sys.exit(main())
