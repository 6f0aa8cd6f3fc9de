"""Command-line front end.

Verbs: synthetic, mnist, reference, residuals, rate. Flags may also come
from a plain-text config file of key=value lines (--config PATH); values
given on the command line override the file. Exit codes: 0 success, 2 a
run ended in divergence or an unbounded step, 3 format or usage errors.
"""

import argparse
import dataclasses
import os
import sys

from .errors import (
    ContractViolationError,
    DivergenceError,
    FileFormatError,
    ReferenceMismatchError,
    UnboundedStepError,
)
from .experiments import (
    ExperimentConfig,
    _ascii_lines,
    build_certificate,
    load_reference,
    rate_slope,
    read_csv_columns,
    reference_solve,
    residuals,
    run_experiment,
    save_reference,
    write_residuals_csv,
)
from .penalties import KINDS, POWER
from .solver import SolverConfig, run

def _grid(text):
    try:
        values = tuple(float(part) for part in str(text).split(",") if part != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad numeric list {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError(f"empty numeric list {text!r}")
    return values


def _digit_pair(text):
    try:
        values = tuple(int(part) for part in str(text).split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad digit pair {text!r}") from None
    if len(values) != 2:
        raise argparse.ArgumentTypeError("digits must be two comma-separated values")
    return values


# A run flag's dest is the ExperimentConfig or SolverConfig field it sets
# (_experiment_config), and its metavar the name --help has always shown.
def _add_run_flags(sub, iters_default=1000, gap_tol_default=0.0):
    sub.add_argument("--config", help="key=value file; command-line flags override it")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--n", type=int, default=100)
    sub.add_argument("--d", type=int, default=50)
    sub.add_argument("--penalty", dest="penalty_kind", choices=sorted(KINDS), default=POWER)
    sub.add_argument("--alpha", dest="alphas", metavar="ALPHA", type=_grid, default=(2.0,),
                     help="power exponent, or a comma list to sweep")
    sub.add_argument("--lambda", dest="weights", type=_grid, default=(1.0,),
                     help="penalty weight, or a comma list to sweep")
    sub.add_argument("--capacity", type=float, default=1.0,
                     help="cap for log-barrier / indicator penalties")
    sub.add_argument("--beta", dest="growth", metavar="BETA", type=float, default=1.0,
                     help="log-barrier growth constant")
    sub.add_argument("--scale", type=float, default=1.0,
                     help="atomic set magnification C")
    sub.add_argument("--iters", dest="max_iters", metavar="ITERS", type=int, default=iters_default)
    sub.add_argument("--gap-tol", dest="gap_tolerance", metavar="GAP_TOL", type=float,
                     default=gap_tol_default)
    sub.add_argument("--out", dest="out_dir", metavar="OUT", default=".")


def _add_solver_flags(sub):
    sub.add_argument("--screen", choices=("prune", "off"), default="off")
    sub.add_argument("--theta", dest="step_schedule", choices=("2t1", "4t2"), default="2t1")
    sub.add_argument("--trace-every", type=int, default=1)


def _add_mnist_flags(sub):
    sub.add_argument("--images", dest="images_path", metavar="IMAGES",
                     help="IDX images file (optionally .gz)")
    sub.add_argument("--labels", dest="labels_path", metavar="LABELS",
                     help="IDX labels file (optionally .gz)")
    sub.add_argument("--digits", type=_digit_pair, default=(4, 9))


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="gaugecg",
        description="Conditional gradient solver with gap-safe screening.",
    )
    verbs = parser.add_subparsers(dest="verb", required=True)

    sub = verbs.add_parser("synthetic", help="seeded Gaussian logistic experiment")
    _add_run_flags(sub)
    _add_solver_flags(sub)
    sub.set_defaults(handler=_cmd_experiment, experiment="synthetic")

    sub = verbs.add_parser("mnist", help="MNIST two-digit logistic experiment")
    _add_run_flags(sub)
    _add_solver_flags(sub)
    _add_mnist_flags(sub)
    sub.set_defaults(handler=_cmd_experiment, experiment="mnist")

    sub = verbs.add_parser("reference", help="high-accuracy reference solution")
    _add_run_flags(sub, iters_default=1_000_000, gap_tol_default=1e-10)
    _add_mnist_flags(sub)
    sub.add_argument("--experiment", choices=("synthetic", "mnist"), default="synthetic")
    sub.set_defaults(handler=_cmd_reference)

    sub = verbs.add_parser("residuals", help="rerun and compare against a reference")
    _add_run_flags(sub)
    _add_solver_flags(sub)
    _add_mnist_flags(sub)
    sub.add_argument("--experiment", choices=("synthetic", "mnist"), default="synthetic")
    sub.add_argument("--reference", required=True, help="reference JSON path")
    sub.set_defaults(handler=_cmd_residuals)

    sub = verbs.add_parser(
        "rate",
        help="log-log slope of a CSV column over [t-lo, t-hi], fitted up to "
        "its first nonpositive value (an error at the reference's accuracy)",
    )
    sub.add_argument("--csv", required=True)
    sub.add_argument("--column", default="objective_error")
    sub.add_argument("--t-lo", type=float, default=100.0)
    sub.add_argument("--t-hi", type=float, default=10_000.0)
    sub.set_defaults(handler=_cmd_rate)

    return parser


def _config_file_flags(path):
    """Turn key=value lines into a flag list; '#' starts a comment line."""
    flags = []
    for lineno, line in enumerate(_ascii_lines(path), start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        key, sep, value = text.partition("=")
        key, value = key.strip(), value.strip()
        if not (sep and key and value):
            raise FileFormatError(
                f"{path}:{lineno}: expected key=value, got {text!r}", offset=lineno
            )
        flags.extend([f"--{key}", value])
    return flags


def _parse(parser, argv):
    args = parser.parse_args(argv)
    config_path = getattr(args, "config", None)
    if config_path:
        file_flags = _config_file_flags(config_path)
        # file values become earlier occurrences, so explicit flags win
        argv = [argv[0]] + file_flags + list(argv[1:])
        args = parser.parse_args(argv)
    return args


def _fields(cls, values):
    return {f.name: values[f.name] for f in dataclasses.fields(cls) if f.name in values}


def _experiment_config(args, keep_snapshots=False):
    values = vars(args)
    # reference takes no solver flags; its stem hashes their defaults
    solver = SolverConfig(**_fields(SolverConfig, values), keep_snapshots=keep_snapshots,
                          screening_enabled=values.get("screen") == "prune")
    return ExperimentConfig(**_fields(ExperimentConfig, values), solver=solver)


def _single_point(args, keep_snapshots=False):
    """(config, loss, penalty, atomic_set, stem) for verbs that need one
    grid point: any flags the kind's grid collapses to one point."""
    cfg = _experiment_config(args, keep_snapshots=keep_snapshots)
    point, *others = cfg.grid()
    if others:
        raise ContractViolationError(
            "this verb needs a single --alpha and --lambda value, not a grid"
        )
    loss, atomic_set = cfg.build_problem()
    return cfg, loss, cfg.build_penalty(*point), atomic_set, cfg.stem(*point)


def _cmd_experiment(args):
    config = _experiment_config(args)
    reads = KINDS[config.penalty_kind].params
    failed = False
    for item in run_experiment(config):
        # the grid point, as far as the kind reads it
        point = "".join(
            f"{flag}={item[name]:g} "
            for name, flag in (("alpha", "alpha"), ("weight", "lambda"))
            if name in reads
        )
        line = (
            f"{item['stem']}: {item['status']} {point}iters={item['iterations']} "
            f"min_gap={item['min_gap']:.6g} trace={item['trace_path']}"
        )
        if item["screen_path"]:
            line += f" screen={item['screen_path']}"
        if item["status"] != "ok":
            failed = True
            line += f" failed_at={item['failed_at']}"
        print(line)
    return 2 if failed else 0


def _cmd_reference(args):
    _, loss, penalty, atomic_set, stem = _single_point(args)
    reference = reference_solve(
        loss, penalty, atomic_set, iters=args.max_iters, tol=args.gap_tolerance
    )
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, f"reference-{stem}.json")
    save_reference(reference, path)
    note = "" if reference.reached else " (tolerance NOT reached)"
    print(
        f"reference: gap={reference.gap:.3e} delta={reference.delta:.6g} "
        f"support={len(reference.support_ids)} iters={reference.iters_used}"
        f"{note} -> {path}"
    )
    return 0


def _cmd_residuals(args):
    cfg, loss, penalty, atomic_set, stem = _single_point(args, keep_snapshots=True)
    reference = load_reference(args.reference)
    result = run(loss, penalty, atomic_set, cfg.solver)
    series = residuals(result, reference)
    certificate = build_certificate(result, reference)
    os.makedirs(args.out_dir, exist_ok=True)
    res_path = os.path.join(args.out_dir, f"residuals-{stem}.csv")
    cert_path = os.path.join(args.out_dir, f"certificate-{stem}.json")
    write_residuals_csv(series, res_path)
    with open(cert_path, "w", encoding="ascii") as fh:
        fh.write(certificate.to_json())
        fh.write("\n")
    print(
        f"residuals: rows={len(series)} final_support_error={series.support_error[-1]} "
        f"identified_at={certificate.identified_at} -> {res_path}, {cert_path}"
    )
    return 0


def _cmd_rate(args):
    columns = read_csv_columns(args.csv)
    if "t" not in columns or args.column not in columns:
        raise FileFormatError(
            f"{args.csv}: need columns 't' and {args.column!r}, "
            f"have {sorted(columns)}",
            offset=0,
        )
    slope = rate_slope((columns["t"], columns[args.column]), args.t_lo, args.t_hi)
    print(f"rate: column={args.column} window=[{args.t_lo:g}, {args.t_hi:g}] slope={slope:.6f}")
    return 0


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    try:
        args = _parse(parser, list(argv))
    except SystemExit as exc:
        # argparse uses 2 for usage errors; that code is reserved for
        # divergence here, so usage problems map to the format-error code
        code = exc.code if isinstance(exc.code, int) else 0
        return 3 if code == 2 else code
    except (FileFormatError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3

    try:
        return args.handler(args)
    except (DivergenceError, UnboundedStepError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (FileFormatError, ContractViolationError, ReferenceMismatchError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
