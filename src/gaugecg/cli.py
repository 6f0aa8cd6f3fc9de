"""Command-line front end.

Verbs: synthetic, mnist, reference, residuals, rate. Flags may also come
from a plain-text config file of key=value lines (--config PATH); values
given on the command line override the file. Exit codes: 0 success, 2 a
run ended in divergence or an unbounded step, 3 format or usage errors.
"""

import argparse
import os
import sys

from . import penalties as _penalties
from .atoms import AtomicSet
from .errors import (
    ContractViolationError,
    DivergenceError,
    FileFormatError,
    ReferenceMismatchError,
    UnboundedStepError,
)
from .experiments import (
    ExperimentConfig,
    build_certificate,
    gen_synthetic,
    load_mnist_pair,
    load_reference,
    rate_slope,
    read_csv_columns,
    reference_solve,
    residuals,
    run_experiment,
    save_reference,
    write_residuals_csv,
)
from .losses import LogisticLoss
from .solver import SolverConfig, run

_PENALTY_CHOICES = {
    "power": _penalties.POWER,
    "log-barrier": _penalties.LOG_BARRIER,
    "indicator": _penalties.INDICATOR,
}
_SCREEN_CHOICES = ("prune", "report", "off")


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


def _add_run_flags(sub, iters_default=1000, gap_tol_default=0.0):
    sub.add_argument("--config", help="key=value file; command-line flags override it")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--n", type=int, default=100)
    sub.add_argument("--d", type=int, default=50)
    sub.add_argument("--penalty", choices=sorted(_PENALTY_CHOICES), default="power")
    sub.add_argument("--alpha", type=_grid, default=(2.0,),
                     help="power exponent, or a comma list to sweep")
    sub.add_argument("--lambda", dest="weights", type=_grid, default=(1.0,),
                     help="penalty weight, or a comma list to sweep")
    sub.add_argument("--capacity", type=float, default=1.0,
                     help="cap for log-barrier / indicator penalties")
    sub.add_argument("--beta", type=float, default=1.0,
                     help="log-barrier growth constant")
    sub.add_argument("--scale", type=float, default=1.0,
                     help="atomic set magnification C")
    sub.add_argument("--iters", type=int, default=iters_default)
    sub.add_argument("--gap-tol", type=float, default=gap_tol_default)
    sub.add_argument("--screen", choices=_SCREEN_CHOICES, default="off")
    sub.add_argument("--screen-every", type=int, default=1)
    sub.add_argument("--theta", choices=("2t1", "4t2"), default="2t1")
    sub.add_argument("--trace-every", type=int, default=1)
    sub.add_argument("--out", default=".")


def _add_mnist_flags(sub):
    sub.add_argument("--images", help="IDX images file (optionally .gz)")
    sub.add_argument("--labels", help="IDX labels file (optionally .gz)")
    sub.add_argument("--digits", type=_digit_pair, default=(4, 9))


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="gaugecg",
        description="Conditional gradient solver with gap-safe screening.",
    )
    verbs = parser.add_subparsers(dest="verb", required=True)
    subparsers = {}

    sub = verbs.add_parser("synthetic", help="seeded Gaussian logistic experiment")
    _add_run_flags(sub)
    subparsers["synthetic"] = sub

    sub = verbs.add_parser("mnist", help="MNIST two-digit logistic experiment")
    _add_run_flags(sub)
    _add_mnist_flags(sub)
    subparsers["mnist"] = sub

    sub = verbs.add_parser("reference", help="high-accuracy reference solution")
    _add_run_flags(sub, iters_default=1_000_000, gap_tol_default=1e-10)
    _add_mnist_flags(sub)
    sub.add_argument("--experiment", choices=("synthetic", "mnist"), default="synthetic")
    subparsers["reference"] = sub

    sub = verbs.add_parser("residuals", help="rerun and compare against a reference")
    _add_run_flags(sub)
    _add_mnist_flags(sub)
    sub.add_argument("--experiment", choices=("synthetic", "mnist"), default="synthetic")
    sub.add_argument("--reference", required=True, help="reference JSON path")
    subparsers["residuals"] = sub

    sub = verbs.add_parser(
        "rate",
        help="log-log slope of a CSV column over [t-lo, t-hi], fitted up to "
        "its first nonpositive value (an error at the reference's accuracy)",
    )
    sub.add_argument("--csv", required=True)
    sub.add_argument("--column", default="objective_error")
    sub.add_argument("--t-lo", type=float, default=100.0)
    sub.add_argument("--t-hi", type=float, default=10_000.0)
    subparsers["rate"] = sub

    return parser, subparsers


def _config_file_flags(path):
    """Turn key=value lines into a flag list; '#' starts a comment line."""
    flags = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise FileFormatError(
                    f"{path}:{lineno}: expected key=value, got {text!r}", offset=lineno
                )
            key, _, value = text.partition("=")
            key = key.strip()
            value = value.strip()
            if not key or not value:
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


def _solver_config(args, keep_snapshots=False):
    return SolverConfig(
        max_iters=args.iters,
        gap_tolerance=args.gap_tol,
        step_schedule=args.theta,
        screening_enabled=args.screen != "off",
        screening_mode="report-only" if args.screen == "report" else "prune-lmo",
        screen_every=args.screen_every,
        trace_every=args.trace_every,
        keep_snapshots=keep_snapshots,
    )


def _experiment_config(args, experiment, keep_snapshots=False):
    return ExperimentConfig(
        experiment=experiment,
        seed=args.seed,
        n=args.n,
        d=args.d,
        penalty_kind=_PENALTY_CHOICES[args.penalty],
        alphas=args.alpha,
        weights=args.weights,
        capacity=args.capacity,
        growth=args.beta,
        scale=args.scale,
        solver=_solver_config(args, keep_snapshots=keep_snapshots),
        out_dir=args.out,
        images_path=getattr(args, "images", None),
        labels_path=getattr(args, "labels", None),
        digits=getattr(args, "digits", (4, 9)),
    )


def _single_problem(args, experiment):
    """(loss, penalty, atomic_set) for verbs that need one grid point."""
    if len(args.alpha) != 1 or len(args.weights) != 1:
        raise ContractViolationError(
            "this verb needs a single --alpha and --lambda value, not a grid"
        )
    if experiment == "synthetic":
        data = gen_synthetic(args.seed, n=args.n, d=args.d)
    else:
        if not (getattr(args, "images", None) and getattr(args, "labels", None)):
            raise ContractViolationError("mnist needs --images and --labels")
        data = load_mnist_pair(args.images, args.labels, args.digits)
    loss = LogisticLoss(data)
    atomic_set = AtomicSet.signed_basis(data.d, scale=args.scale)
    cfg = _experiment_config(args, experiment)
    penalty = cfg.build_penalty(args.alpha[0], args.weights[0])
    return loss, penalty, atomic_set, cfg


def _cmd_experiment(args, experiment):
    config = _experiment_config(args, experiment)
    summaries = run_experiment(config)
    failed = False
    for item in summaries:
        line = (
            f"{item['stem']}: {item['status']} alpha={item['alpha']:g} "
            f"lambda={item['weight']:g} iters={item['iterations']} "
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
    loss, penalty, atomic_set, cfg = _single_problem(args, args.experiment)
    reference = reference_solve(
        loss, penalty, atomic_set, iters=args.iters, tol=args.gap_tol
    )
    os.makedirs(args.out, exist_ok=True)
    stem = cfg.stem(args.alpha[0], args.weights[0])
    path = os.path.join(args.out, f"reference-{stem}.json")
    save_reference(reference, path)
    note = "" if reference.reached else " (tolerance NOT reached)"
    print(
        f"reference: gap={reference.gap:.3e} delta={reference.delta:.6g} "
        f"support={len(reference.support_ids)} iters={reference.iters_used}"
        f"{note} -> {path}"
    )
    return 0


def _cmd_residuals(args):
    loss, penalty, atomic_set, cfg = _single_problem(args, args.experiment)
    reference = load_reference(args.reference)
    config = _solver_config(args, keep_snapshots=True)
    result = run(loss, penalty, atomic_set, config)
    series = residuals(result, reference)
    certificate = build_certificate(result, reference)
    os.makedirs(args.out, exist_ok=True)
    stem = cfg.stem(args.alpha[0], args.weights[0])
    res_path = os.path.join(args.out, f"residuals-{stem}.csv")
    cert_path = os.path.join(args.out, f"certificate-{stem}.json")
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
    parser, _ = _build_parser()
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
        if args.verb == "synthetic":
            return _cmd_experiment(args, "synthetic")
        if args.verb == "mnist":
            if not (args.images and args.labels):
                raise ContractViolationError("mnist needs --images and --labels")
            return _cmd_experiment(args, "mnist")
        if args.verb == "reference":
            return _cmd_reference(args)
        if args.verb == "residuals":
            return _cmd_residuals(args)
        if args.verb == "rate":
            return _cmd_rate(args)
        raise ContractViolationError(f"unknown verb {args.verb!r}")
    except (DivergenceError, UnboundedStepError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (FileFormatError, ContractViolationError, ReferenceMismatchError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
