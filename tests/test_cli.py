"""Command-line behavior: exit codes, file outputs, config-file layering,
and the reference -> residuals -> rate pipeline."""

import argparse
import dataclasses
import glob
import json
import os
import subprocess
import sys

import pytest

import gaugecg as gc
from gaugecg import cli
from gaugecg.cli import main
from gaugecg.experiments import (
    ExperimentConfig,
    load_reference,
    read_csv_columns,
    read_trace_csv,
)


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "synthetic" in capsys.readouterr().out


def test_unknown_flag_is_usage_error(capsys):
    assert main(["synthetic", "--bogus", "1"]) == 3


def test_missing_verb_is_usage_error():
    assert main([]) == 3


def test_synthetic_run_writes_files(tmp_path, capsys):
    code = main([
        "synthetic", "--seed", "1", "--n", "40", "--d", "10",
        "--iters", "30", "--screen", "prune", "--out", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "status" not in out and "ok" in out
    traces = glob.glob(str(tmp_path / "synthetic-*.csv"))
    screens = [p for p in traces if p.endswith(".screen.csv")]
    assert len(traces) == 2 and len(screens) == 1
    rows = read_trace_csv(next(p for p in traces if not p.endswith(".screen.csv")))
    assert rows[-1].t == 31


def test_grid_sweep_writes_one_file_per_point(tmp_path):
    code = main([
        "synthetic", "--seed", "1", "--n", "30", "--d", "8",
        "--lambda", "0.5,1.0,2.0", "--iters", "10", "--out", str(tmp_path),
    ])
    assert code == 0
    traces = glob.glob(str(tmp_path / "synthetic-*.csv"))
    assert len(traces) == 3


def test_unbounded_point_exits_two(tmp_path, capsys):
    code = main([
        "synthetic", "--seed", "1", "--n", "40", "--d", "10",
        "--alpha", "1", "--lambda", "0.001", "--iters", "30",
        "--out", str(tmp_path),
    ])
    assert code == 2
    out = capsys.readouterr().out
    assert "unbounded-step" in out and "failed_at=1" in out


def test_indicator_penalty_steps_to_its_cap(tmp_path):
    code = main([
        "synthetic", "--seed", "1", "--n", "30", "--d", "8", "--penalty", "indicator",
        "--capacity", "2", "--iters", "20", "--out", str(tmp_path),
    ])
    assert code == 0
    rows = read_trace_csv(glob.glob(str(tmp_path / "synthetic-*.csv"))[0])
    assert len(rows) == 21 and all(row.xi == 2.0 for row in rows)


def test_mnist_needs_paths(capsys):
    assert main(["mnist", "--iters", "5"]) == 3
    assert "images" in capsys.readouterr().err


def test_mnist_missing_file_is_format_error(tmp_path, capsys):
    code = main([
        "mnist", "--images", str(tmp_path / "nope.idx"),
        "--labels", str(tmp_path / "nope2.idx"), "--iters", "5",
        "--out", str(tmp_path),
    ])
    assert code == 3


def test_mnist_run(tmp_path, mnist_fixture):
    img, lbl, _ = mnist_fixture
    code = main([
        "mnist", "--images", img, "--labels", lbl,
        "--iters", "20", "--out", str(tmp_path),
    ])
    assert code == 0
    assert glob.glob(str(tmp_path / "mnist-*.csv"))


@pytest.mark.parametrize(
    "digits, code, complaint",
    [("4,9", 0, ""), ("4", 3, "two comma-separated values"), ("a,b", 3, "bad digit pair")],
)
def test_digit_pair_flag(tmp_path, mnist_fixture, digits, code, complaint, capsys):
    img, lbl, _ = mnist_fixture
    assert main([
        "mnist", "--images", img, "--labels", lbl, "--digits", digits,
        "--iters", "5", "--out", str(tmp_path),
    ]) == code
    assert complaint in capsys.readouterr().err


@pytest.mark.parametrize(
    "weights, code, complaint",
    [("0.5,1", 0, ""), ("0.5,x", 3, "bad numeric list '0.5,x'"),
     (",", 3, "empty numeric list ','")],
    ids=["list", "bad-list", "empty-list"],
)
def test_numeric_list_flag(tmp_path, weights, code, complaint, capsys):
    assert main([
        "synthetic", "--n", "20", "--d", "5", "--lambda", weights,
        "--iters", "5", "--out", str(tmp_path),
    ]) == code
    assert complaint in capsys.readouterr().err


def test_summary_line_shows_the_parameters_the_kind_reads(tmp_path, capsys):
    base = ["synthetic", "--n", "20", "--d", "5", "--iters", "5", "--out", str(tmp_path)]
    assert main([*base, "--alpha", "3", "--lambda", "0.5"]) == 0
    assert " ok alpha=3 lambda=0.5 iters=5 " in capsys.readouterr().out
    assert main([*base, "--penalty", "log-barrier", "--alpha", "3", "--lambda", "0.5"]) == 0
    assert " ok lambda=0.5 iters=5 " in capsys.readouterr().out
    assert main([*base, "--penalty", "indicator", "--alpha", "3", "--lambda", "0.5"]) == 0
    assert " ok iters=5 " in capsys.readouterr().out


# The parser's dests that name no ExperimentConfig or SolverConfig field.
_CLI_ONLY_DESTS = {"config", "screen", "reference", "verb", "handler"}
_CONFIG_FIELDS = {
    f.name for cls in (ExperimentConfig, gc.SolverConfig) for f in dataclasses.fields(cls)
}


def _verb_parsers():
    parser = cli._build_parser()
    (verbs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return verbs.choices


@pytest.mark.parametrize("verb", ["synthetic", "mnist", "reference", "residuals"])
def test_every_run_flag_is_named_for_the_field_it_sets(verb):
    # _experiment_config builds the configs from vars(args): a dest that
    # names no field would leave the field it means at its default
    sub = _verb_parsers()[verb]
    dests = {a.dest for a in sub._actions if a.dest != "help"} | set(sub._defaults)
    assert dests - _CONFIG_FIELDS - _CLI_ONLY_DESTS == set()
    assert "max_iters" in dests and "weights" in dests and "handler" in dests


@pytest.mark.parametrize(
    "verb", ["top", "synthetic", "mnist", "reference", "residuals", "rate"]
)
def test_help_text_is_pinned(verb, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(([] if verb == "top" else [verb]) + ["--help"]) == 0
    pinned = os.path.join(os.path.dirname(__file__), "cli_help", f"{verb}.txt")
    with open(pinned, encoding="ascii") as fh:
        assert capsys.readouterr().out == fh.read()


# ----------------------------------------------------------------- config file


def test_config_file_supplies_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# small run\n\niters=12\nseed=3\nn=30\nd=8\n")
    code = main(["synthetic", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    rows = read_trace_csv(glob.glob(str(tmp_path / "synthetic-*.csv"))[0])
    assert rows[-1].t == 13


def test_command_line_overrides_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("iters=50\nseed=3\nn=30\nd=8\n")
    code = main([
        "synthetic", "--config", str(cfg), "--iters", "20", "--out", str(tmp_path),
    ])
    assert code == 0
    rows = read_trace_csv(glob.glob(str(tmp_path / "synthetic-*.csv"))[0])
    assert rows[-1].t == 21


@pytest.mark.parametrize(
    "line, complaint",
    [("iters", "key=value"), ("=5", "key=value"), ("iters=", "key=value"),
     ("seed=\xff", "outside ASCII")],
    ids=["iters", "=5", "iters=", "non-ascii-byte"],
)
def test_bad_config_line_is_format_error(tmp_path, line, complaint, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"n=30\n" + line.encode("latin-1") + b"\n")
    assert main(["synthetic", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert f"{cfg}:2:" in err and complaint in err


@pytest.mark.parametrize("line", ["screen=report", "screen-every=2"])
def test_config_file_screening_takes_prune_or_off(tmp_path, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"n=30\nd=8\niters=5\n{line}\n")
    assert main(["synthetic", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert not glob.glob(str(tmp_path / "synthetic-*"))


def test_missing_config_file(tmp_path):
    assert main(["synthetic", "--config", str(tmp_path / "none.cfg")]) == 3


# -------------------------------------------------------------------- pipeline


def test_reference_residuals_rate_pipeline(tmp_path, capsys):
    base = [
        "--seed", "5", "--n", "40", "--d", "12",
        "--alpha", "2", "--lambda", "1.0",
    ]
    code = main([
        "reference", *base, "--iters", "30000", "--gap-tol", "1e-10",
        "--out", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "reference: gap=" in out and "NOT reached" not in out
    (ref_path,) = glob.glob(str(tmp_path / "reference-*.json"))
    # the reference takes no solver flags: its stem hashes their defaults
    solver = gc.SolverConfig(max_iters=30000, gap_tolerance=1e-10)
    stem = ExperimentConfig("synthetic", seed=5, n=40, d=12, solver=solver).stem(2.0, 1.0)
    assert os.path.basename(ref_path) == f"reference-{stem}.json"
    reference = load_reference(ref_path)
    assert reference.reached and reference.gap <= 1e-10

    code = main([
        "residuals", *base, "--iters", "2000", "--trace-every", "10",
        "--screen", "prune", "--reference", ref_path, "--out", str(tmp_path),
    ])
    assert code == 0
    assert "residuals: rows=" in capsys.readouterr().out
    (res_path,) = glob.glob(str(tmp_path / "residuals-*.csv"))
    (cert_path,) = glob.glob(str(tmp_path / "certificate-*.json"))
    table = read_csv_columns(res_path)
    assert table["gap"].min() >= 0.0
    cert = gc.SupportCertificate.from_json(open(cert_path).read())
    assert cert.delta == reference.delta

    code = main([
        "rate", "--csv", res_path, "--column", "objective_error",
        "--t-lo", "100", "--t-hi", "2000",
    ])
    assert code == 0
    line = capsys.readouterr().out
    assert line.startswith("rate: column=objective_error")
    slope = float(line.rsplit("slope=", 1)[1])
    assert slope < -0.5


def test_residuals_wrong_reference_problem(tmp_path, capsys):
    code = main([
        "reference", "--seed", "5", "--n", "40", "--d", "12",
        "--iters", "25000", "--out", str(tmp_path),
    ])
    assert code == 0
    (ref_path,) = glob.glob(str(tmp_path / "reference-*.json"))
    code = main([
        "residuals", "--seed", "6", "--n", "40", "--d", "12",
        "--iters", "50", "--reference", ref_path, "--out", str(tmp_path),
    ])
    assert code == 3
    assert "different problems" in capsys.readouterr().err


_SHORT_REFERENCE = json.dumps({
    "x": [0.0] * 3, "grad": [0.0] * 3, "objective": 0.0, "support_ids": [],
    "delta": 0.0, "gap": 0.0, "iters_used": 0, "reached": True, "fingerprint": "",
}).encode()


@pytest.mark.parametrize(
    "content",
    [b'{"x": [1.0]', b'{"x": [1.0]}', b'{"x": [1.0]}\n\xff', _SHORT_REFERENCE],
    ids=["truncated-json", "missing-keys", "non-ascii-byte", "short-arrays"],
)
def test_residuals_bad_reference_file_is_format_error(tmp_path, content, capsys):
    path = tmp_path / "ref.json"
    path.write_bytes(content)
    code = main([
        "residuals", "--seed", "5", "--n", "40", "--d", "12",
        "--iters", "50", "--reference", str(path), "--out", str(tmp_path),
    ])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_unbounded_residuals_run_exits_two(tmp_path, capsys):
    # a linear penalty this weak has no finite step at t = 1; the run
    # aborts before its fingerprint is compared with the reference's
    base = ["--seed", "5", "--n", "40", "--d", "12", "--out", str(tmp_path)]
    assert main(["reference", *base, "--iters", "25000"]) == 0
    (ref_path,) = glob.glob(str(tmp_path / "reference-*.json"))
    code = main([
        "residuals", *base, "--alpha", "1", "--lambda", "0.001", "--iters", "30",
        "--reference", ref_path,
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "unbounded" in err
    assert not glob.glob(str(tmp_path / "residuals-*"))


@pytest.mark.parametrize(
    "flag", [["--theta", "4t2"], ["--screen", "prune"], ["--trace-every", "5"]],
    ids=["theta", "screen", "trace-every"],
)
def test_reference_takes_no_solver_flags(flag):
    assert main(["reference", *flag]) == 3


def test_reference_rejects_grids(capsys):
    assert main(["reference", "--lambda", "0.5,1.0", "--iters", "10"]) == 3
    assert "single" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, alphas, weights",
    [("log-barrier", "2,3", "1"), ("indicator", "2,3", "0.5,1")],
)
def test_reference_and_residuals_take_a_grid_of_one_point(tmp_path, kind, alphas, weights, capsys):
    # the kind reads no alpha (nor, for the indicator, a weight): the grid
    # has one point, whose stem is that of the first values
    base = [
        "--seed", "5", "--n", "20", "--d", "6", "--penalty", kind,
        "--alpha", alphas, "--lambda", weights, "--out", str(tmp_path),
    ]
    assert main(["reference", *base, "--iters", "50"]) == 0
    (ref_path,) = glob.glob(str(tmp_path / "reference-*.json"))
    cfg = ExperimentConfig(
        "synthetic", seed=5, n=20, d=6, penalty_kind=kind,
        alphas=cli._grid(alphas), weights=cli._grid(weights),
        solver=gc.SolverConfig(max_iters=50, gap_tolerance=1e-10),
    )
    (point,) = cfg.grid()
    assert point == (2.0, cli._grid(weights)[0])
    assert os.path.basename(ref_path) == f"reference-{cfg.stem(*point)}.json"
    assert main(["residuals", *base, "--iters", "20", "--reference", ref_path]) == 0
    assert "residuals: rows=21 " in capsys.readouterr().out


def test_reference_on_mnist(tmp_path, mnist_fixture, capsys):
    img, lbl, _ = mnist_fixture
    code = main([
        "reference", "--experiment", "mnist", "--images", img, "--labels", lbl,
        "--out", str(tmp_path),
    ])
    assert code == 0
    (ref_path,) = glob.glob(str(tmp_path / "reference-mnist-*.json"))
    assert load_reference(ref_path).reached
    capsys.readouterr()
    assert main(["reference", "--experiment", "mnist", "--labels", lbl]) == 3
    assert "images" in capsys.readouterr().err


def test_rate_missing_column(tmp_path, capsys):
    path = tmp_path / "x.csv"
    path.write_text("t,foo\n1,1.0\n2,0.5\n3,0.3\n4,0.2\n5,0.1\n")
    assert main(["rate", "--csv", str(path), "--column", "bar"]) == 3


def test_rate_on_a_non_ascii_csv_is_format_error(tmp_path, capsys):
    path = tmp_path / "x.csv"
    path.write_bytes(b"t,foo\n1,1.0\n\xff,0.5\n")
    assert main(["rate", "--csv", str(path), "--column", "foo"]) == 3
    assert f"{path}:3: byte outside ASCII" in capsys.readouterr().err


def test_negative_seed_is_a_usage_error(tmp_path, capsys):
    assert main(["synthetic", "--seed", "-1", "--out", str(tmp_path)]) == 3
    assert "seed must be an integer >= 0" in capsys.readouterr().err


def test_rate_on_plain_csv(tmp_path, capsys):
    lines = ["t,foo"] + [f"{t},{3.0 / t!r}" for t in range(1, 40)]
    path = tmp_path / "x.csv"
    path.write_text("\n".join(lines) + "\n")
    assert main(["rate", "--csv", str(path), "--column", "foo",
                 "--t-lo", "2", "--t-hi", "39"]) == 0
    out = capsys.readouterr().out
    assert float(out.rsplit("slope=", 1)[1]) == pytest.approx(-1.0, abs=1e-9)


# ----------------------------------------------------------------- determinism


def test_repeat_runs_agree_except_wall_clock(tmp_path):
    def one(sub):
        out = tmp_path / sub
        main([
            "synthetic", "--seed", "7", "--n", "30", "--d", "8",
            "--iters", "40", "--screen", "prune", "--out", str(out),
        ])
        (trace,) = [
            p for p in glob.glob(str(out / "synthetic-*.csv"))
            if not p.endswith(".screen.csv")
        ]
        return trace

    a, b = one("a"), one("b")
    assert os.path.basename(a) == os.path.basename(b)
    strip = lambda p: [ln.rsplit(",", 1)[0] for ln in open(p).read().splitlines()]
    assert strip(a) == strip(b)


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "gaugecg", "--help"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "gaugecg" in proc.stdout
