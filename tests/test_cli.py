from __future__ import annotations

import inspect
import io
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stdout
from importlib import resources
from pathlib import Path

import pytest

import oscdamp
from oscdamp import errors
from oscdamp.cli import main

from conftest import fail_qz, stiff_star_grid


def _data_path(name: str) -> str:
    return str(resources.files("oscdamp").joinpath("data", name))


def _run(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_missing_file_is_usage_error():
    code, _ = _run(["pf", "missing.grid"])
    assert code == 64


def test_unknown_flag_is_usage_error():
    code, _ = _run(["pf", "--frobnicate", _data_path("six_bus.grid")])
    assert code == 64


def test_bad_selector_is_usage_error():
    code, _ = _run(["sens", _data_path("six_bus.grid"), "--const-v", "--mode", "9"])
    assert code == 64
    code, _ = _run(["sens", _data_path("six_bus.grid"), "--const-v"])
    assert code == 64
    code, _ = _run([
        "sens", _data_path("six_bus.grid"), "--const-v", "--mode-hz", "0.1:9",
    ])
    assert code == 64  # window catches both modes


def test_validation_error_exit_code(tmp_path):
    bad = tmp_path / "bad.grid"
    bad.write_text(
        "bus G1 G V=1 Pg=0.5 H=3\nbus L2 L Pl=0.1\nline t G1 L2 b=1\n",
        encoding="utf-8",
    )
    code, _ = _run(["pf", str(bad)])
    assert code == 1


def test_an_imbalance_below_the_parser_bound_is_a_validation_error(tmp_path, capsys):
    # Raising L5's load by 5e-10 passes the parser but not the power flow's
    # acceptance: exit 1 before any Newton step, not a stalled exit 2.
    grid = tmp_path / "ten_bus_plus.grid"
    grid.write_text(Path(_data_path("ten_bus.grid")).read_text(encoding="utf-8").replace(
        "Pl=10.110245 ", "Pl=10.1102450005 "), encoding="utf-8")
    capsys.readouterr()
    code, out = _run(["pf", str(grid)])
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err.startswith("oscdamp: real power does not balance") and err.count("\n") == 1


def test_convergence_error_exit_code(tmp_path):
    # Balanced and well-formed, but the load sits beyond the static transfer
    # limit of the weak chain, so the power flow cannot converge.
    infeasible = tmp_path / "collapse.grid"
    infeasible.write_text(
        "bus G1 G V=1.0 Pg=0.6 H=4.0\n"
        "bus B2 L\n"
        "bus L3 L Pl=0.6 Ql=0.25\n"
        "line 1 G1 B2 x=0.4\n"
        "line 2 B2 L3 x=0.5\n",
        encoding="utf-8",
    )
    code, _ = _run(["pf", str(infeasible)])
    assert code == 2


# Two generators behind one load bus. The variants are valid grids that push
# the float range: a set-point of 1e200 overflows Newton's trial points, a
# damping of 1e300 makes |s|^2 of the backward error overflow, a reactive
# load of 10 zeroes the load-voltage diagonal of the flat-start Jacobian, and
# subnormal susceptances make the first Newton step overflow.
STAR = ("bus G1 G V=1 H=3\nbus G2 G V=1 H=3\nbus L1 L\n"
        "line a G1 L1 b=5\nline b G2 L1 b=5\n")
STAR_HUGE_V = STAR.replace("G V=1 H=3", "G V=1e200 H=3", 1)
STAR_HUGE_D = STAR.replace("G V=1 H=3", "G V=1 H=3 D=1e300", 1).replace(
    "bus L1 L", "bus L1 L D=1e300")
STAR_HEAVY_Q = STAR.replace("bus L1 L", "bus L1 L Ql=10")
STAR_SUBNORMAL_B = ("bus G1 G V=1 H=3 Pg=0.2\nbus G2 G V=1 H=3 Pg=-0.2\nbus L1 L\n"
                    "line a G1 L1 b=1e-310\nline b G2 L1 b=1e-310\n")
SINGULAR_PF = "power-flow Jacobian is singular beyond the angle-reference nullspace"


@pytest.mark.parametrize("text, flags, message", [
    (STAR_HUGE_V, [], "power flow did not converge: residual max-norm 5.000e+200 > 1.0e-10"),
    (STAR_HEAVY_Q, [], SINGULAR_PF),
    (STAR_SUBNORMAL_B, [], SINGULAR_PF),
    (STAR_SUBNORMAL_B, ["--const-v"], SINGULAR_PF),
], ids=["overflowing-trial-points", "singular-jacobian", "non-finite-step",
        "non-finite-step-const-v"])
def test_a_power_flow_failure_exits_2_with_one_line(tmp_path, capsys, text, flags, message):
    grid = tmp_path / "star.grid"
    grid.write_text(text, encoding="utf-8")
    assert main(["pf", str(grid), *flags]) == 2
    assert capsys.readouterr() == ("", f"oscdamp: {message}\n")


def test_modes_of_a_damping_past_the_square_range_print_no_warning(tmp_path, capsys):
    grid = tmp_path / "star.grid"
    grid.write_text(STAR_HUGE_D, encoding="utf-8")
    assert main(["modes", str(grid)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines()[1].split() == ["1", "0", "17.7245", "2.82095", "-0", "G2", "em"]
    # ||Q(lam)||_F stays finite, so the gate reads a residual, not 0.
    mode, = oscdamp.build_study(oscdamp.parse_grid_file(STAR_HUGE_D)).oscillatory()
    assert 0 < mode.residual <= 1e-298


def test_pf_does_not_run_the_eigensolve(monkeypatch, tmp_path, capsys):
    # With every QZ call failing, pf succeeds and modes fails with one line.
    fail_qz(monkeypatch)
    grid = tmp_path / "stiff.grid"
    grid.write_text(stiff_star_grid(1e6), encoding="utf-8")
    assert main(["pf", str(grid)]) == 0
    assert capsys.readouterr().err == ""
    assert main(["modes", str(grid)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "oscdamp: QZ iteration failed (LAPACK dggev info = 1)\n"


@pytest.mark.parametrize("const_v", [[], ["--const-v"]])
def test_modes_refines_the_pairs_qz_leaves_above_the_gate(tmp_path, const_v):
    # QZ leaves a pair of this stiff grid at a backward error of 3.7e-09;
    # Newton's method brings it under the 1e-9 gate.
    grid = tmp_path / "stiff.grid"
    grid.write_text(stiff_star_grid(1e6), encoding="utf-8")
    code, out = _run(["modes", str(grid)] + const_v)
    assert code == 0
    assert len([ln for ln in out.splitlines() if ln.endswith("em")]) == 2


def test_mode_and_mode_hz_together_is_usage_error(capsys):
    assert main(["sens", _data_path("ten_bus.grid"), "--mode", "3", "--mode-hz", "0.3:0.4"]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "oscdamp: argument --mode-hz: not allowed with argument --mode\n"


def test_pf_and_modes_output():
    code, out = _run(["pf", _data_path("six_bus.grid"), "--const-v"])
    assert code == 0
    assert "residual max-norm" in out
    code, out = _run(["modes", _data_path("six_bus.grid"), "--const-v"])
    assert code == 0
    em_rows = [ln for ln in out.splitlines() if ln.rstrip().endswith("em")]
    assert len(em_rows) == 2
    freqs = sorted(float(r.split()[3]) for r in em_rows)
    assert 1.4 < freqs[0] < freqs[1] < 2.0


def test_modes_deterministic_output():
    args = ["modes", _data_path("ten_bus.grid")]
    assert _run(args) == _run(args)


def test_sens_prints_coefficients():
    code, out = _run([
        "sens", _data_path("ten_bus.grid"), "--mode-hz", "0.2:1.0",
    ])
    assert code == 0
    assert "alpha" in out
    assert "dtheta_coeff_re" in out
    assert "dvln_coeff_re" in out


def test_sweep_csv_schema(tmp_path):
    csv_path = tmp_path / "sweep.csv"
    code, _ = _run([
        "sweep", _data_path("six_bus.grid"), "--const-v", "--mode", "2",
        "--pair", "G1:G3", "--r", "0,0.003", "--csv", str(csv_path),
    ])
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ("r,sigma_exact,omega_exact,sigma_approx,omega_approx,"
                        "zeta_exact,zeta_approx")
    assert len(lines) == 3


def test_sweep_to_a_zero_prediction_prints_a_zero_damping_ratio():
    # Undamped: at r = -omega / (domega/dr) the prediction is exactly 0, and
    # its damping ratio is 0 rather than a division by |0|.
    from oscdamp import cases, dispatch
    from oscdamp.study import build_study
    st = build_study(cases.load_fixture("three_bus_s9").network, const_v=True)
    mode = st.electromechanical()[0]
    plan = dispatch.plan_between(st.network, "G1", "G3")
    r = -mode.omega / dispatch.ModePath(st.network, st.op, mode, plan).slope().imag
    row, = dispatch.sweep(st.network, st.op, mode, plan, [r])
    assert row.lambda_approx == 0
    code, out = _run(["sweep", _data_path("three_bus_s9.grid"), "--const-v", "--mode", "1",
                      "--pair", "G1:G3", "--r", repr(r)])
    assert code == 0
    header, values = out.splitlines()[1:3]
    assert header.split()[-1] == "zeta_approx"
    # The row failed, so only r, sigma_approx, omega_approx and zeta_approx print.
    assert values.split()[1:] == ["0", "0", "0"]
    assert out.count("oracle unavailable at r = ") == 1


def test_modes_csv_quotes_profile_commas(tmp_path):
    import csv
    out = tmp_path / "modes.csv"
    code, _ = _run(["modes", _data_path("ten_bus.grid"), "--csv", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert all(len(r) == 7 for r in rows)
    assert any("," in r[5] for r in rows[1:])  # grouped swing profile survives


def test_rank_lists_all_ordered_pairs():
    code, out = _run([
        "rank", _data_path("six_bus.grid"), "--const-v", "--mode", "2",
    ])
    assert code == 0
    rows = [ln for ln in out.splitlines() if ln.startswith("G")]
    assert len(rows) == 6  # 3 generators, ordered pairs


def test_dump_matrices(tmp_path):
    outdir = tmp_path / "mats"
    code, _ = _run([
        "pf", _data_path("three_bus_s7.grid"), "--dump-matrices", str(outdir),
    ])
    assert code == 0
    import numpy as np
    L = np.loadtxt(outdir / "L.csv", delimiter=",")
    H = np.loadtxt(outdir / "H.csv", delimiter=",")
    blocks = np.loadtxt(outdir / "Lp_blocks.csv", delimiter=",")
    assert L.shape == (5, 5)
    assert H.shape == (4, 5)
    assert blocks.shape == (3, 2)


@pytest.mark.parametrize("flags", [[], ["--const-v"]], ids=["full", "const-v"])
def test_modes_dumps_the_matrices_pf_dumps(tmp_path, flags):
    grid = _data_path("six_bus.grid")
    assert _run(["pf", grid, *flags, "--dump-matrices", str(tmp_path / "pf")])[0] == 0
    assert _run(["modes", grid, *flags, "--dump-matrices", str(tmp_path / "modes")])[0] == 0
    names = ["H.csv", "L.csv", "Lp_blocks.csv"]
    assert sorted(os.listdir(tmp_path / "modes")) == names
    for name in names:
        assert (tmp_path / "modes" / name).read_bytes() == (tmp_path / "pf" / name).read_bytes()


def test_sweep_prints_and_writes_a_failed_row_with_blank_cells(tmp_path):
    table = tmp_path / "sweep.csv"
    code, out = _run(["sweep", _data_path("six_bus.grid"), "--const-v", "--mode", "1",
                      "--pair", "G1:G3", "--r", "0.003,1e17", "--csv", str(table)])
    assert code == 0
    assert out.splitlines() == [
        "redispatch G1->G3, mode lambda = -0.174062 + 10.1379j",
        "r      sigma_exact  omega_exact  sigma_approx  omega_approx  zeta_exact  zeta_approx",
        "0.003  -0.174059    10.1369      -0.174059     10.1369       0.0171683   0.0171682",
        "1e+17                            9.89819e+13   -3.27378e+16              -0.00302346",
        "oracle unavailable at r = 1e+17: real power does not balance: redispatching by "
        "r = 1e+17 lost the balance to rounding (sum of injections = -8.000e+00)",
    ]
    assert table.read_text(encoding="utf-8") == (
        "r,sigma_exact,omega_exact,sigma_approx,omega_approx,zeta_exact,zeta_approx\n"
        "0.003,-0.174059,10.1369,-0.174059,10.1369,0.0171683,0.0171682\n"
        "1e+17,,,9.89819e+13,-3.27378e+16,,-0.00302346\n"
    )


def test_verify_green_and_deterministic():
    code, out = _run(["verify"])
    assert code == 0
    assert "verification PASSED" in out
    assert "FAIL" not in out.replace("FAILED", "")
    assert _run(["verify"]) == (code, out)


def test_non_finite_grid_value_is_validation_error(tmp_path, capsys):
    grid = tmp_path / "nan.grid"
    text = resources.files("oscdamp").joinpath("data", "three_bus_s7.grid").read_text()
    grid.write_text(text.replace("Pg=0.5 H=4.0", "Pg=nan H=nan"), encoding="utf-8")
    code = main(["pf", str(grid)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "oscdamp: line 4: Pg='nan' is not a finite number\n"


def test_eigenpair_residual_failure_is_convergence_exit(monkeypatch, capsys):
    from oscdamp import modal
    monkeypatch.setattr(modal, "MODE_RESIDUAL_REL", -1.0)
    code = main(["modes", _data_path("six_bus.grid"), "--const-v"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("oscdamp: eigenpair residual")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("old, new, label", [
    ("bus L3 L Pl=0.5 Ql=0.2", "bus L3 L Pl=0.5 Ql=0.2 D=-1.0", "L3"),
    ("Pg=0.5 H=4.0 D=0.5", "Pg=0.5 H=4.0 D=-0.5", "G1"),
])
def test_negative_damping_is_validation_error(tmp_path, capsys, old, new, label):
    grid = tmp_path / "negative_d.grid"
    text = resources.files("oscdamp").joinpath("data", "three_bus_s7.grid").read_text()
    assert old in text
    grid.write_text(text.replace(old, new), encoding="utf-8")
    for command in ("pf", "modes"):
        code = main([command, str(grid)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"oscdamp: bus {label!r} needs damping D >= 0\n"


TEN_BUS_LINE_1 = "line 1 G1 C7 x=0.0435\n"


@pytest.mark.parametrize("edit, message", [
    (lambda text: "system omega=50\n" + text,
     "line 1: system record has no field 'omega' (allowed: omega0)"),
    (lambda text: text.replace(TEN_BUS_LINE_1, "line 1 G1 C7 x=0.0435 x=9\n"),
     "line 19: x= given twice"),
    (lambda text: text.replace(TEN_BUS_LINE_1, "line 1 G1 C7 b=5 rate=9\n"),
     "line 19: line record has no field 'rate' (allowed: b x)"),
], ids=["misspelt-system-field", "repeated-line-field", "unknown-line-field"])
def test_no_grid_field_is_silently_ignored(tmp_path, capsys, edit, message):
    grid = tmp_path / "edited.grid"
    text = resources.files("oscdamp").joinpath("data", "ten_bus.grid").read_text()
    assert TEN_BUS_LINE_1 in text
    grid.write_text(edit(text), encoding="utf-8")
    for command in ("pf", "modes"):
        assert main([command, str(grid)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"oscdamp: {message}\n"


@pytest.mark.parametrize("text, message", [
    ("bus G1 G V=1.0 H=3.0\n", "grid has no lines"),
    (stiff_star_grid(1e308), "the line susceptances at bus 'G1' sum past the float range"),
], ids=["no-lines", "b-sum-overflow"])
def test_unusable_line_data_is_validation_error(tmp_path, capsys, text, message):
    grid = tmp_path / "lines.grid"
    grid.write_text(text, encoding="utf-8")
    for command in ("pf", "modes"):
        assert main([command, str(grid)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"oscdamp: {message}\n"


def test_qz_failure_exits_2_with_one_line(monkeypatch, capsys):
    fail_qz(monkeypatch)
    assert main(["modes", _data_path("six_bus.grid")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "oscdamp: QZ iteration failed (LAPACK dggev info = 1)\n"


def _not_utf8(tmp_path):
    path = tmp_path / "latin1.grid"
    text = resources.files("oscdamp").joinpath("data", "three_bus_s7.grid").read_text()
    path.write_bytes(text.encode() + b"# caf\xe9\n")
    return ["modes", str(path)]


def _file_in_the_way(tmp_path):
    (tmp_path / "taken").write_text("", encoding="utf-8")
    return ["pf", _data_path("three_bus_s7.grid"),
            "--dump-matrices", str(tmp_path / "taken" / "mats")]


SWEEP_SIX = ["sweep", _data_path("six_bus.grid"), "--const-v", "--mode", "2",
             "--pair", "G1:G3"]


@pytest.mark.parametrize("make_argv, code, message", [
    (lambda tmp: ["modes", str(tmp)], 64, "cannot read"),
    (_not_utf8, 1, "is not UTF-8 text"),
    (lambda tmp: ["modes", _data_path("six_bus.grid"), "--const-v",
                  "--csv", str(tmp / "missing" / "x.csv")], 64, "cannot write"),
    (lambda tmp: ["modes", _data_path("six_bus.grid"), "--const-v",
                  "--csv", str(tmp)], 64, "cannot write"),
    (lambda tmp: SWEEP_SIX + ["--r", "0.003", "--csv", str(tmp / "missing" / "x.csv")],
     64, "cannot write"),
    (_file_in_the_way, 64, "cannot write"),
    (lambda tmp: SWEEP_SIX + ["--r", "0.003,nan"], 64, "must be finite"),
    (lambda tmp: SWEEP_SIX + ["--r", "inf"], 64, "must be finite"),
    (lambda tmp: ["verify", "--seed", "-1"], 64, "--seed must be nonnegative"),
    # The write fails at close, where the OSError carries no file name.
    pytest.param(lambda tmp: ["rank", _data_path("ten_bus.grid"), "--mode", "1",
                              "--csv", "/dev/full"],
                 64, "cannot write /dev/full: No space left on device",
                 marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                          reason="no /dev/full")),
], ids=["grid-is-directory", "grid-not-utf8", "csv-missing-dir", "csv-is-directory",
        "sweep-csv-missing-dir", "dump-under-file", "r-nan", "r-inf", "negative-seed", "csv-device-full"])
def test_bad_paths_and_arguments_exit_with_one_line(tmp_path, capsys, make_argv, code, message):
    assert main(make_argv(tmp_path)) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("oscdamp: ")
    assert message in err


COLON_LABELS = ("bus G:1 G V=1 H=3 Pg=0.2 D=1\nbus G2 G V=1 H=4 Pg=-0.2 D=1\nbus L1 L\n"
                "line a G:1 L1 b=5\nline b G2 L1 b=5\n")
NESTED = ("A", "A:B", "B:C", "C")
NESTED_LABELS = "".join(f"bus {g} G V=1 H=3\n" for g in NESTED) + "bus L1 L\n" + \
    "".join(f"line {k} {g} L1 b=5\n" for k, g in enumerate(NESTED))


@pytest.mark.parametrize("pair, description", [("G:1:G2", "G:1->G2"), ("G2:G:1", "G2->G:1")])
def test_pair_names_a_generator_whose_label_has_a_colon(tmp_path, capsys, pair, description):
    grid = tmp_path / "colon.grid"
    grid.write_text(COLON_LABELS, encoding="utf-8")
    assert main(["rank", str(grid), "--mode", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[2].split()[:2] == ["G:1", "G2"]
    assert main(["sweep", str(grid), "--mode", "1", "--pair", pair, "--r", "0.01"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith(f"redispatch {description}, mode lambda = ")


def test_a_pair_that_splits_two_ways_is_a_usage_error(tmp_path, capsys):
    grid = tmp_path / "nested.grid"
    grid.write_text(NESTED_LABELS, encoding="utf-8")
    assert main(["sweep", str(grid), "--mode", "1", "--pair", "A:B:C", "--r", "0.01"]) == 64
    assert capsys.readouterr() == ("", "oscdamp: ambiguous --pair 'A:B:C': it splits into "
                                       "generator labels as A : B:C or A:B : C\n")


def test_no_command_imports_scipy_linalg():
    # A fresh process, since the test session itself has imported scipy.linalg.
    six = _data_path("six_bus.grid")
    script = f"""
import sys
from oscdamp.cli import main
mode = ["--const-v", "--mode", "2"]
for argv in (["pf", {six!r}], ["modes", {six!r}], ["sens", {six!r}, *mode],
             ["sweep", {six!r}, *mode, "--pair", "G1:G3", "--r", "0.003"],
             ["rank", {six!r}, *mode], ["verify"]):
    assert main(argv) == 0, argv
assert "scipy.linalg" not in sys.modules
"""
    proc = subprocess.run([sys.executable, "-c", script], env=_package_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _package_env() -> dict[str, str]:
    """The environment for a fresh process that imports this ``oscdamp``."""
    src = str(Path(oscdamp.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_a_reader_that_closes_stdout_early_gets_exit_141_and_no_traceback():
    # Unbuffered, so the next print after the close writes to the closed pipe.
    with subprocess.Popen([sys.executable, "-u", "-m", "oscdamp.cli", "verify"],
                          env=_package_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"== three_bus_s7: ok (locked)\n"
        proc.stdout.close()
        assert proc.wait(timeout=120) == 141
        assert proc.stderr.read() == b""


@pytest.mark.parametrize("argv, good, bad", [
    (["sweep", _data_path("six_bus.grid"), "--const-v", "--mode", "1", "--pair", "G1:G3"],
     "0.01", "1e+17"),
    (["sweep", _data_path("ten_bus.grid"), "--mode", "1", "--pair", "G1:G3"], None, "1e+09"),
], ids=["six-bus-keeps-the-good-row", "ten-bus"])
def test_a_redispatch_too_large_to_re_solve_is_a_row_failure(capsys, argv, good, bad):
    # The redispatched injections no longer balance to within the power-flow
    # tolerance; that ValidationError fails the row, not the command, and
    # blames the redispatch rather than the grid.
    amounts = [good, bad] if good else [bad]
    assert main(argv + ["--r", ",".join(amounts)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    assert sum("oracle unavailable" in ln for ln in lines) == 1
    assert lines[-1].startswith(f"oracle unavailable at r = {bad}: real power does not balance: "
                                f"redispatching by r = {bad} lost the balance to rounding")
    assert "slack bus" not in lines[-1]
    assert lines[-2].split()[0] == bad and len(lines[-2].split()) == 4  # no exact values
    if good:
        assert main(argv + ["--r", good]) == 0
        alone = capsys.readouterr().out.splitlines()
        assert lines[2].split() == alone[2].split() and len(alone[2].split()) == 7


def test_a_list_of_amounts_starting_negative_needs_the_equals_form(capsys):
    # argparse reads "-0.01,0.01" after a separate --r as an option, as the
    # --r help says.
    assert main(SWEEP_SIX + ["--r", "-0.01,0.01"]) == 64
    out, err = capsys.readouterr()
    assert out == "" and err == "oscdamp: argument --r: expected one argument\n"
    assert main(SWEEP_SIX + ["--r=-0.01,0.01"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [row.split()[0] for row in rows] == ["-0.01", "0.01"]
    assert all(len(row.split()) == 7 for row in rows)


OVERFLOW_MESSAGE = ("the dynamic coefficients 2H/omega0 and D/omega0 of bus 'G1' "
                    "leave the float range")
OVERFLOW_EDITS = {
    "huge-inertia": lambda text: text.replace("H=4.0", "H=1e308"),
    "tiny-omega0": lambda text: "system omega0=1e-308\n" + text,
}


@pytest.mark.parametrize("edit", OVERFLOW_EDITS.values(), ids=OVERFLOW_EDITS.keys())
def test_dynamic_coefficients_past_the_float_range_are_a_validation_error(
        tmp_path, capsys, edit):
    grid = tmp_path / "overflow.grid"
    text = resources.files("oscdamp").joinpath("data", "three_bus_s7.grid").read_text()
    grid.write_text(edit(text), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["modes", str(grid)]) == 1
    assert capsys.readouterr() == ("", f"oscdamp: {OVERFLOW_MESSAGE}\n")


class _NewError(errors.OscdampError):
    """A package error the CLI has never heard of."""


# The exit code each class of oscdamp.errors documents (README, Exit codes).
DOCUMENTED_EXIT_CODES = {
    "OscdampError": 2, "GridFormatError": 1, "ValidationError": 1, "ConvergenceError": 2,
    "SingularityError": 2, "DomainError": 1, "DegenerateModeError": 2, "ReductionError": 2,
    "OracleError": 2, "ModeMatchingError": 2, "UsageError": 64, "_NewError": 2,
}
PACKAGE_ERRORS = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
                  if issubclass(cls, errors.OscdampError)]


@pytest.mark.parametrize("cls", PACKAGE_ERRORS + [_NewError], ids=lambda cls: cls.__name__)
def test_every_package_error_exits_with_its_code_and_one_line(monkeypatch, capsys, cls):
    from oscdamp import cli

    def failing(args):
        raise cls("something went wrong")

    monkeypatch.setattr(cli, "cmd_pf", failing)
    assert main(["pf", "any.grid"]) == DOCUMENTED_EXIT_CODES[cls.__name__]
    assert capsys.readouterr() == ("", "oscdamp: something went wrong\n")


def test_the_readme_library_example_runs(capsys):
    # Run on a shipped fixture in place of case.grid; a name the package no
    # longer exports fails here.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    snippet = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert snippet.count('"case.grid"') == 1
    exec(snippet.replace('"case.grid"', repr(_data_path("ten_bus.grid"))), {})
    rows = capsys.readouterr().out.splitlines()
    assert [row.split()[0] for row in rows] == ["0.003", "0.01"]
