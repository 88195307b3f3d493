from __future__ import annotations

import inspect
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import oscdamp
from oscdamp import cases, errors, modal
from oscdamp.cli import main

from conftest import PERFBENCH, assert_refused, data_path, fail_qz, run_cli, stiff_star_grid

SHIPPED = {name: data_path(f"{name}.grid") for name in cases.FIXTURE_NAMES}
S7 = Path(SHIPPED["three_bus_s7"]).read_text(encoding="utf-8")
TEN = Path(SHIPPED["ten_bus"]).read_text(encoding="utf-8")


def split_command(command: str, **names: str) -> list[str]:
    """``command`` split at spaces, each word formatted with the paths of the
    shipped fixtures (``{six_bus}`` and so on) and ``names``."""
    return [word.format(**SHIPPED, **names) for word in command.split()]


def edited(text: str, old: str, new: str) -> str:
    """``text`` with its one ``old`` replaced by ``new``."""
    assert text.count(old) == 1, old
    return text.replace(old, new)


# Two generators behind one load bus. The variants are valid grids that push
# the float range: a set-point of 1e200 overflows Newton's trial points, a
# damping of 1e300 puts an eigenvalue at -D/(2H) = -1.7e299, a reactive
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
# Each overflows one quotient of the DAE pencil: -L/m at an inertia of 1e-300
# behind 1e10 lines, -d/m at a damping of 1e10 over it, and -L/d at a load
# damping of 1e-300 behind 1e10 lines.
TINY_H = STAR.replace("G V=1 H=3", "G V=1 H=1e-300", 1)
TINY_H_STIFF = TINY_H.replace("b=5", "b=1e10")
TINY_H_DAMPED = TINY_H.replace("H=1e-300", "H=1e-300 D=1e10")
TINY_LOAD_D_STIFF = STAR.replace("bus L1 L", "bus L1 L D=1e-300").replace("b=5", "b=1e10")
NON_FINITE_PENCIL = "the DAE pencil has a non-finite entry; QZ not attempted"
# Line a's b = 1e13 puts the roundoff floor of G1 and L1 at 0.14, but G2 and
# L2 sum b = 5 and 1: each bus's residual is accepted at its own floor, so
# the power flow refuses the state its Newton iteration stalls at.
STIFF_TIE = ("bus G1 G V=1 Pg=0.5 H=3 D=1\nbus G2 G V=1 Pg=0 H=3 D=1\nbus L1 L\n"
             "bus L2 L Pl=0.5 Ql=0.2 D=1\nline a G1 L1 b=1e13\nline b G2 L1 b=5\n"
             "line c L1 L2 b=1\n")
# Balanced and well-formed, but the load sits beyond the static transfer
# limit of the weak chain, so the power flow cannot converge.
COLLAPSE = ("bus G1 G V=1.0 Pg=0.6 H=4.0\nbus B2 L\nbus L3 L Pl=0.6 Ql=0.25\n"
            "line 1 G1 B2 x=0.4\nline 2 B2 L3 x=0.5\n")
COLON_LABELS = ("bus G:1 G V=1 H=3 Pg=0.2 D=1\nbus G2 G V=1 H=4 Pg=-0.2 D=1\nbus L1 L\n"
                "line a G:1 L1 b=5\nline b G2 L1 b=5\n")
NESTED = ("A", "A:B", "B:C", "C")
NESTED_LABELS = "".join(f"bus {g} G V=1 H=3\n" for g in NESTED) + "bus L1 L\n" + \
    "".join(f"line {k} {g} L1 b=5\n" for k, g in enumerate(NESTED))
TWO_BUS = "bus G1 G V=1 H=3\nbus L2 L\nline t G1 L2 {}\n"  # with the line's b= or x=
TEN_BUS_LINE_1 = "line 1 G1 C7 x=0.0435\n"
SWEEP_SIX = "sweep {six_bus} --const-v --mode 2 --pair G1:G3"
OVERFLOW_MESSAGE = ("the dynamic coefficients 2H/omega0 and D/omega0 of bus 'G1' "
                    "leave the float range")
IMBALANCE = ("real power does not balance: sum of injections = {} "
             "(the lossless model has no slack bus)")
# The line carries at most b V_1 V_2 = 1, so a transfer of 1 + 3e-11 has no
# equilibrium. Its residual is inside the power flow's 1e-10 acceptance, and
# flat-start Newton stops 2.2e-6 rad past the fold, where L[1:, 1:] < 0.
PAST_THE_FOLD = ("bus G1 G V=1 Pg=1.00000000003 H=3 D=1\nbus L2 L Pl=1.00000000003 D=1\n"
                 "line t G1 L2 b=1\n")
SADDLE = ("grounded Laplacian is not positive definite (LAPACK dpotrf info = 1); "
          "the equilibrium is singular or a saddle of the energy function")


def refusal(id, command, code, message, grid=None, fault=None, marks=()):
    """A row of REFUSALS. In ``command`` and ``message``, ``{grid}`` is the
    file ``grid`` (text or bytes) is written to and ``{tmp}`` its directory;
    ``fault(monkeypatch)`` patches the package before the run."""
    return pytest.param(command, grid, fault, code, message, id=id, marks=marks)


def pf_and_modes(id, grid, message):
    """The rows of a grid that both ``pf`` and ``modes`` reject as invalid."""
    return [refusal(f"{id}-{command}", f"{command} {{grid}}", 1, message, grid)
            for command in ("pf", "modes")]


# Every way a run is refused, each with its exact exit code and message.
REFUSALS = [
    refusal("missing-file", "pf missing.grid", 64, "file not found: missing.grid"),
    refusal("unknown-flag", "pf --frobnicate {six_bus}", 64,
            "unrecognized arguments: --frobnicate"),
    refusal("mode-out-of-range", "sens {six_bus} --const-v --mode 9", 64,
            "--mode 9 out of range 1..2"),
    refusal("no-mode-selected", "sens {six_bus} --const-v", 64,
            "select a mode with --mode INDEX or --mode-hz LO:HI"),
    refusal("window-catches-both-modes", "sens {six_bus} --const-v --mode-hz 0.1:9", 64,
            "--mode-hz 0.1:9 selects 2 modes; need exactly 1"),
    refusal("bad-mode-hz-window", "sens {six_bus} --const-v --mode-hz 0.1", 64,
            "bad --mode-hz window '0.1', expected LO:HI"),
    refusal("mode-and-mode-hz", "sens {ten_bus} --mode 3 --mode-hz 0.3:0.4", 64,
            "argument --mode-hz: not allowed with argument --mode"),
    refusal("ambiguous-pair", "sweep {grid} --mode 1 --pair A:B:C --r 0.01", 64,
            "ambiguous --pair 'A:B:C': it splits into generator labels as A : B:C or A:B : C",
            NESTED_LABELS),
    refusal("pair-without-colon", "sweep {six_bus} --const-v --mode 2 --pair G1 --r 0.01", 64,
            "bad --pair 'G1', expected GA:GB"),
    refusal("pair-of-one-generator", "sweep {six_bus} --const-v --mode 2 --pair G1:G1 --r 0.01",
            64, "redispatch pair must name two distinct generators"),
    refusal("bad-r-list", SWEEP_SIX + " --r 0.01,x", 64, "bad --r list '0.01,x'"),
    refusal("empty-r-list", SWEEP_SIX + " --r ,", 64, "--r needs at least one value"),
    refusal("r-nan", SWEEP_SIX + " --r 0.003,nan", 64, "redispatch amounts must be finite"),
    refusal("r-inf", SWEEP_SIX + " --r inf", 64, "redispatch amounts must be finite"),
    refusal("negative-seed", "verify --seed -1", 64, "--seed must be nonnegative, got -1"),
    refusal("grid-is-directory", "modes {tmp}", 64, "cannot read {tmp}: Is a directory"),
    refusal("grid-not-utf8", "modes {grid}", 1,
            "{grid} is not UTF-8 text: invalid continuation byte at byte 346",
            S7.encode() + b"# caf\xe9\n"),
    # The offset counts the byte-order mark.
    refusal("grid-not-utf8-after-a-byte-order-mark", "modes {grid}", 1,
            "{grid} is not UTF-8 text: invalid continuation byte at byte 349",
            b"\xef\xbb\xbf" + S7.encode() + b"# caf\xe9\n"),
    refusal("csv-missing-dir", "modes {six_bus} --const-v --csv {tmp}/missing/x.csv", 64,
            "cannot write {tmp}/missing/x.csv: No such file or directory"),
    refusal("csv-is-directory", "modes {six_bus} --const-v --csv {tmp}", 64,
            "cannot write {tmp}: Is a directory"),
    refusal("sweep-csv-missing-dir", SWEEP_SIX + " --r 0.003 --csv {tmp}/missing/x.csv", 64,
            "cannot write {tmp}/missing/x.csv: No such file or directory"),
    # The grid file stands where the dump directory would go.
    refusal("dump-under-file", "pf {grid} --dump-matrices {grid}/mats", 64,
            "cannot write {grid}/mats: Not a directory", S7),
    refusal("dump-is-a-pf-flag", "modes {six_bus} --const-v --dump-matrices {tmp}", 64,
            "unrecognized arguments: --dump-matrices {tmp}"),
    # The write fails at close, where the OSError carries no file name.
    refusal("csv-device-full", "rank {ten_bus} --mode 1 --csv /dev/full", 64,
            "cannot write /dev/full: No space left on device",
            marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")),
    refusal("no-buses", "pf {grid}", 1, "no bus records found", "# nothing but a comment\n"),
    refusal("imbalance", "pf {grid}", 1, IMBALANCE.format("4.000e-01"),
            "bus G1 G V=1 Pg=0.5 H=3\nbus L2 L Pl=0.1\nline t G1 L2 b=1\n"),
    # Raising L5's load by 5e-10 misses the power flow's acceptance of 1e-10,
    # which the parser balances at: exit 1, not a stalled exit 2.
    refusal("imbalance-past-the-power-flow-tolerance", "pf {grid}", 1,
            IMBALANCE.format("-5.000e-10"),
            edited(TEN, "Pl=10.110245 ", "Pl=10.1102450005 ")),
    refusal("non-finite-value", "pf {grid}", 1, "line 4: Pg='nan' is not a finite number",
            edited(S7, "Pg=0.5 H=4.0", "Pg=nan H=nan")),
    refusal("not-a-number", "pf {grid}", 1, "line 1: Pg='abc' is not a number",
            TWO_BUS.format("b=1").replace("H=3", "H=3 Pg=abc")),
    *[refusal(f"susceptance-{field}", "pf {grid}", 1,
              "line 't' needs a positive finite susceptance", TWO_BUS.format(field))
      for field in ("b=0", "x=0", "x=-2")],
    *pf_and_modes("negative-load-damping", edited(
        S7, "bus L3 L Pl=0.5 Ql=0.2", "bus L3 L Pl=0.5 Ql=0.2 D=-1.0"),
        "bus 'L3' needs damping D >= 0"),
    *pf_and_modes("negative-generator-damping", edited(
        S7, "Pg=0.5 H=4.0 D=0.5", "Pg=0.5 H=4.0 D=-0.5"),
        "bus 'G1' needs damping D >= 0"),
    # No grid field is silently ignored.
    *pf_and_modes("misspelt-system-field", "system omega=50\n" + TEN,
                  "line 1: system record has no field 'omega' (allowed: omega0)"),
    *pf_and_modes("repeated-line-field", edited(
        TEN, TEN_BUS_LINE_1, "line 1 G1 C7 x=0.0435 x=9\n"), "line 19: x= given twice"),
    *pf_and_modes("unknown-line-field", edited(
        TEN, TEN_BUS_LINE_1, "line 1 G1 C7 b=5 rate=9\n"),
        "line 19: line record has no field 'rate' (allowed: b x)"),
    *pf_and_modes("no-lines", "bus G1 G V=1.0 H=3.0\n", "grid has no lines"),
    *pf_and_modes("b-sum-overflow", stiff_star_grid(1e308),
                  "the line susceptances at bus 'G1' sum past the float range"),
    refusal("huge-inertia", "modes {grid}", 1, OVERFLOW_MESSAGE, edited(S7, "H=4.0", "H=1e308")),
    refusal("tiny-omega0", "modes {grid}", 1, OVERFLOW_MESSAGE, "system omega0=1e-308\n" + S7),
    refusal("collapse", "pf {grid}", 2,
            "power flow did not converge: residual max-norm 2.310e-01 > 1.0e-10", COLLAPSE),
    refusal("overflowing-trial-points", "pf {grid}", 2,
            "power flow did not converge: residual max-norm 5.000e+200 > 1.0e-10", STAR_HUGE_V),
    *[refusal(f"stiff-tie-{command}", f"{command} {{grid}}{flags}", 2,
              "power flow did not converge: residual max-norm 1.332e-01 > 1.0e-10", STIFF_TIE)
      for command, flags in (("pf", ""), ("modes", ""), ("rank", " --mode 1"))],
    refusal("singular-jacobian", "pf {grid}", 2, SINGULAR_PF, STAR_HEAVY_Q),
    refusal("non-finite-step", "pf {grid}", 2, SINGULAR_PF, STAR_SUBNORMAL_B),
    refusal("non-finite-step-const-v", "pf {grid} --const-v", 2, SINGULAR_PF, STAR_SUBNORMAL_B),
    refusal("saddle-past-the-fold", "modes {grid} --const-v", 2, SADDLE, PAST_THE_FOLD),
    refusal("saddle-past-the-fold-pf", "pf {grid} --const-v", 2, SADDLE, PAST_THE_FOLD),
    refusal("pencil-overflow-l-over-m", "modes {grid}", 2, NON_FINITE_PENCIL, TINY_H_STIFF),
    refusal("pencil-overflow-l-over-m-const-v", "modes {grid} --const-v", 2, NON_FINITE_PENCIL,
            TINY_H_STIFF),
    refusal("pencil-overflow-d-over-m", "modes {grid}", 2, NON_FINITE_PENCIL, TINY_H_DAMPED),
    refusal("pencil-overflow-l-over-d", "modes {grid}", 2, NON_FINITE_PENCIL,
            TINY_LOAD_D_STIFF),
    # Lines of b = 1e160 or 1e200 put the swing pair at +-7.9e80j or 7.9e100j,
    # but QZ's error on the defective rigid double zero grows with the pencil's
    # entries of about b/m: one copy comes back at -7.7e129 or -7.7e169 with
    # the uniform angle vector, whose backward error is 1/sqrt(3).
    *[refusal(f"unresolved-rigid-mode-b{b}{flags.replace(' --', '-')}",
              f"modes {{grid}}{flags}", 2,
              f"eigenpair residual 5.77e-01 exceeds 1e-09 for lambda = {lam}+0j",
              STAR.replace("b=5", f"b={b}"))
      for b, lam in (("1e160", "-7.74462e+129"), ("1e200", "-7.74462e+169"))
      for flags in ("", " --const-v")],
    refusal("qz-failure", "modes {six_bus}", 2,
            "QZ iteration failed (LAPACK dggev info = 1)", fault=fail_qz),
    refusal("eigenpair-residual", "modes {six_bus} --const-v", 2,
            "eigenpair residual 2.82e-22 exceeds -1e+00 for lambda = -20602.1+0j",
            fault=lambda mp: mp.setattr(modal, "MODE_RESIDUAL_REL", -1.0)),
]


@pytest.mark.parametrize("command, grid, fault, code, message", REFUSALS)
def test_bad_paths_and_arguments_exit_with_one_line(
        tmp_path, monkeypatch, command, grid, fault, code, message):
    names = {"grid": str(tmp_path / "case.grid"), "tmp": str(tmp_path)}
    if grid is not None:
        Path(names["grid"]).write_bytes(grid if isinstance(grid, bytes) else grid.encode())
    if fault is not None:
        fault(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_cli(split_command(command, **names))
    assert_refused(result, code, message.format(**names))


def test_modes_of_a_damping_past_the_square_range_print_no_warning(tmp_path, capsys):
    grid = tmp_path / "star.grid"
    grid.write_text(STAR_HUGE_D, encoding="utf-8")
    assert main(["modes", str(grid)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines()[1].split() == ["1", "0", "17.7245", "2.82095", "-0", "G2", "em"]
    # ||Q(lam)||_F stays finite, so the gate reads a residual, not 0.
    st = oscdamp.build_study(oscdamp.parse_grid_file(STAR_HUGE_D))
    mode, = st.oscillatory()
    assert 0 < mode.residual <= 1e-298
    # All n_dyn = 5 finite eigenvalues are kept, -D/(2H) of G1 among them.
    spectrum = modal.eigenpairs(st.dyn.m, st.dyn.d, st.bundle.L, st.network.n).spectrum
    assert spectrum.size == modal._pencil(st.dyn.m, st.dyn.d, st.bundle.L)[4] == 5
    assert min(abs(spectrum + 1e300 / 6)) <= 1e-15 * 1e300 / 6


@pytest.mark.parametrize("b, omega", [("1e25", "2.50663e+13"), ("1e33", "2.50663e+17")])
@pytest.mark.parametrize("flags", [[], ["--const-v"]], ids=["full", "const-v"])
def test_modes_of_stiff_lines_print_the_swing_pair(tmp_path, b, omega, flags):
    # The pair lies above 1e12 |beta| of QZ, where a tolerance on |beta| would
    # call it infinite and leave a copy of the rigid mode in the table.
    grid = tmp_path / "star.grid"
    grid.write_text(STAR.replace("b=5", f"b={b}"), encoding="utf-8")
    code, out, err = run_cli(["modes", str(grid), *flags])
    assert (code, err) == (0, "")
    _, row = out.splitlines()
    assert row.split()[2:3] + row.split()[5:8] == [omega, "G1", "<->", "G2"]


def test_pf_does_not_run_the_eigensolve(monkeypatch, tmp_path):
    # With every QZ call failing, pf succeeds and modes fails with one line.
    fail_qz(monkeypatch)
    grid = tmp_path / "stiff.grid"
    grid.write_text(stiff_star_grid(1e6), encoding="utf-8")
    code, _, err = run_cli(["pf", str(grid)])
    assert (code, err) == (0, "")
    assert_refused(run_cli(["modes", str(grid)]), 2,
                   "QZ iteration failed (LAPACK dggev info = 1)")


def test_the_stiff_tie_solves_with_constant_voltages(tmp_path):
    # Its angle-only power flow converges where the full one stalls.
    grid = tmp_path / "tie.grid"
    grid.write_text(STIFF_TIE, encoding="utf-8")
    code, out, err = run_cli(["pf", str(grid), "--const-v"])
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "residual max-norm: 5.55112e-17"


@pytest.mark.parametrize("const_v", [[], ["--const-v"]])
def test_modes_refines_the_pairs_qz_leaves_above_the_gate(tmp_path, const_v):
    # QZ leaves a pair of this stiff grid at a backward error of 3.7e-09;
    # Newton's method brings it under the 1e-9 gate.
    grid = tmp_path / "stiff.grid"
    grid.write_text(stiff_star_grid(1e6), encoding="utf-8")
    code, out, _ = run_cli(["modes", str(grid)] + const_v)
    assert code == 0
    assert len([ln for ln in out.splitlines() if ln.endswith("em")]) == 2


def test_pf_and_modes_output():
    code, out, _ = run_cli(["pf", data_path("six_bus.grid"), "--const-v"])
    assert code == 0
    assert "residual max-norm" in out
    code, out, _ = run_cli(["modes", data_path("six_bus.grid"), "--const-v"])
    assert code == 0
    em_rows = [ln for ln in out.splitlines() if ln.rstrip().endswith("em")]
    assert len(em_rows) == 2
    freqs = sorted(float(r.split()[3]) for r in em_rows)
    assert 1.4 < freqs[0] < freqs[1] < 2.0


def test_modes_deterministic_output():
    args = ["modes", data_path("ten_bus.grid")]
    assert run_cli(args) == run_cli(args)


def test_sens_prints_coefficients():
    code, out, _ = run_cli([
        "sens", data_path("ten_bus.grid"), "--mode-hz", "0.2:1.0",
    ])
    assert code == 0
    assert "alpha" in out
    assert "dtheta_coeff_re" in out
    assert "dvln_coeff_re" in out


def test_sweep_csv_schema(tmp_path):
    csv_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli([
        "sweep", data_path("six_bus.grid"), "--const-v", "--mode", "2",
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
    from oscdamp import dispatch
    from oscdamp.study import build_study
    st = build_study(cases.load_fixture("three_bus_s9").network, const_v=True)
    mode = st.electromechanical()[0]
    plan = dispatch.plan_between(st.network, "G1", "G3")
    r = -mode.omega / dispatch.ModePath(st.network, st.op, mode, plan).slope().imag
    row, = dispatch.sweep(st.network, st.op, mode, plan, [r])
    assert row.lambda_approx == 0
    code, out, _ = run_cli(["sweep", data_path("three_bus_s9.grid"), "--const-v", "--mode", "1",
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
    code, _, _ = run_cli(["modes", data_path("ten_bus.grid"), "--csv", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert all(len(r) == 7 for r in rows)
    assert any("," in r[5] for r in rows[1:])  # grouped swing profile survives


def test_rank_lists_all_ordered_pairs():
    code, out, _ = run_cli([
        "rank", data_path("six_bus.grid"), "--const-v", "--mode", "2",
    ])
    assert code == 0
    rows = [ln for ln in out.splitlines() if ln.startswith("G")]
    assert len(rows) == 6  # 3 generators, ordered pairs


@pytest.mark.parametrize("flags, n_states", [([], 5), (["--const-v"], 3)],
                         ids=["full", "const-v"])
def test_dump_matrices(tmp_path, flags, n_states):
    # three_bus_s7 has 3 bus angles, 2 load voltages (full model only) and 2 lines.
    outdir = tmp_path / "mats"
    code, _, _ = run_cli([
        "pf", data_path("three_bus_s7.grid"), *flags, "--dump-matrices", str(outdir),
    ])
    assert code == 0
    assert sorted(os.listdir(outdir)) == ["H.csv", "L.csv", "Lp_blocks.csv"]
    import numpy as np
    L = np.loadtxt(outdir / "L.csv", delimiter=",")
    H = np.loadtxt(outdir / "H.csv", delimiter=",")
    blocks = np.loadtxt(outdir / "Lp_blocks.csv", delimiter=",")
    assert L.shape == (n_states, n_states)
    assert H.shape == (n_states - 1, n_states)
    assert blocks.shape == (3, 2)


def test_sweep_prints_and_writes_a_failed_row_with_blank_cells(tmp_path):
    table = tmp_path / "sweep.csv"
    code, out, _ = run_cli(["sweep", data_path("six_bus.grid"), "--const-v", "--mode", "1",
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
    result = code, out, _ = run_cli(["verify"])
    assert code == 0
    assert "verification PASSED" in out
    assert "FAIL" not in out.replace("FAILED", "")
    assert run_cli(["verify"]) == result


def test_verify_fails_on_a_missed_verified_quantity_and_a_missed_spot_check(monkeypatch):
    quantities = cases._QUANTITY_FNS["three_bus_s7"]
    monkeypatch.setitem(cases._QUANTITY_FNS, "three_bus_s7",
                        lambda st: {**quantities(st), "em_count": 1.0})
    oracle, calls = cases.finite_difference_sensitivity, []

    def second_draw_missed(*args):
        calls.append(args)
        return oracle(*args) + (1.0 if len(calls) == 2 else 0.0)

    monkeypatch.setattr(cases, "finite_difference_sensitivity", second_draw_missed)
    code, out, err = run_cli(["verify"])
    assert (code, err) == (3, "")
    lines = out.splitlines()
    assert lines[0] == "== three_bus_s7: FAILED (locked)"
    assert [ln.split()[1] for ln in lines if ln.startswith("FAIL")] == ["em_count", "random[1]"]
    assert lines[-1] == "verification FAILED (contingent mismatches are warnings)"


def test_a_grid_file_with_a_byte_order_mark_reads_as_the_same_text(tmp_path):
    grid = tmp_path / "bom.grid"
    grid.write_bytes(b"\xef\xbb\xbf" + Path(SHIPPED["three_bus_s7"]).read_bytes())
    golden = (PERFBENCH / "goldens" / "three_bus_s7.pf.out").read_text(encoding="utf-8")
    assert run_cli(["pf", str(grid)]) == (0, golden, "")


@pytest.mark.parametrize("pair, description", [("G:1:G2", "G:1->G2"), ("G2:G:1", "G2->G:1")])
def test_pair_names_a_generator_whose_label_has_a_colon(tmp_path, capsys, pair, description):
    grid = tmp_path / "colon.grid"
    grid.write_text(COLON_LABELS, encoding="utf-8")
    assert main(["rank", str(grid), "--mode", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[2].split()[:2] == ["G:1", "G2"]
    assert main(["sweep", str(grid), "--mode", "1", "--pair", pair, "--r", "0.01"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith(f"redispatch {description}, mode lambda = ")


def test_no_command_imports_scipy_linalg():
    # A fresh process, since the test session itself has imported scipy.linalg.
    six = data_path("six_bus.grid")
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
    (["sweep", data_path("six_bus.grid"), "--const-v", "--mode", "1", "--pair", "G1:G3"],
     "0.01", "1e+17"),
    (["sweep", data_path("ten_bus.grid"), "--mode", "1", "--pair", "G1:G3"], None, "1e+09"),
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


def test_a_list_of_amounts_starting_negative_needs_the_equals_form():
    # argparse reads "-0.01,0.01" after a separate --r as an option, as the
    # --r help says.
    assert_refused(run_cli(split_command(SWEEP_SIX + " --r -0.01,0.01")), 64,
                   "argument --r: expected one argument")
    code, out, _ = run_cli(split_command(SWEEP_SIX + " --r=-0.01,0.01"))
    assert code == 0
    rows = out.splitlines()[2:]
    assert [row.split()[0] for row in rows] == ["-0.01", "0.01"]
    assert all(len(row.split()) == 7 for row in rows)


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
def test_every_package_error_exits_with_its_code_and_one_line(monkeypatch, cls):
    from oscdamp import cli

    def failing(args):
        raise cls("something went wrong")

    monkeypatch.setattr(cli, "cmd_pf", failing)
    assert_refused(run_cli(["pf", "any.grid"]), DOCUMENTED_EXIT_CODES[cls.__name__],
                   "something went wrong")


README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
LIBRARY_SECTION = README.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
LIBRARY_BLOCKS = [part.split("```", 1)[0] for part in LIBRARY_SECTION.split("```python\n")[1:]]


def test_the_readme_library_example_runs(capsys):
    # Every python block of the section runs, in order, in one namespace, on
    # a shipped fixture in place of case.grid; a name the package no longer
    # exports fails here.
    assert len(LIBRARY_BLOCKS) == 2 and "".join(LIBRARY_BLOCKS).count('"case.grid"') == 1
    namespace = {}
    for block in LIBRARY_BLOCKS:
        exec(block.replace('"case.grid"', repr(data_path("ten_bus.grid"))), namespace)
    rows = capsys.readouterr().out.splitlines()
    assert [row.split()[0] for row in rows] == ["0.003", "0.01"]
    assert namespace["gains"].shape == namespace["dtheta"].shape


def test_the_top_level_exports_the_readme_library_names_and_the_errors():
    used = set(re.findall(r"\bod\.(\w+)", "".join(LIBRARY_BLOCKS)))
    exported = set(oscdamp.__all__)
    assert used <= exported
    assert {cls.__name__ for cls in PACKAGE_ERRORS} <= exported
    for name in exported:
        assert hasattr(oscdamp, name), name
        if name not in vars(errors):
            assert re.search(rf"(`|\bod\.){name}\b", LIBRARY_SECTION), name
