from __future__ import annotations

import io
from contextlib import redirect_stdout
from importlib import resources

import pytest

from oscdamp.cli import main

from conftest import stiff_star_grid


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


def test_pf_does_not_run_the_eigensolve(tmp_path, capsys):
    # The power flow of this stiff grid converges, but its eigenpairs miss the
    # QEP backward-error bound: pf succeeds and modes fails with one line.
    grid = tmp_path / "stiff.grid"
    grid.write_text(stiff_star_grid(1e6), encoding="utf-8")
    assert main(["pf", str(grid)]) == 0
    assert capsys.readouterr().err == ""
    assert main(["modes", str(grid)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("oscdamp: eigenpair residual")
    assert captured.err.count("\n") == 1


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
    (_file_in_the_way, 64, "cannot write"),
    (lambda tmp: SWEEP_SIX + ["--r", "0.003,nan"], 64, "must be finite"),
    (lambda tmp: SWEEP_SIX + ["--r", "inf"], 64, "must be finite"),
    (lambda tmp: ["verify", "--seed", "-1"], 64, "--seed must be nonnegative"),
], ids=["grid-is-directory", "grid-not-utf8", "csv-missing-dir", "csv-is-directory",
        "dump-under-file", "r-nan", "r-inf", "negative-seed"])
def test_bad_paths_and_arguments_exit_with_one_line(tmp_path, capsys, make_argv, code, message):
    assert main(make_argv(tmp_path)) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("oscdamp: ")
    assert message in err
