from __future__ import annotations

import math
import os
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from oscdamp import ConvergenceError, DegenerateModeError, ReductionError, UsageError, modal
from oscdamp.cases import random_network
from oscdamp.modal import Mode, _pencil, alpha, backward_errors, reduced_jacobian, solve_qep
from oscdamp.network import parse_grid_file
from oscdamp.study import build_study

from conftest import (
    companion_spectrum, fail_qz, perfbench_module, stiff_star_grid, zero_damping_variant,
)

TOY_L = np.array([[1.0, -1.0], [-1.0, 1.0]])
TOY_M = np.ones(2)
TOY_D = np.zeros(2)


def extended_jacobian(m_diag, d_diag, L):
    """Singular pencil (E, J) whose finite eigenstructure matches the QEP.

    State order: dynamic z rows, then one speed per inertial row, then
    algebraic z rows; E = blockdiag(I, 0). A finite eigenvector carries
    lam * x_g in its speed block.
    """
    E, J, *_ = _pencil(np.asarray(m_diag, float), np.asarray(d_diag, float), L)
    return E, J


def _match_spectra(a, b, tol):
    scale = max(np.max(np.abs(a)), 1.0)
    for lam in a:
        assert np.min(np.abs(np.asarray(b) - lam)) < tol * scale, lam


def test_toy_two_generator_mode():
    modes = solve_qep(TOY_M, TOY_D, TOY_L)
    assert len(modes) == 1
    md = modes[0]
    assert abs(md.lam - 1j * math.sqrt(2)) < 1e-12
    assert np.allclose(md.x, [1.0, -1.0])


def test_toy_extended_jacobian_correspondence():
    E, J = extended_jacobian(TOY_M, TOY_D, TOY_L)
    assert np.array_equal(E, np.eye(4))  # fully dynamic: no algebraic block
    alph, beta = scipy.linalg.eig(J, E, right=False, homogeneous_eigvals=True)
    lams = alph / beta
    expect = np.array([0, 0, 1j * np.sqrt(2), -1j * np.sqrt(2)])
    _match_spectra(lams, expect, 1e-9)
    _match_spectra(expect, lams, 1e-9)
    # Speed block carries lam times the generator angle block. The defective
    # zero pair has no second true eigenvector, so check the oscillatory ones.
    w, vr = scipy.linalg.eig(J, E)
    checked = 0
    for i in range(4):
        lam, v = w[i], vr[:, i]
        if abs(lam) < 1e-8:
            continue
        assert np.linalg.norm(v[2:] - lam * v[:2]) < 1e-12 * np.linalg.norm(v)
        checked += 1
    assert checked == 2


def test_pencil_state_ordering_blockdiag_identity(random_suite):
    for net, st in random_suite[:6]:
        E, J = extended_jacobian(st.dyn.m, st.dyn.d, st.bundle.L)
        n_dyn = int(np.sum((st.dyn.m > 0) | (st.dyn.d > 0)) + np.sum(st.dyn.m > 0))
        assert np.array_equal(E[:n_dyn, :n_dyn], np.eye(n_dyn))
        assert not E[n_dyn:].any()
        assert not E[:, n_dyn:].any()


def test_pencil_eigenvector_correspondence(random_suite):
    for net, st in random_suite[:6]:
        E, J, zcol, inertial, n_dyn = _pencil(st.dyn.m, st.dyn.d, st.bundle.L)
        speed = np.arange(n_dyn - inertial.size, n_dyn)
        (alph, beta), vr = scipy.linalg.eig(J, E, homogeneous_eigvals=True)
        finite = np.abs(beta) > 1e-12 * np.hypot(np.abs(alph), np.abs(beta))
        for i in np.where(finite)[0]:
            lam = alph[i] / beta[i]
            v = vr[:, i]
            for z_row, s_col in zip(inertial, speed):
                resid = abs(v[s_col] - lam * v[zcol[z_row]])
                assert resid < 1e-9 * np.linalg.norm(v)


def test_finite_spectrum_count(fixture_studies, random_suite):
    studies = [st for _, st in random_suite]
    studies += [build_study(fx.network, const_v=const_v)
                for fx, _ in fixture_studies.values() for const_v in (False, True)]
    grids = perfbench_module("grids")  # the 50-bus meshed grids of the benchmark
    studies += [build_study(parse_grid_file(grids.synthetic_grid(40, 10, seed)[0]))
                for seed in range(100, 104)]
    for st in studies:
        md, dd = st.dyn.m, st.dyn.d
        E, J = extended_jacobian(md, dd, st.bundle.L)
        alph, beta = scipy.linalg.eig(J, E, right=False, homogeneous_eigvals=True)
        finite = np.abs(beta) > 1e-12 * np.hypot(np.abs(alph), np.abs(beta))
        n_inertial = int(np.sum(md > 0))
        n_first_order = int(np.sum((md == 0) & (dd > 0)))
        assert int(finite.sum()) == 2 * n_inertial + n_first_order
        # eigenpairs keeps exactly these n_dyn finite eigenvalues.
        pairs = modal.eigenpairs(md, dd, st.bundle.L, n_angles=st.network.n)
        assert pairs.spectrum.size == 2 * n_inertial + n_first_order
        # Companion view: the QEP has 2 nz eigenvalues; the infinite ones
        # number twice the algebraic variables plus the first-order rows.
        comp = companion_spectrum(md, dd, st.bundle.L)
        n_alg = int(np.sum((md == 0) & (dd == 0)))
        assert 2 * md.size - comp.size == 2 * n_alg + n_first_order


def test_reduced_jacobian_no_algebraic_block_is_identity_case():
    J_red = reduced_jacobian(TOY_M, TOY_D, TOY_L)
    _, J = extended_jacobian(TOY_M, TOY_D, TOY_L)
    assert np.array_equal(J_red, J)


@pytest.mark.parametrize("L", [np.zeros((2, 2)), np.array([[1.0, 1.0], [1.0, np.nan]])],
                         ids=["singular", "non-finite"])
def test_reduced_jacobian_rejects_an_algebraic_block_it_cannot_solve(L):
    # Row 1 is algebraic (m = d = 0): LAPACK reports the zero block singular,
    # and the NaN one solves to a non-finite value.
    with pytest.raises(ReductionError, match="^algebraic block is singular"):
        reduced_jacobian(np.array([1.0, 0.0]), np.zeros(2), L)


def test_reduced_jacobian_with_connecting_bus():
    # A connecting bus (P = Q = 0) adds algebraic rows; the reduction must
    # succeed and preserve the finite spectrum.
    st = random_network(11)
    red_spec = np.linalg.eigvals(reduced_jacobian(st.dyn.m, st.dyn.d, st.bundle.L))
    E, J = extended_jacobian(st.dyn.m, st.dyn.d, st.bundle.L)
    alph, beta = scipy.linalg.eig(J, E, right=False, homogeneous_eigvals=True)
    finite = np.abs(beta) > 1e-12 * np.hypot(np.abs(alph), np.abs(beta))
    _match_spectra(alph[finite] / beta[finite], red_spec, 1e-9)


def test_conjugate_symmetry_before_filtering(random_suite):
    net, st = random_suite[2]
    E, J = extended_jacobian(st.dyn.m, st.dyn.d, st.bundle.L)
    alph, beta = scipy.linalg.eig(J, E, right=False, homogeneous_eigvals=True)
    finite = np.abs(beta) > 1e-12 * np.hypot(np.abs(alph), np.abs(beta))
    spec = alph[finite] / beta[finite]
    _match_spectra(spec, np.conj(spec), 1e-9)


def test_mode_residual_invariant(fixture_studies):
    for _, st in fixture_studies.values():
        for md in st.modes:
            assert md.residual < 1e-9


def _dense_backward_error(lam, x, m_diag, d_diag, L) -> float:
    """||Q(lam) x|| / (||x|| ||Q(lam)||_F) with Q(lam) formed densely."""
    Q = L.astype(complex)
    Q[np.diag_indices_from(Q)] += lam * lam * m_diag + lam * d_diag
    return float(np.linalg.norm(Q @ x) / (np.linalg.norm(x) * np.linalg.norm(Q)))


def test_mode_residual_matches_dense_reference(fixture_studies, random_suite):
    # Exact eigenpairs have residuals at roundoff, where the two summation
    # orders differ by a fraction of themselves; the residuals are already
    # relative, so they are compared to 1e-12 of ||x|| ||Q(lam)||_F.
    studies = [st for _, st in fixture_studies.values()] + [st for _, st in random_suite]
    checked = 0
    for st in studies:
        for md in st.modes:
            ref = _dense_backward_error(md.lam, md.x, st.dyn.m, st.dyn.d, st.bundle.L)
            assert abs(md.residual - ref) <= 1e-12
            checked += 1
    assert checked > 100


def test_backward_errors_match_dense_reference_off_eigenpairs(random_suite):
    # Away from eigenpairs the residual is O(1), so the Frobenius-norm
    # identity and the L X + S o X product must match the dense form closely.
    rng = np.random.default_rng(11)
    for _, st in random_suite[:10]:
        nz = st.dyn.m.size
        lams = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        X = rng.standard_normal((nz, 4)) + 1j * rng.standard_normal((nz, 4))
        got = backward_errors(lams, X, st.dyn.m, st.dyn.d, st.bundle.L)
        for k in range(4):
            ref = _dense_backward_error(lams[k], X[:, k], st.dyn.m, st.dyn.d, st.bundle.L)
            assert abs(got[k] - ref) <= 1e-12 * ref


def test_newton_eigenpair_returns_to_a_qz_pair_from_a_nearby_start(random_suite):
    rng = np.random.default_rng(5)
    for _, st in random_suite[:10]:
        for md in st.oscillatory():
            k = int(np.argmax(np.abs(md.x)))
            noise = rng.standard_normal((2, md.x.size))
            x0 = md.x + 1e-4 * (noise[0] + 1j * noise[1])
            x0[k] = md.x[k]
            lam, x, residual = modal.newton_eigenpair(
                md.lam * (1 + 1e-4), x0, st.dyn.m, st.dyn.d, st.bundle.L, k)
            assert abs(lam - md.lam) <= 1e-12 * abs(md.lam)
            assert x[k] == md.x[k]
            assert residual == backward_errors(np.array([lam]), x[:, None], st.dyn.m,
                                               st.dyn.d, st.bundle.L)[0] <= 1e-15


def test_newton_eigenpair_gives_up_without_raising(random_suite, monkeypatch):
    _, st = random_suite[0]
    md = st.oscillatory()[0]
    args = (st.dyn.m, st.dyn.d, st.bundle.L, 0)
    # A zero start makes the bordered matrix singular; a NaN in the Hessian
    # makes the step non-finite; a far start needs more than one step.
    assert modal.newton_eigenpair(md.lam, np.zeros_like(md.x), *args) is None
    nan_hessian = st.bundle.L.copy()
    nan_hessian[0, 0] = np.nan
    assert modal.newton_eigenpair(md.lam, md.x, st.dyn.m, st.dyn.d, nan_hessian, 0) is None
    monkeypatch.setattr(modal, "NEWTON_MAX_STEPS", 1)
    assert modal.newton_eigenpair(md.lam * 1.1, md.x, *args) is None


@pytest.mark.parametrize("const_v", [False, True])
def test_eigenpairs_refines_the_pairs_qz_leaves_above_the_gate(monkeypatch, const_v):
    st = build_study(parse_grid_file(stiff_star_grid(1e6)), const_v=const_v)
    args = (st.dyn.m, st.dyn.d, st.bundle.L)
    pairs = modal.eigenpairs(*args, n_angles=st.network.n)
    assert np.all(pairs.residuals <= modal.MODE_RESIDUAL_REL)
    # A refined residual is at roundoff, where the summation order shows.
    assert np.allclose(pairs.residuals, backward_errors(pairs.lams, pairs.X.T, *args),
                       rtol=0.0, atol=1e-15)
    for lam, x in zip(pairs.lams, pairs.X):
        assert np.max(np.abs(x[pairs.gen_rows])) == pytest.approx(1.0, abs=1e-12)
        assert lam in pairs.spectrum
        assert np.min(np.abs(pairs.spectrum - np.conj(lam))) <= 1e-15 * abs(lam)
    # QZ alone leaves one of them above the gate.
    monkeypatch.setattr(modal, "newton_eigenpair", lambda *args: None)
    with pytest.raises(ConvergenceError, match=r"^eigenpair residual 3\.7.e-09 exceeds 1e-09"):
        modal.eigenpairs(*args, n_angles=st.network.n)


def test_solve_qep_rejects_negative_damping():
    with pytest.raises(UsageError, match="nonnegative"):
        solve_qep(np.array([1.0, 0.0]), np.array([0.0, -1.0]), TOY_L)


def test_empty_problem_has_no_modes():
    assert solve_qep(np.zeros(0), np.zeros(0), np.zeros((0, 0))) == []


def test_non_finite_pencil_is_convergence_error():
    L = TOY_L.copy()
    L[0, 1] = np.nan
    with pytest.raises(ConvergenceError, match="^the DAE pencil has a non-finite entry"):
        solve_qep(TOY_M, TOY_D, L)


def test_qz_failure_is_convergence_error(monkeypatch):
    fail_qz(monkeypatch)
    with pytest.raises(ConvergenceError, match=r"^QZ iteration failed \(LAPACK dggev info = 1\)$"):
        solve_qep(TOY_M, TOY_D, TOY_L)


def test_the_eigensolve_calls_scipys_own_lapack_and_blas_routines():
    # On an ILP64 scipy build get_blas_funcs would hand out _fblas_64's nrm2.
    assert modal._DGGEV is scipy.linalg.lapack.dggev
    assert modal._DNRM2 is scipy.linalg.get_blas_funcs(
        "nrm2", dtype=np.float64, ilp64="preferred")
    assert modal._DZNRM2 is scipy.linalg.get_blas_funcs(
        "nrm2", dtype=np.complex128, ilp64="preferred")


def test_the_ranking_solve_calls_scipys_own_cholesky_routines():
    assert modal._DPOTRF is scipy.linalg.lapack.dpotrf
    assert modal._DPOTRS is scipy.linalg.lapack.dpotrs


def test_a_missing_scipy_extension_is_one_import_error_naming_its_file():
    stem = os.path.join(scipy.__path__[0], "linalg", "_no_such_wrapper")
    with pytest.raises(ImportError, match=re.escape(stem)) as info:
        modal._linalg_extension("_no_such_wrapper")
    assert info.value.__context__ is None
    assert Path(info.traceback[-1].path) == Path(modal.__file__)
    assert "scipy.linalg._no_such_wrapper" not in sys.modules


def test_uniform_damping_pins_real_parts():
    # d_i/m_i identical on all machines, no load damping: every oscillatory
    # eigenvalue sits at -c/2.
    net = zero_damping_variant(random_network(17).network)
    from dataclasses import replace as drep
    buses = []
    for b in net.buses:
        if b.is_generator:
            buses.append(drep(b, damping_d_seconds=0.8 * b.inertia_h))
        else:
            buses.append(b)
    net_c = type(net)(buses=tuple(buses), lines=net.lines, omega0=net.omega0)
    st = build_study(net_c)
    c = 0.8 / 2.0  # d/m = D_sec/(2 h) = 0.8/2
    for md in st.oscillatory():
        assert abs(md.sigma + c / 2.0) < 1e-9


def test_zero_damping_spectrum_imaginary_and_real_vectors():
    for seed in (5, 6):
        net = zero_damping_variant(random_network(seed).network)
        st = build_study(net)
        assert st.modes, "expected at least one mode"
        for md in st.modes:
            assert abs(md.sigma) < 1e-10
            rotated = md.x * np.exp(-1j * np.angle(md.x[np.argmax(np.abs(md.x))]))
            assert np.max(np.abs(rotated.imag)) < 1e-9 * np.max(np.abs(rotated))


def test_resonance_warning_on_duplicate_spectrum():
    # A symmetric three-machine ring has an exactly repeated oscillatory
    # eigenvalue at sqrt(3 b / m).
    ring = np.array([
        [2.0, -1.0, -1.0],
        [-1.0, 2.0, -1.0],
        [-1.0, -1.0, 2.0],
    ])
    modes = solve_qep(np.ones(3), np.zeros(3), ring)
    assert len(modes) == 2
    assert all(abs(md.lam - 1j * math.sqrt(3)) < 1e-9 for md in modes)
    assert all(any("near-resonant" in w for w in md.warnings) for md in modes)


def test_alpha_zero_damping_form(fixture_studies):
    _, st = fixture_studies["three_bus_s9"]
    md = st.electromechanical()[0]
    a = alpha(md, st.dyn.m, st.dyn.d)
    x = md.x.real
    expected = 2j * md.omega * (x @ (st.dyn.m * x))
    assert abs(a - expected) < 1e-12 * abs(a)


def test_alpha_scales_quadratically(fixture_studies):
    _, st = fixture_studies["six_bus"]
    md = st.electromechanical()[0]
    c = 0.7 - 1.3j
    scaled = replace(md, x=c * md.x)
    a1 = alpha(md, st.dyn.m, st.dyn.d)
    a2 = alpha(scaled, st.dyn.m, st.dyn.d)
    assert abs(a2 - c * c * a1) < 1e-12 * abs(a2)


def test_alpha_matches_termwise_sum(random_suite):
    net, st = random_suite[4]
    md = st.electromechanical()[0]
    a = alpha(md, st.dyn.m, st.dyn.d)
    brute = sum(
        2 * md.lam * st.dyn.m[i] * md.x[i] ** 2 + st.dyn.d[i] * md.x[i] ** 2
        for i in range(md.x.size)
    )
    assert abs(a - brute) < 1e-12 * abs(a)


def test_alpha_degeneracy_raises():
    md = Mode(
        lam=1j, x=np.array([1.0, 1.0], dtype=complex), residual=0.0,
        swing_groups=((), ()), electromechanical=True,
    )
    with pytest.raises(DegenerateModeError):
        alpha(md, np.zeros(2), np.zeros(2))


def test_mode_summary_published_arithmetic():
    def summarize(lam):
        md = Mode(lam=lam, x=np.array([1.0 + 0j]), residual=0.0,
                  swing_groups=((), ()), electromechanical=True)
        return md.freq_hz, 100.0 * md.damping_ratio

    f1, z1 = summarize(complex(-0.175611, 9.66364))
    assert abs(f1 / 1.53802 - 1) < 1e-5
    assert abs(z1 / 1.81694 - 1) < 1e-5
    f2, z2 = summarize(complex(-0.166826, 10.8247))
    assert abs(f2 / 1.72281 - 1) < 1e-5
    assert abs(z2 / 1.54097 - 1) < 1e-5
    # sigma = 0 gives exactly zero damping ratio.
    _, z3 = summarize(complex(0.0, 5.0))
    assert z3 == 0.0


def test_swing_profiles_on_fixtures(fixture_studies):
    _, ten = fixture_studies["ten_bus"]
    interarea = ten.electromechanical()[0]
    assert interarea.swing_groups == (("G1", "G2"), ("G3", "G4"))
    assert interarea.swing_profile == "G1,G2 <-> G3,G4"
    _, six = fixture_studies["six_bus"]
    md2 = six.electromechanical()[1]
    assert md2.swing_groups == (("G2",), ("G1",))  # G3 is below the participation threshold
    assert md2.swing_profile == "G2 <-> G1"


@pytest.mark.parametrize("groups, text", [
    ((("G1", "G2"), ("G3",)), "G1,G2 <-> G3"),
    ((("G1",), ()), "G1"),
    (((), ("G2",)), "G2"),
    (((), ()), ""),
])
def test_swing_profile_is_the_text_of_the_groups(groups, text):
    md = Mode(lam=1j, x=np.array([1.0 + 0j]), residual=0.0, swing_groups=groups,
              electromechanical=True)
    assert md.swing_profile == text
