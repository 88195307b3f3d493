"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line when it completes (visible with -s or on
failure); the binding numeric work happens inside the asserts. Criteria tied
to reconstructed network data downgrade to warnings when the reconstruction
does not lock onto the published tables.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import replace

import numpy as np
import scipy.linalg

from oscdamp import cases, dispatch, modal, sensitivity
from oscdamp.network import line_states
from oscdamp.study import build_study

from conftest import balanced_directions


def _fixtures_with_redispatch(fixture_studies):
    return [(name, fx, st) for name, (fx, st) in fixture_studies.items()
            if st.network.m >= 2]


def test_criterion_01_factorization_identity(fixture_studies, random_suite):
    studies = [st for _, st in fixture_studies.values()] + \
              [st for _, st in random_suite]
    t0 = time.perf_counter()
    worst = 0.0
    for st in studies:
        L = st.bundle.L
        dev = np.max(np.abs(L - st.bundle.assemble_from_parts()))
        rel = dev / np.max(np.abs(L))
        worst = max(worst, rel)
        assert rel < 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nCRITERION 1 PASS: factorization identity, worst rel dev "
          f"{worst:.2e} over {len(studies)} systems in {elapsed:.2f}s")


def test_criterion_02_qep_dae_equivalence(random_suite):
    t0 = time.perf_counter()
    worst_spec = 0.0
    worst_vec = 0.0
    for net, st in random_suite:
        md, dd, L = st.dyn.m, st.dyn.d, st.bundle.L
        E, J, zcol, inertial, n_dyn = modal._pencil(md, dd, L)
        speed = np.arange(n_dyn - inertial.size, n_dyn)
        (alph, beta), vr = scipy.linalg.eig(J, E, homogeneous_eigvals=True)
        finite = np.abs(beta) > 1e-12 * np.hypot(np.abs(alph), np.abs(beta))
        pencil = alph[finite] / beta[finite]
        scale = max(1.0, float(np.max(np.abs(pencil))))

        # Independent QEP route: companion linearization.
        nz = L.shape[0]
        A = np.zeros((2 * nz, 2 * nz)); B = np.zeros((2 * nz, 2 * nz))
        A[:nz, :nz] = -np.diag(dd); A[:nz, nz:] = -L
        A[nz:, :nz] = np.eye(nz); B[:nz, :nz] = np.diag(md); B[nz:, nz:] = np.eye(nz)
        ac, bc = scipy.linalg.eig(A, B, right=False, homogeneous_eigvals=True)
        fc = np.abs(bc) > 1e-12 * np.hypot(np.abs(ac), np.abs(bc))
        qep = ac[fc] / bc[fc]
        for lam in pencil:
            d = float(np.min(np.abs(qep - lam))) / scale
            worst_spec = max(worst_spec, d)
            assert d < 1e-9

        # Eigenvector correspondence: speed block = lambda * generator angles.
        for i in np.where(finite)[0]:
            lam = alph[i] / beta[i]
            v = vr[:, i]
            if abs(lam) < 1e-8 * scale:
                continue  # rigid mode, possibly defective when undamped
            resid = max(
                abs(v[s] - lam * v[zcol[z]]) for z, s in zip(inertial, speed)
            ) / np.linalg.norm(v)
            worst_vec = max(worst_vec, resid)
            assert resid < 1e-9

        red = np.linalg.eigvals(modal.reduced_jacobian(md, dd, L))
        for lam in pencil:
            assert float(np.min(np.abs(red - lam))) / scale < 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\nCRITERION 2 PASS: pencil/QEP/reduced spectra agree "
          f"(worst {worst_spec:.2e}), eigenvector residual {worst_vec:.2e}, "
          f"{elapsed:.2f}s")


def test_criterion_03_formula_vs_oracle(fixture_studies, random_suite):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    systems = [(st.network, st, fx.const_v)
               for _, fx, st in _fixtures_with_redispatch(fixture_studies)]
    systems += [(net, st, False) for net, st in random_suite]
    worst = 0.0
    checked = 0
    for net, st, const_v in systems:
        mode = st.electromechanical()[0]
        for dp in balanced_directions(rng, net.m, 5):
            plan = dispatch.RedispatchPlan(dp=dp)
            slope = dispatch.unit_dlambda(st, mode, plan)
            fd = cases.finite_difference_sensitivity(
                net, st.op, mode, plan, step=1e-5, const_v=const_v)
            err = abs(slope - fd) / max(1.0, abs(slope))
            worst = max(worst, err)
            checked += 1
            assert err < 1e-6, (net.n, net.m, err)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\nCRITERION 3 PASS: {checked} redispatch directions, worst "
          f"|formula - oracle| rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_04_ten_bus_real_parts(fixture_studies):
    t0 = time.perf_counter()
    _, st = fixture_studies["ten_bus"]
    em = st.electromechanical()
    assert len(em) == 3
    worst = max(abs(md.sigma + 0.038462) for md in em)
    assert worst < 1e-5
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nCRITERION 4 PASS: all three electromechanical real parts within "
          f"{worst:.2e} of -0.038462")


def test_criterion_05_mode_summary_published_arithmetic():
    def summary(sigma, omega):
        md = modal.Mode(
            lam=complex(sigma, omega), x=np.array([1.0 + 0j]), residual=0.0,
            swing_profile="", electromechanical=True,
        )
        return md.freq_hz, 100.0 * md.damping_ratio

    f1, z1 = summary(-0.175611, 9.66364)
    f2, z2 = summary(-0.166826, 10.8247)
    for got, want in ((f1, 1.53802), (z1, 1.81694), (f2, 1.72281), (z2, 1.54097)):
        assert abs(got / want - 1.0) < 1e-5, (got, want)
    print("\nCRITERION 5 PASS: published frequency/damping-ratio pairs "
          "reproduced to 5 significant digits")


def test_criterion_06_zero_damping_neutrality(fixture_studies):
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    worst_re = 0.0
    worst_dl = 0.0
    for name, (fx, _) in fixture_studies.items():
        net = cases.zero_damping_variant(fx.network)
        st = build_study(net, const_v=fx.const_v)
        for md in st.modes:
            worst_re = max(worst_re, abs(md.sigma))
            assert abs(md.sigma) < 1e-10
        if net.m < 2:
            continue  # no balanced redispatch direction exists
        mode = st.electromechanical()[0]
        for dp in balanced_directions(rng, net.m, 10):
            plan = dispatch.RedispatchPlan(dp=dp)
            dl = dispatch.unit_dlambda(st, mode, plan)
            worst_dl = max(worst_dl, abs(dl.real))
            assert abs(dl.real) < 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\nCRITERION 6 PASS: undamped spectra imaginary to {worst_re:.2e}, "
          f"Re(dlambda) below {worst_dl:.2e}, {elapsed:.2f}s")


def test_criterion_07_scaling_invariance(fixture_studies):
    rng = np.random.default_rng(7)
    worst = 0.0
    for name, fx, st in _fixtures_with_redispatch(fixture_studies):
        labels = st.network.gen_labels()
        plan = dispatch.plan_between(st.network, labels[0], labels[1])
        for mode in st.electromechanical():
            base = dispatch.unit_dlambda(st, mode, plan)
            for _ in range(20):
                c = complex(rng.standard_normal(), rng.standard_normal())
                if abs(c) < 1e-3:
                    continue
                got = dispatch.unit_dlambda(st, replace(mode, x=c * mode.x), plan)
                rel = abs(got - base) / abs(base)
                worst = max(worst, rel)
                assert rel < 1e-12
    print(f"\nCRITERION 7 PASS: eigenvector rescaling leaves dlambda fixed "
          f"(worst rel change {worst:.2e})")


def test_criterion_08_special_case_collapse(fixture_studies):
    worst = 0.0
    for name in ("three_bus_s9", "six_bus"):
        fx, st = fixture_studies[name]
        for mode in st.electromechanical():
            rep = sensitivity.sensitivity_coefficients(
                st.network, st.op, mode, st.bundle, st.dyn)
            # Frozen voltages: the general coefficient reduces to the simple
            # -(x'_theta)^2 p_k form with the voltage sums absent.
            xt = (st.bundle.H @ mode.x)[:st.network.n_lines]
            ls = line_states(st.network, st.op)
            simple = -(xt ** 2) * ls.p
            dev = np.max(np.abs(rep.theta_coeff - simple))
            scale = np.max(np.abs(simple))
            worst = max(worst, dev / scale)
            assert dev < 1e-12 * scale
            assert rep.vln_coeff.size == 0

            # The real/imaginary gain split sums back to the complex formula.
            gains = sensitivity.const_v_coefficients(mode, rep)
            labels = st.network.gen_labels()
            plan = dispatch.plan_between(st.network, labels[0], labels[-1])
            dz = dispatch.flow_response(st, plan)
            dtheta = st.bundle.A.T @ dz
            dl = sensitivity.dlambda(rep, dz)
            split = complex(float(gains.real @ dtheta), float(gains.imag @ dtheta))
            rel = abs(split - dl) / max(1e-30, abs(dl))
            worst = max(worst, rel)
            assert rel < 1e-12
    print(f"\nCRITERION 8 PASS: frozen-voltage collapse and sigma/omega "
          f"decomposition exact to {worst:.2e}")


def test_criterion_09_flow_direction_rule(fixture_studies):
    fx, st = fixture_studies["three_bus_s9"]
    mode = st.electromechanical()[0]
    ls = line_states(st.network, st.op)
    assert np.all(ls.p > 0)  # base flow G1 -> B2 -> G3 in line orientation
    plan = dispatch.plan_between(st.network, "G1", "G3")
    dl = dispatch.unit_dlambda(st, mode, plan)
    assert dl.imag < 0
    assert abs(dl.real) < 1e-10
    against = dispatch.unit_dlambda(st, mode, dispatch.plan_between(st.network, "G3", "G1"))
    assert against.imag > 0
    print(f"\nCRITERION 9 PASS: with-flow redispatch gives domega/dr = "
          f"{dl.imag:.4f} < 0 with dsigma/dr = {dl.real:.2e}")


def test_criterion_10_second_order_remainder(fixture_studies):
    r_values = np.logspace(-4, -2, 7)
    for name, fx, st in _fixtures_with_redispatch(fixture_studies):
        labels = st.network.gen_labels()
        plan = dispatch.plan_between(st.network, labels[0], labels[-1])
        mode = st.electromechanical()[0]
        preds = dispatch.sweep(st.network, st.op, mode, plan, r_values,
                               const_v=fx.const_v)
        errs = np.array([p.error for p in preds])
        assert np.all([p.lambda_exact is not None for p in preds])
        r2col = r_values ** 2
        c = float(r2col @ errs / (r2col @ r2col))
        ss_res = float(np.sum((errs - c * r2col) ** 2))
        ss_tot = float(np.sum((errs - errs.mean()) ** 2))
        rsq = 1.0 - ss_res / ss_tot
        assert rsq > 0.99, (name, rsq)
        loglog_slope = np.polyfit(np.log(r_values), np.log(errs), 1)[0]
        assert 1.8 < loglog_slope < 2.2, (name, loglog_slope)
    print("\nCRITERION 10 PASS: |exact - approx| follows C r^2 with "
          "R^2 > 0.99 on every fixture")


def test_criterion_11_contingent_table_reproduction():
    # Binding only if the reconstructions lock onto the published base cases;
    # otherwise the mismatches are reported as warnings.
    for name in ("six_bus", "ten_bus"):
        rep = cases.reproduce_case(name)
        assert rep.ok  # verified-status expectations always bind
        missed = [ln for ln in rep.lines if not ln.passed]
        if rep.locked:
            assert not missed
        else:
            for ln in missed:
                exp = ln.expectation
                warnings.warn(
                    f"{name} contingent mismatch [{exp.provenance}]: "
                    f"{exp.quantity} computed {ln.computed:.6g} vs published "
                    f"{exp.value:.6g} (tol {exp.tol:g}); line data is "
                    "reconstructed, not published",
                    UserWarning,
                )
    print("\nCRITERION 11 PASS: table reproduction gated on the lock rule; "
          "unlocked reconstructions reported as warnings")
