from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from oscdamp import (
    UsageError,
    const_v_coefficients,
    dlambda,
    sensitivity_coefficients,
)
from oscdamp.cases import random_network
from oscdamp.dispatch import flow_response, plan_between, unit_dlambda
from oscdamp.network import OperatingPoint, bus_voltages
from oscdamp.laplacian import hessian
from oscdamp.study import build_study


def test_line_coords_three_bus_structure(fixture_studies):
    # Chain G1 - B2 - L3: x' = (x1-x2, x2-x3, xV2/V2, xV2/V2 + xV3/V3).
    _, st = fixture_studies["three_bus_s7"]
    rng = np.random.default_rng(0)
    x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    md = replace(st.modes[0], x=x)
    xp = st.bundle.H @ md.x
    v = bus_voltages(st.network, st.op)
    expected = np.array([
        x[0] - x[1],
        x[1] - x[2],
        x[3] / v[1],
        x[3] / v[1] + x[4] / v[2],
    ])
    assert np.max(np.abs(xp - expected)) < 1e-14


def test_line_coords_uniform_angle_vector(random_suite):
    net, st = random_suite[0]
    x = np.zeros(2 * net.n - net.m, dtype=complex)
    x[:net.n] = 3.7 - 0.4j
    md = replace(st.modes[0], x=x)
    xp = st.bundle.H @ md.x
    assert np.max(np.abs(xp[:net.n_lines])) == 0.0


def test_line_coords_hand_assembly(random_suite):
    net, st = random_suite[1]
    md = st.electromechanical()[0]
    xp = st.bundle.H @ md.x
    v = bus_voltages(net, st.op)
    for k, ln in enumerate(net.lines):
        f, t = ln.from_bus - 1, ln.to_bus - 1
        assert abs(xp[k] - (md.x[f] - md.x[t])) < 1e-14
        nu = 0j
        for e in (f, t):
            if e >= net.m:
                nu += md.x[net.n + e - net.m] / v[e]
        assert abs(xp[net.n_lines + k] - nu) < 1e-14


def test_const_v_coefficients_collapse(fixture_studies):
    # With no voltage variables the theta coefficient is -(x'_theta)^2 p_k and
    # there are no vln coefficients.
    from oscdamp.network import line_states
    _, st = fixture_studies["six_bus"]
    md = st.electromechanical()[0]
    rep = sensitivity_coefficients(st, md)
    assert rep.vln_coeff.size == 0
    ls = line_states(st.network, st.op)
    xt = (st.bundle.H @ md.x)[:st.network.n_lines]
    assert np.max(np.abs(rep.theta_coeff + xt ** 2 * ls.p)) < 1e-12 * np.max(np.abs(rep.theta_coeff))


def test_zero_damping_makes_dlambda_imaginary(fixture_studies):
    _, st = fixture_studies["three_bus_s9"]
    md = st.electromechanical()[0]
    rep = sensitivity_coefficients(st, md)
    assert abs(rep.alpha.real) < 1e-12 * abs(rep.alpha)
    plan = plan_between(st.network, "G1", "G3")
    dl = unit_dlambda(st, md, plan)
    assert abs(dl.real) < 1e-10


def test_report_matches_matrix_finite_difference(random_suite):
    # x^T dL x from the state covector equals the direct bilinear form along
    # an arbitrary state direction, not just load-flow responses.
    net, st = random_suite[12]
    md = st.electromechanical()[0]
    rep = sensitivity_coefficients(st, md)
    rng = np.random.default_rng(5)
    n, m = net.n, net.m
    for _ in range(3):
        dz = rng.standard_normal(2 * n - m)
        assembled = complex(rep.state_coeff @ dz)
        eps = 1e-6
        op_p = OperatingPoint(st.op.delta + eps * dz[:n], st.op.v_load + eps * dz[n:])
        op_m = OperatingPoint(st.op.delta - eps * dz[:n], st.op.v_load - eps * dz[n:])
        dL = (hessian(net, op_p).L - hessian(net, op_m).L) / (2 * eps)
        direct = md.x @ dL @ md.x
        assert abs(assembled - direct) < 1e-6 * max(1.0, abs(direct))


def test_dlambda_zero_perturbation(random_suite):
    net, st = random_suite[2]
    md = st.electromechanical()[0]
    rep = sensitivity_coefficients(st, md)
    assert dlambda(rep, np.zeros(2 * net.n - net.m)) == 0j


def _all_oscillatory(fixture_studies, random_suite):
    studies = [st for _, st in fixture_studies.values()] + [st for _, st in random_suite]
    return [(st, md) for st in studies for md in st.oscillatory()]


def test_state_coeff_is_the_pullback_of_the_line_coefficients(fixture_studies, random_suite):
    # state_coeff . dz equals theta_coeff . dtheta + vln_coeff . dvln with
    # dtheta = A^T ddelta and dvln = dV / V, for arbitrary state moves.
    rng = np.random.default_rng(8)
    for st, md in _all_oscillatory(fixture_studies, random_suite):
        n = st.network.n
        rep = sensitivity_coefficients(st, md)
        assert rep.state_coeff.shape == md.x.shape
        dz = rng.standard_normal(md.x.size)
        dtheta = st.bundle.A.T @ dz[:n]
        dvln = dz[n:] / st.op.v_load if rep.vln_coeff.size else np.zeros(0)
        line = rep.theta_coeff @ dtheta + rep.vln_coeff @ dvln
        assert abs(rep.state_coeff @ dz - line) <= 1e-12 * abs(line)


def test_state_coeff_is_gauge_invariant(fixture_studies, random_suite):
    # A uniform angle shift moves no line angle, so the angle part of the
    # covector sums to zero up to roundoff.
    for st, md in _all_oscillatory(fixture_studies, random_suite):
        rep = sensitivity_coefficients(st, md)
        angle = rep.state_coeff[:st.network.n]
        assert abs(angle.sum()) <= 1e-13 * np.abs(rep.theta_coeff).sum()


def test_mode_from_the_other_voltage_model_is_rejected(fixture_studies):
    _, cv = fixture_studies["six_bus"]
    cv_mode = cv.electromechanical()[0]
    full = build_study(cv.network)
    with pytest.raises(UsageError, match="^the operating point is of the full model and "
                                         "the mode is not$"):
        sensitivity_coefficients(full, cv_mode)


def test_scaling_invariance(fixture_studies):
    rng = np.random.default_rng(6)
    for name in ("six_bus", "ten_bus", "three_bus_s9"):
        fx, st = fixture_studies[name]
        md = st.electromechanical()[0]
        plan = plan_between(st.network, *st.network.gen_labels()[:2])
        base = unit_dlambda(st, md, plan)
        for _ in range(5):
            c = complex(rng.standard_normal(), rng.standard_normal())
            scaled = replace(md, x=c * md.x)
            got = unit_dlambda(st, scaled, plan)
            assert abs(got - base) < 1e-12 * abs(base)


def test_const_v_gains_undamped_relation(fixture_studies):
    _, st = fixture_studies["three_bus_s9"]
    md = st.electromechanical()[0]
    gains = const_v_coefficients(md, sensitivity_coefficients(st, md))
    # Undamped: a_I = -a with nonnegative gains a (base flow orients every
    # p_k positive), and a_r vanishes.
    assert np.all(gains.imag <= 0)
    assert np.max(np.abs(gains.real)) < 1e-12 * np.max(np.abs(gains.imag))


def test_const_v_gains_decompose_dlambda(fixture_studies):
    # dsigma + j domega from the real gain split equals the complex formula.
    _, st = fixture_studies["six_bus"]
    md = st.electromechanical()[1]
    gains = const_v_coefficients(md, sensitivity_coefficients(st, md))
    plan = plan_between(st.network, "G2", "G3")
    dtheta = st.bundle.A.T @ flow_response(st, plan)
    dl = unit_dlambda(st, md, plan)
    split = complex(gains.real @ dtheta, gains.imag @ dtheta)
    assert abs(split - dl) < 1e-12 * abs(dl)


def test_const_v_coefficients_reject_full_model_mode(random_suite):
    net, st = random_suite[3]
    md = st.electromechanical()[0]
    rep = sensitivity_coefficients(st, md)
    with pytest.raises(UsageError, match="^constant-voltage coefficients need"):
        const_v_coefficients(md, rep)


def test_formula_vs_oracle_on_reactive_load_system():
    # Networks with reactive load exercise the voltage coefficients hardest.
    st = random_network(33)
    net = st.network
    assert any(b.q_load != 0 for b in net.buses)
    md = st.electromechanical()[0]
    labels = net.gen_labels()
    plan = plan_between(net, labels[0], labels[1])
    from oscdamp.cases import finite_difference_sensitivity
    slope = unit_dlambda(st, md, plan)
    fd = finite_difference_sensitivity(net, st.op, md, plan)
    assert abs(slope - fd) < 1e-6 * max(1.0, abs(slope))
