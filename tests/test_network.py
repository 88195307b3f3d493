from __future__ import annotations

import math

import numpy as np
import pytest

from oscdamp import (
    ConvergenceError,
    DomainError,
    GridFormatError,
    OperatingPoint,
    ValidationError,
    build_incidence,
    line_states,
    parse_grid_file,
    potential_energy,
    solve_power_flow,
)
from oscdamp.cases import FIXTURE_NAMES, _read_data, load_fixture, random_network
from oscdamp.network import (
    PF_ACCEPT_TOL,
    PF_ACCEPT_ULPS,
    bus_voltages,
    flat_start,
    hessian_matrix,
    incident_b_sums,
    residual_vectors,
    validate_network,
)

from conftest import stiff_star_grid

TWO_BUS = """
bus G1 G V=1.0 Pg=0.0 H=3.0 D=0.0
bus L2 L Pl=0.0 Ql=0.0
line t G1 L2 b=1.0
"""

CHAIN_3 = _read_data("three_bus_s9.grid")


def test_parse_two_bus_minimal():
    net = parse_grid_file(TWO_BUS)
    assert net.n == 2
    assert net.m == 1
    assert net.n_lines == 1
    assert net.buses[0].label == "G1"
    assert net.lines[0].b == 1.0


def test_parse_six_bus_published_data():
    net = parse_grid_file(_read_data("six_bus.grid"))
    assert (net.n, net.m, net.n_lines) == (6, 3, 5)
    assert [b.inertia_h for b in net.buses[:3]] == [3.0, 3.0, 24.0]
    assert [b.damping_d_seconds for b in net.buses] == [2.0, 2.0, 16.0, 2.0, 2.0, 16.0]
    x = [0.45, 0.45, 0.0563, 0.02, 0.075]
    assert np.allclose([ln.b for ln in net.lines], [1.0 / v for v in x])


def test_parse_reindexes_generators_first():
    net = parse_grid_file("""
bus LA L Pl=0.2
bus GB G V=1.0 Pg=0.2 H=2.0
bus LC L Pl=0.0
line 1 LA GB x=0.5
line 2 LA LC x=0.5
""")
    assert [b.label for b in net.buses] == ["GB", "LA", "LC"]
    assert [b.index for b in net.buses] == [1, 2, 3]
    # Line endpoints follow the new indices.
    assert (net.lines[0].from_bus, net.lines[0].to_bus) == (2, 1)


def test_parse_rejects_generator_tie():
    with pytest.raises(ValidationError, match="two generator buses"):
        parse_grid_file("""
bus G1 G V=1.0 Pg=0.1 H=3.0
bus G2 G V=1.0 Pg=-0.1 H=3.0
line t G1 G2 b=1.0
""")


def test_parse_malformed_record_reports_line_number():
    with pytest.raises(GridFormatError, match="line 3"):
        parse_grid_file("bus G1 G V=1.0 H=3.0\nbus L2 L\nline t G1 L2 b=oops\n")


def test_parse_rejects_b_and_x_together():
    with pytest.raises(GridFormatError, match="exactly one"):
        parse_grid_file("bus G1 G V=1 H=1\nbus L2 L\nline t G1 L2 b=1 x=1\n")


def test_parse_rejects_disconnected_graph():
    with pytest.raises(ValidationError, match="disconnected"):
        parse_grid_file("""
bus G1 G V=1.0 Pg=0.0 H=3.0
bus L2 L
bus L3 L
line t G1 L2 b=1.0
""")


def test_parse_rejects_unbalanced_power():
    with pytest.raises(ValidationError, match="balance"):
        parse_grid_file("""
bus G1 G V=1.0 Pg=0.5 H=3.0
bus L2 L Pl=0.2
line t G1 L2 b=1.0
""")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
def test_parse_rejects_non_finite_numbers(value):
    with pytest.raises(GridFormatError, match="line 2: H=.* not a finite number"):
        parse_grid_file(f"bus L2 L\nbus G1 G V=1.0 H={value}\nline t G1 L2 b=1.0\n")


@pytest.mark.parametrize("field", [
    "v_set", "p_gen", "p_load", "q_load", "inertia_h", "damping_d_seconds",
])
def test_validate_rejects_non_finite_bus_fields(field):
    from dataclasses import replace
    net = parse_grid_file(TWO_BUS)
    bus = replace(net.buses[0], **{field: math.nan})
    bad = replace(net, buses=(bus,) + net.buses[1:])
    with pytest.raises(ValidationError, match="non-finite"):
        validate_network(bad)


@pytest.mark.parametrize("record", [
    "bus G1 G V=1.0 H=3.0 D=-0.5\nbus L2 L\n",
    "bus G1 G V=1.0 H=3.0\nbus L2 L D=-1.0\n",
])
def test_parse_rejects_negative_damping(record):
    with pytest.raises(ValidationError, match="damping D >= 0"):
        parse_grid_file(record + "line t G1 L2 b=1.0\n")


def test_validate_rejects_negative_damping():
    from dataclasses import replace
    net = parse_grid_file(TWO_BUS)
    bus = replace(net.buses[1], damping_d_seconds=-1e-12)
    with pytest.raises(ValidationError, match="'L2' needs damping D >= 0"):
        validate_network(replace(net, buses=(net.buses[0], bus)))


def test_power_flow_nan_residual_is_not_converged():
    net = parse_grid_file(TWO_BUS)
    start = OperatingPoint(delta=np.array([0.0, math.nan]), v_load=np.ones(1))
    with pytest.raises(ConvergenceError):
        solve_power_flow(net, initial=start, max_iter=0)


def test_power_flow_accepts_roundoff_of_stiff_lines():
    # Newton stalls near 7e-9 on b = 1e7 lines, a few ulps of the 4e7
    # susceptance sum at L4: above the absolute bound, inside the scaled one.
    net = parse_grid_file(stiff_star_grid(1e7))
    op = solve_power_flow(net)
    assert PF_ACCEPT_TOL < op.residual_norm <= PF_ACCEPT_ULPS * np.finfo(float).eps * 4e7
    real, reactive = residual_vectors(net, op)
    assert np.max(np.abs(np.concatenate([real, reactive]))) == op.residual_norm


def test_power_flow_bound_is_absolute_on_moderate_grids(random_suite):
    nets = [load_fixture(name).network for name in FIXTURE_NAMES]
    nets += [net for net, _ in random_suite]
    worst = max(float(np.max(incident_b_sums(net))) for net in nets)
    assert PF_ACCEPT_ULPS * np.finfo(float).eps * worst < PF_ACCEPT_TOL


def test_incidence_three_bus_chain():
    net = parse_grid_file(_read_data("three_bus_s7.grid"))
    A, absA = build_incidence(net)
    assert np.array_equal(A, [[1, 0], [-1, 1], [0, -1]])
    assert np.array_equal(absA, np.abs(A))


def test_incidence_single_line():
    net = parse_grid_file(TWO_BUS)
    A, _ = build_incidence(net)
    assert np.array_equal(A, [[1.0], [-1.0]])


def test_incidence_column_sums(random_suite):
    for net, _ in random_suite[:10]:
        A, absA = build_incidence(net)
        assert np.all(A.sum(axis=0) == 0)
        assert np.all(absA.sum(axis=0) == 2)


def test_power_flow_zero_injection_flat_exact():
    net = parse_grid_file(TWO_BUS)
    op = solve_power_flow(net)
    assert np.all(op.delta == 0.0)
    assert np.all(op.v_load == 1.0)
    assert op.residual_norm == 0.0


def test_power_flow_self_consistency(random_suite):
    net, st = random_suite[3]
    assert st.op.residual_norm < 1e-10
    # Re-solving from the solution changes nothing beyond roundoff.
    again = solve_power_flow(net, initial=st.op)
    assert np.max(np.abs(again.delta - st.op.delta)) < 1e-12
    if again.v_load.size:
        assert np.max(np.abs(again.v_load - st.op.v_load)) < 1e-12


def test_line_states_zero_angle_unit_voltage():
    net = parse_grid_file(TWO_BUS)
    ls = line_states(net, flat_start(net))
    assert ls.p[0] == 0.0
    assert ls.q[0] == -net.lines[0].b


def test_line_states_chain_flow_direction():
    net = parse_grid_file(CHAIN_3)
    op = solve_power_flow(net, const_v=True)
    ls = line_states(net, op)
    assert ls.p[0] > 0 and ls.p[1] > 0


def test_line_states_defining_identities(random_suite):
    net, st = random_suite[7]
    ls = line_states(net, st.op)
    b = np.array([ln.b for ln in net.lines])
    assert np.allclose(ls.p ** 2 + ls.q ** 2, (b * np.exp(ls.nu)) ** 2, rtol=1e-13)


def test_flow_conservation_at_equilibrium(random_suite):
    for net, st in random_suite[:10]:
        ls = line_states(net, st.op)
        p_inj, _ = net.injections()
        acc = -p_inj.copy()
        for k, ln in enumerate(net.lines):
            acc[ln.from_bus - 1] += ls.p[k]
            acc[ln.to_bus - 1] -= ls.p[k]
        assert np.max(np.abs(acc)) < 1e-10


def test_energy_zero_at_flat_zero_injection():
    net = parse_grid_file(TWO_BUS)
    assert abs(potential_energy(net, flat_start(net))) < 1e-14


def test_energy_line_part_two_coordinate_paths(random_suite):
    # The line part evaluated as -sum b V V cos(dij) and as -sum b e^nu cos(theta)
    # must agree to 1e-12 relative.
    net, st = random_suite[11]
    rng = np.random.default_rng(0)
    op = OperatingPoint(
        delta=st.op.delta + 0.05 * rng.standard_normal(net.n),
        v_load=st.op.v_load * (1 + 0.03 * rng.standard_normal(net.n - net.m)),
    )
    v = bus_voltages(net, op)
    bus_form = -sum(
        ln.b * v[ln.from_bus - 1] * v[ln.to_bus - 1]
        * math.cos(op.delta[ln.from_bus - 1] - op.delta[ln.to_bus - 1])
        for ln in net.lines
    )
    ls = line_states(net, op)
    b = np.array([ln.b for ln in net.lines])
    line_form = float(-np.sum(b * np.exp(ls.nu) * np.cos(ls.theta)))
    assert abs(bus_form - line_form) <= 1e-12 * abs(bus_form)


def test_energy_gradient_matches_residuals(random_suite):
    # Central finite differences of R against the analytic power-balance
    # residuals, at a non-equilibrium state.
    net, st = random_suite[5]
    rng = np.random.default_rng(1)
    op = OperatingPoint(
        delta=st.op.delta + 0.04 * rng.standard_normal(net.n),
        v_load=st.op.v_load * (1 + 0.02 * rng.standard_normal(net.n - net.m)),
    )
    real, reactive = residual_vectors(net, op)
    grad = np.concatenate([real, reactive])
    eps = 1e-6
    n = net.n
    for j in range(2 * n - net.m):
        dd = np.zeros(n)
        dv = np.zeros(net.n - net.m)
        if j < n:
            dd[j] = eps
        else:
            dv[j - n] = eps
        rp = potential_energy(net, OperatingPoint(op.delta + dd, op.v_load + dv))
        rm = potential_energy(net, OperatingPoint(op.delta - dd, op.v_load - dv))
        assert abs((rp - rm) / (2 * eps) - grad[j]) < 1e-6


def test_energy_rejects_nonpositive_voltage():
    net = parse_grid_file(TWO_BUS)
    bad = OperatingPoint(delta=np.zeros(2), v_load=np.array([-0.2]))
    with pytest.raises(DomainError):
        potential_energy(net, bad)


def test_hessian_matches_residual_jacobian_off_equilibrium():
    net = random_network(123)
    rng = np.random.default_rng(2)
    op = OperatingPoint(
        delta=0.1 * rng.standard_normal(net.n),
        v_load=1 + 0.05 * rng.standard_normal(net.n - net.m),
    )
    L = hessian_matrix(net, op)
    eps = 1e-7
    n, m = net.n, net.m
    for j in range(2 * n - m):
        dd = np.zeros(n)
        dv = np.zeros(n - m)
        if j < n:
            dd[j] = eps
        else:
            dv[j - n] = eps
        rp = np.concatenate(residual_vectors(net, OperatingPoint(op.delta + dd, op.v_load + dv)))
        rm = np.concatenate(residual_vectors(net, OperatingPoint(op.delta - dd, op.v_load - dv)))
        col = (rp - rm) / (2 * eps)
        assert np.max(np.abs(col - L[:, j])) < 1e-6


def test_network_arrays_are_built_once_and_read_only():
    from dataclasses import FrozenInstanceError

    net = parse_grid_file(CHAIN_3)
    for name in ("injections", "endpoints"):
        first = getattr(net, name)()
        assert getattr(net, name)() is first
        for a in first:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0
    b = net.susceptances()
    assert net.susceptances() is b and not b.flags.writeable
    assert net.gen_labels() is net.gen_labels()
    assert not net._gen_v_set.flags.writeable
    assert net.m == 2
    with pytest.raises(FrozenInstanceError):
        net.m = 3
    shifted = net.with_redispatch(np.array([0.1, -0.1]))
    assert shifted.injections()[0] is not net.injections()[0]
    assert shifted.injections()[0][0] == net.injections()[0][0] + 0.1
