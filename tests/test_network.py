from __future__ import annotations

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from oscdamp import (
    ConvergenceError,
    DomainError,
    GridFormatError,
    ValidationError,
    network,
    parse_grid_file,
    solve_power_flow,
)
from oscdamp.cases import FIXTURE_NAMES, _read_data, load_fixture, random_network
from oscdamp.network import (
    Bus,
    Line,
    Network,
    OperatingPoint,
    PF_ACCEPT_TOL,
    PF_ACCEPT_ULPS,
    build_incidence,
    bus_voltages,
    flat_start,
    hessian_matrix,
    incident_b_sums,
    line_states,
    potential_energy,
    residual_vectors,
)

from conftest import (
    RANDOM_SUITE_SIZE,
    CallCounter,
    assert_same_bits,
    perfbench_module,
    stiff_star_grid,
)

TWO_BUS = """
bus G1 G V=1.0 Pg=0.0 H=3.0 D=0.0
bus L2 L Pl=0.0 Ql=0.0
line t G1 L2 b=1.0
"""

CHAIN_3 = _read_data("three_bus_s9.grid")

# A valid two-generator star, built directly, and the G2 it replaces.
STAR_G2 = Bus("G2", "G", p_gen=-0.2, inertia_h=3.0)
STAR_NET = Network(buses=(Bus("G1", "G", p_gen=0.2, inertia_h=3.0), STAR_G2, Bus("L1", "L")),
                   lines=(Line("a", 1, 3, 5.0), Line("b", 2, 3, 5.0)))


def assert_invalid(net: Network, message: str, **changes) -> None:
    """Replacing ``changes`` in ``net`` raises a ValidationError matching
    ``message``: no invalid network exists to reach the rest of the chain."""
    with pytest.raises(ValidationError, match=message):
        replace(net, **changes)


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
    # Line endpoints follow the new positions.
    assert (net.lines[0].from_bus, net.lines[0].to_bus) == (2, 1)


def test_parse_rejects_generator_tie():
    with pytest.raises(ValidationError, match="two generator buses"):
        parse_grid_file("""
bus G1 G V=1.0 Pg=0.1 H=3.0
bus G2 G V=1.0 Pg=-0.1 H=3.0
line t G1 G2 b=1.0
""")


@pytest.mark.parametrize("order", [("L1", "L2", "G1", "G2"), ("L1", "G1", "G2")])
def test_validate_rejects_generators_after_a_load(order):
    # Built directly, so not reordered as the parser reorders: every array of
    # the model reads the first m buses as the generators.
    kinds = {"G1": dict(kind="G", v_set=1.0, p_gen=0.5, inertia_h=3.0),
             "G2": dict(kind="G", v_set=1.0, inertia_h=3.0),
             "L1": dict(kind="L", p_load=0.5), "L2": dict(kind="L")}
    buses = tuple(Bus(label, **kinds[label]) for label in order)
    pos = {label: i for i, label in enumerate(order, start=1)}
    ends = [("L1", "G1"), ("L1", "G2")] + ([("L1", "L2")] if "L2" in pos else [])
    lines = tuple(Line(name, pos[a], pos[b], 5.0) for name, (a, b) in zip("abc", ends))
    assert_invalid(STAR_NET, "bus 'L1' at position 1 is out of order: the 2 generator",
                   buses=buses, lines=lines)


@pytest.mark.parametrize("from_bus, to_bus", [(1, 5), (0, 2), (1, 2.5)])
def test_validate_rejects_a_line_end_that_is_not_a_bus(from_bus, to_bus):
    # Built directly: the parser resolves every endpoint label to a position.
    end = to_bus if from_bus == 1 else from_bus
    assert_invalid(parse_grid_file(TWO_BUS),
                   re.escape(f"line 'a' ends at {end!r}, which is not a bus position 1..2"),
                   lines=(Line("a", from_bus, to_bus, 5.0),))


# Built directly: the parser rejects each of these with a line number first.
@pytest.mark.parametrize("changes, message", [
    ({"buses": (STAR_NET.buses[0], replace(STAR_G2, label="G1"), STAR_NET.buses[2])},
     "duplicate bus label 'G1'"),
    ({"lines": (Line("a", 1, 3, 5.0), Line("a", 2, 3, 5.0))}, "duplicate line label 'a'"),
    ({"buses": STAR_NET.buses[:2] + (Bus("L1", "X"),)}, "bus 'L1' has kind 'X', not G or L"),
    ({"omega0": 0.0}, "omega0 must be positive and finite, got 0.0"),
    ({"omega0": -1.0}, "omega0 must be positive and finite, got -1.0"),
    ({"omega0": math.nan}, "omega0 must be positive and finite, got nan"),
    ({"omega0": math.inf}, "omega0 must be positive and finite, got inf"),
], ids=["duplicate-bus", "duplicate-line", "bus-kind", "omega0-zero", "omega0-negative",
        "omega0-nan", "omega0-inf"])
def test_validate_rejects_what_the_parser_rejects(changes, message):
    assert_invalid(STAR_NET, f"^{re.escape(message)}$", **changes)


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


@pytest.mark.parametrize("records, message", [
    ("system omega=50", "line 1: system record has no field 'omega' (allowed: omega0)"),
    ("system omega0=50 omega0=60", "line 1: omega0= given twice"),
    ("system omega0=50\nsystem omega0=60", "line 2: second system record"),
    ("system omega0=0", "line 1: omega0 must be positive"),
    ("bus G9 G V=1.0 H=3.0 Pl=1", "line 1: generator bus has no field 'Pl' (allowed: V Pg H D)"),
    ("bus G9 G H=3.0", "line 1: generator bus needs V="),
    ("bus G9 G V=1.0", "line 1: generator bus needs H="),
    ("bus L9 L Pg=0", "line 1: load bus has no field 'Pg' (allowed: Pl Ql D)"),
    ("bus L9 L D=1 D=2", "line 1: D= given twice"),
    ("line t2 G1 L2 x=0.0435 x=9", "line 1: x= given twice"),
    ("line t2 G1 L2 b=5 rate=9", "line 1: line record has no field 'rate' (allowed: b x)"),
    ("line t2 G1 L2", "line 1: give exactly one of b= or x="),
    ("line t2 G1 L2 b5", "line 1: expected key=value, got 'b5'"),
    ("bus G1 G V=1.0 H=3.0", "line 2: duplicate bus label 'G1'"),
    ("line t G1 L2 b=1.0", "line 4: duplicate line label 't'"),
    ("bus G9 X", "line 1: bus kind must be G or L, got 'X'"),
    ("node G9 G", "line 1: unknown record type 'node'"),
    ("bus G9", "line 1: bus record needs a label and a kind"),
    ("line t2 G1", "line 1: line record needs a label and two endpoints"),
    ("line t2 G1 L9 b=5", "line 1: unknown bus 'L9'"),
])
def test_parse_checks_every_field_against_its_record(records, message):
    with pytest.raises(GridFormatError, match=f"^{re.escape(message)}$"):
        parse_grid_file(records + TWO_BUS)


@pytest.mark.parametrize("records, message", [
    ("line s L2 L2 b=1.0", "line 's' joins a bus to itself"),
    ("bus G9 G V=1.0 H=0", "generator bus 'G9' needs inertia H > 0"),
    ("bus G9 G V=0 H=3.0", "generator bus 'G9' needs V > 0"),
    ("bus G9 G V=-1.0 H=3.0", "generator bus 'G9' needs V > 0"),
])
def test_parse_validates_the_buses_and_lines_it_reads(records, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        parse_grid_file(records + TWO_BUS)


def test_validate_rejects_a_load_bus_with_inertia():
    # Built directly: a load bus record has no H= field.
    net = parse_grid_file(TWO_BUS)
    assert_invalid(net, "^load bus 'L2' must have zero inertia$",
                   buses=(net.buses[0], replace(net.buses[1], inertia_h=1.0)))


def test_parse_reads_fields_in_any_order_with_dataclass_defaults():
    net = parse_grid_file("system omega0=314.0\nbus L2 L D=0.5\nbus G1 G H=3.0 V=1.02\n"
                          "line t L2 G1 x=0.5\n")
    assert net.omega0 == 314.0
    assert net.buses[0] == Bus(label="G1", kind="G", v_set=1.02, inertia_h=3.0)
    assert net.buses[1] == Bus(label="L2", kind="L", damping_d_seconds=0.5)
    assert net.lines[0] == Line(label="t", from_bus=2, to_bus=1, b=2.0)


def test_parse_accepts_every_grid_the_code_runs_on():
    for name in FIXTURE_NAMES:
        parse_grid_file(_read_data(f"{name}.grid"))
    # random_network lets a GridFormatError through, so a rejected draw fails here.
    for seed in [*range(RANDOM_SUITE_SIZE), 123]:
        random_network(seed)
    # Every draw the benchmark grids take, the rejected ones included, must
    # parse, at the default sizes of the rank-mesh, modes-large and
    # sweep-oracle workloads (the last draws angle-only grids).
    grids, workloads = perfbench_module("grids"), perfbench_module("workloads")
    for workload, const_v in ((workloads.RankMesh(), False), (workloads.ModesLarge(), False),
                              (workloads.SweepOracle(), True)):
        n_load, m = workload.n_load, workload.m
        for seed in range(3):
            text, attempts = grids.synthetic_grid(n_load, m, seed, const_v)
            rng = np.random.default_rng([seed, n_load, m])
            for attempt in range(attempts):
                draw = grids.grid_text(n_load, m, rng, grids.LOAD_SCALE_STEP ** attempt)
                parse_grid_file(draw)
            assert draw == text


@pytest.mark.parametrize("field", [
    "v_set", "p_gen", "p_load", "q_load", "inertia_h", "damping_d_seconds",
])
def test_validate_rejects_non_finite_bus_fields(field):
    net = parse_grid_file(TWO_BUS)
    bus = replace(net.buses[0], **{field: math.nan})
    assert_invalid(net, "^bus 'G1' has a non-finite value$", buses=(bus,) + net.buses[1:])


@pytest.mark.parametrize("record", [
    "bus G1 G V=1.0 H=3.0 D=-0.5\nbus L2 L\n",
    "bus G1 G V=1.0 H=3.0\nbus L2 L D=-1.0\n",
])
def test_parse_rejects_negative_damping(record):
    with pytest.raises(ValidationError, match="damping D >= 0"):
        parse_grid_file(record + "line t G1 L2 b=1.0\n")


def test_validate_rejects_negative_damping():
    net = parse_grid_file(TWO_BUS)
    bus = replace(net.buses[1], damping_d_seconds=-1e-12)
    assert_invalid(net, "'L2' needs damping D >= 0", buses=(net.buses[0], bus))


def test_a_line_past_the_last_bus_is_refused_where_the_network_is_built(fixture_studies):
    # Not an IndexError from the first array that reads the endpoint.
    net = fixture_studies["six_bus"][1].network
    assert_invalid(net, r"^line 'x' ends at 9, which is not a bus position 1\.\.6$",
                   lines=net.lines[:-1] + (Line("x", 1, 9, 5.0),))


def test_a_duplicate_generator_label_never_reaches_the_ranking(fixture_studies):
    # rank_pairs names a pair by its labels: a second G1 would list "G1 G1".
    net = fixture_studies["six_bus"][1].network
    buses = (net.buses[0], replace(net.buses[1], label="G1")) + net.buses[2:]
    with pytest.raises(ValidationError, match="^duplicate bus label 'G1'$"):
        Network(buses=buses, lines=net.lines, omega0=net.omega0)


@pytest.mark.parametrize("shift", [math.nan, math.inf, 0.5])
def test_redispatching_into_an_invalid_grid_raises_what_building_it_raises(shift):
    g1 = STAR_NET.buses[0]
    with pytest.raises(ValidationError) as built:
        replace(STAR_NET, buses=(replace(g1, p_gen=g1.p_gen + shift),) + STAR_NET.buses[1:])
    with pytest.raises(ValidationError, match=f"^{re.escape(str(built.value))}$"):
        STAR_NET.with_redispatch(np.array([shift, 0.0]))


def test_power_flow_nan_residual_is_not_converged(monkeypatch):
    net = parse_grid_file(TWO_BUS)
    start = OperatingPoint(delta=np.array([0.0, math.nan]), v_load=np.ones(1))
    monkeypatch.setattr(network, "PF_MAX_ITER", 0)
    with pytest.raises(ConvergenceError):
        solve_power_flow(net, initial=start)


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


@pytest.mark.parametrize("reader", [bus_voltages, line_states, residual_vectors, hessian_matrix])
@pytest.mark.parametrize("v", [0.0, -0.2])
def test_voltage_readers_reject_nonpositive_voltage(reader, v):
    net = parse_grid_file(TWO_BUS)
    with pytest.raises(DomainError, match="nonpositive voltage"):
        reader(net, OperatingPoint(delta=np.zeros(2), v_load=np.array([v])))


def test_hessian_matches_residual_jacobian_off_equilibrium():
    net = random_network(123).network
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


def _read_only_arrays(obj):
    """Every ndarray an object holds in its attributes, tuples unpacked."""
    out = []
    for value in vars(obj).values():
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray):
                out.append(item)
    return out


def test_a_redispatched_copy_shares_the_topology_read_only(fixture_studies):
    from oscdamp import laplacian

    _, st = fixture_studies["ten_bus"]
    net = st.network
    shifted = net.with_redispatch(np.array([0.1, -0.1, 0.0, 0.0]))
    assert shifted._topology is net._topology
    for read in (incident_b_sums, Network.endpoints, Network.susceptances, Network.gen_labels):
        assert read(shifted) is read(net)
    assert shifted._gen_v_set is net._gen_v_set
    assert shifted.injections()[0] is not net.injections()[0]
    # A copy of a copy shares it too, and a Hessian of either leaves it unchanged.
    again = shifted.with_redispatch(np.zeros(4))
    assert again._topology is net._topology
    laplacian.hessian(again, st.op)
    hessian_matrix(again, replace(st.op, const_v=True))
    arrays = _read_only_arrays(net._topology)
    # gen_v_set, endpoints (2), susceptances, b_sums, pf_tol, the line-end
    # index, hessian_scatter (3) and angle_scatter.
    assert len(arrays) == 11
    # No dense n x ell array lives as long as the grid: build_incidence
    # builds the incidence pair on each call.
    assert all(a.ndim == 1 for a in arrays)
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a.flat[0] = 1


def test_the_angle_only_hessian_is_the_leading_block(fixture_studies, random_suite):
    nets = [st.network for _, st in fixture_studies.values()] + [net for net, _ in random_suite]
    for net in nets:
        for const_v in (False, True):
            op = solve_power_flow(net, const_v=const_v)
            angle = hessian_matrix(net, replace(op, const_v=True))
            assert angle.flags.c_contiguous
            full = hessian_matrix(net, replace(op, const_v=False))
            assert_same_bits(angle, full[:net.n, :net.n])


def test_a_warm_copy_computes_what_a_cold_network_does(fixture_studies, random_suite):
    # The warm copy reads arrays its parent built; the cold network, built from
    # the same buses and lines, builds its own. Every result must match bit for bit.
    from oscdamp import laplacian, modal
    from oscdamp.study import Study, build_study

    nets = [st.network for _, st in fixture_studies.values()] + [net for net, _ in random_suite]
    for net in nets:
        dp = np.zeros(net.m)
        dp[0] += 0.01
        dp[-1] -= 0.01  # a zero shift on a grid with one generator
        for const_v in (False, True):
            base = build_study(net, const_v=const_v)
            warm = net.with_redispatch(dp)
            cold = Network(buses=warm.buses, lines=warm.lines, omega0=warm.omega0)
            assert cold._topology is not net._topology
            ws = Study(warm, solve_power_flow(warm, initial=base.op, const_v=const_v))
            cs = Study(cold, solve_power_flow(cold, initial=base.op, const_v=const_v))
            assert_same_bits(ws.op.delta, cs.op.delta)
            assert_same_bits(ws.op.v_load, cs.op.v_load)
            for a, b in zip(residual_vectors(warm, ws.op), residual_vectors(cold, ws.op)):
                assert_same_bits(a, b)
            assert_same_bits(hessian_matrix(warm, ws.op), hessian_matrix(cold, ws.op))
            wb = laplacian.hessian(warm, ws.op)
            cb = laplacian.hessian(cold, ws.op)
            for field in ("L", "H", "lp_theta_nu", "lp_nu_nu", "l_bus_diag"):
                assert_same_bits(getattr(wb, field), getattr(cb, field))
            dyn = modal.build_dynamic_matrices(warm, const_v=const_v)
            wm = modal.solve_qep(dyn.m, dyn.d, wb.L, n_angles=warm.n,
                                 gen_labels=warm.gen_labels())
            cm = modal.solve_qep(dyn.m, dyn.d, cb.L, n_angles=cold.n,
                                 gen_labels=cold.gen_labels())
            assert len(wm) == len(cm) == len(ws.modes) > 0
            for a, b, c in zip(wm, cm, ws.modes):
                assert_same_bits(a.x, b.x)
                assert_same_bits(a.x, c.x)
                assert (a.lam, a.residual, a.swing_profile, a.warnings) == \
                    (b.lam, b.residual, b.swing_profile, b.warnings)


def test_the_angle_only_residual_is_the_real_half_of_the_full_one(fixture_studies, random_suite):
    # Solved in each voltage model, then at a perturbed point of each.
    rng = np.random.default_rng(5)
    nets = [st.network for _, st in fixture_studies.values()] + [net for net, _ in random_suite]
    compared = 0
    for net in nets:
        for const_v in (False, True):
            op = solve_power_flow(net, const_v=const_v)
            moved = OperatingPoint(op.delta + 1e-3 * rng.standard_normal(net.n),
                                   op.v_load * (1.0 + 1e-3 * rng.standard_normal(net.n - net.m)))
            for at in (op, moved):
                real, reactive = residual_vectors(net, replace(at, const_v=True))
                assert np.array_equal(real, residual_vectors(net, replace(at, const_v=False))[0])
                assert reactive.shape == (0,)
                compared += 1
    assert compared == 4 * len(nets)


def test_a_redispatched_copy_is_what_replacing_each_generator_gives(fixture_studies, random_suite):
    nets = [st.network for _, st in fixture_studies.values()] + [net for net, _ in random_suite]
    rng = np.random.default_rng(8)
    for net in nets:
        dp = rng.standard_normal(net.m)
        dp[-1] = -np.sum(dp[:-1])  # a copy that does not balance is refused
        shifted = net.with_redispatch(dp)
        want = tuple(replace(b, p_gen=b.p_gen + dp[g]) if g < net.m else b
                     for g, b in enumerate(net.buses))
        assert shifted.buses == want
        assert all(a is b for a, b in zip(shifted.buses[net.m:], net.buses[net.m:]))
        assert (shifted.lines, shifted.omega0) == (net.lines, net.omega0)
        replaced = Network(buses=want, lines=net.lines, omega0=net.omega0)
        for got, ref in zip(shifted.injections(), replaced.injections()):
            assert_same_bits(got, ref)
        assert shifted._topology is net._topology


def test_an_imbalance_the_power_flow_cannot_accept_is_a_validation_error():
    # A grid balances at bus 1's power-flow acceptance pf_tol[0], since the
    # dropped bus-1 residual equals -sum P at any solution: ten_bus's is 1e-10, so
    # the parser refuses -5e-10, and nothing reaches a Newton step.
    text = _read_data("ten_bus.grid").replace("Pl=10.110245 ", "Pl=10.1102450005 ")
    with CallCounter("oscdamp.network.hessian_matrix") as steps:
        with pytest.raises(ValidationError, match=r"^real power does not balance: "
                           r"sum of injections = -5\.000e-10 \(the lossless model has no "
                           r"slack bus\)$"):
            parse_grid_file(text)
    assert steps["oscdamp.network.hessian_matrix"] == 0
    # A stiff bus 1's pf_tol is past 1e-9, and what it accepts it solves.
    net = parse_grid_file(stiff_star_grid(1e6).replace("Pl=0.6 ", "Pl=0.600000005 "))
    assert 1e-9 < -float(np.sum(net.injections()[0])) <= net._topology.pf_tol[0]
    for const_v in (False, True):
        assert solve_power_flow(net, const_v=const_v).residual_norm <= net._topology.pf_tol[0]
