from __future__ import annotations

import numpy as np
import pytest

from oscdamp import OperatingPoint, coord_jacobian, hessian, solve_power_flow
from oscdamp.cases import _read_data, random_network
from oscdamp.network import Bus, Line, Network, bus_voltages, parse_grid_file, potential_energy


@pytest.fixture(scope="module")
def chain3():
    net = parse_grid_file(_read_data("three_bus_s7.grid"))
    return net, solve_power_flow(net)


def test_coord_jacobian_three_bus_structure(chain3):
    # Generator, connecting bus, load in a chain: theta rows carry the signed
    # incidence, nu rows carry 1/V at the load ends only.
    net, op = chain3
    v = bus_voltages(net, op)
    H = coord_jacobian(net, op)
    expected = np.array([
        [1.0, -1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, -1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0 / v[1], 0.0],
        [0.0, 0.0, 0.0, 1.0 / v[1], 1.0 / v[2]],
    ])
    assert np.array_equal(H, expected)


def test_coord_jacobian_two_bus_direct_substitution():
    net = parse_grid_file("""
bus G1 G V=1.0 Pg=0.0 H=3.0
bus L2 L
line t G1 L2 b=1.0
""")
    op = OperatingPoint(delta=np.zeros(2), v_load=np.array([2.0]))
    H = coord_jacobian(net, op)
    assert np.array_equal(H, [[1.0, -1.0, 0.0], [0.0, 0.0, 0.5]])


def test_coord_jacobian_kills_uniform_angle_shift(random_suite):
    for net, st in random_suite[:8]:
        u = np.zeros(2 * net.n - net.m)
        u[:net.n] = 1.0
        assert np.max(np.abs(st.bundle.H @ u)) == 0.0


def test_line_block_diagonals_are_flow_quantities(chain3):
    from oscdamp.network import line_states
    net, op = chain3
    bundle = hessian(net, op)
    ls = line_states(net, op)
    assert np.array_equal(bundle.lp_theta_nu, ls.p)
    assert np.array_equal(bundle.lp_nu_nu, ls.q)


def test_line_coordinate_hessian_printed_pattern(chain3):
    # The 2x2 block structure with diagonal blocks: rows/cols (theta1, theta2,
    # nu1, nu2) hold (-q, p; p, q) per line and zero across lines.
    net, op = chain3
    bundle = hessian(net, op)
    q, p = bundle.lp_nu_nu, bundle.lp_theta_nu
    Lp = np.array([
        [-q[0], 0.0, p[0], 0.0],
        [0.0, -q[1], 0.0, p[1]],
        [p[0], 0.0, q[0], 0.0],
        [0.0, p[1], 0.0, q[1]],
    ])
    nl = net.n_lines
    assembled = np.zeros((2 * nl, 2 * nl))
    assembled[:nl, :nl] = np.diag(-bundle.lp_nu_nu)
    assembled[:nl, nl:] = np.diag(bundle.lp_theta_nu)
    assembled[nl:, :nl] = np.diag(bundle.lp_theta_nu)
    assembled[nl:, nl:] = np.diag(bundle.lp_nu_nu)
    assert np.array_equal(assembled, Lp)


def test_two_identical_generators_angle_block():
    # Constructed directly: the network validator refuses generator ties, but
    # the Hessian algebra itself is well defined for this textbook toy.
    net = Network(
        buses=(
            Bus(label="A", index=1, kind="G", v_set=1.0, inertia_h=3.0),
            Bus(label="B", index=2, kind="G", v_set=1.0, inertia_h=3.0),
        ),
        lines=(Line(label="t", index=1, from_bus=1, to_bus=2, b=1.0),),
    )
    op = OperatingPoint(delta=np.zeros(2), v_load=np.zeros(0))
    bundle = hessian(net, op)
    assert np.allclose(bundle.L, [[1.0, -1.0], [-1.0, 1.0]])


def test_hessian_matches_finite_differences(random_suite):
    from oscdamp.network import residual_vectors
    net, st = random_suite[9]
    L = st.bundle.L
    eps = 1e-6
    n, m = net.n, net.m
    fd = np.zeros_like(L)
    for j in range(2 * n - m):
        dd = np.zeros(n)
        dv = np.zeros(n - m)
        if j < n:
            dd[j] = eps
        else:
            dv[j - n] = eps
        rp = np.concatenate(residual_vectors(
            net, OperatingPoint(st.op.delta + dd, st.op.v_load + dv)))
        rm = np.concatenate(residual_vectors(
            net, OperatingPoint(st.op.delta - dd, st.op.v_load - dv)))
        fd[:, j] = (rp - rm) / (2 * eps)
    assert np.max(np.abs(L - fd)) < 1e-6


def test_factorization_identity_everywhere(fixture_studies, random_suite):
    studies = [st for _, st in fixture_studies.values()] + [st for _, st in random_suite]
    for st in studies:
        L = st.bundle.L
        dev = np.max(np.abs(L - st.bundle.assemble_from_parts()))
        assert dev < 1e-12 * np.max(np.abs(L))


def test_factorization_identity_off_equilibrium():
    # The stored bus complement makes the identity exact at any state, not
    # just at solved equilibria.
    net = random_network(42).network
    rng = np.random.default_rng(3)
    op = OperatingPoint(
        delta=0.2 * rng.standard_normal(net.n),
        v_load=1 + 0.1 * rng.standard_normal(net.n - net.m),
    )
    bundle = hessian(net, op)
    dev = np.max(np.abs(bundle.L - bundle.assemble_from_parts()))
    assert dev < 1e-12 * np.max(np.abs(bundle.L))


def test_symmetry_and_nullspace(fixture_studies, random_suite):
    studies = [st for _, st in fixture_studies.values()] + [st for _, st in random_suite[:10]]
    for st in studies:
        L = st.bundle.L
        assert np.max(np.abs(L - L.T)) < 1e-14 * max(1.0, np.max(np.abs(L)))
        u = np.zeros(L.shape[0])
        u[:st.network.n] = 1.0
        assert np.max(np.abs(L @ u)) < 1e-10


def test_positive_semidefinite_at_stable_equilibria(fixture_studies, random_suite):
    studies = [st for _, st in fixture_studies.values()] + [st for _, st in random_suite[:10]]
    for st in studies:
        evals = np.linalg.eigvalsh(st.bundle.L)
        assert evals.min() >= -1e-10 * max(1.0, evals.max())


def test_bundle_is_analytic_not_differenced(chain3):
    # Build at a slightly perturbed (non-equilibrium) state and check the
    # energy Hessian by an independent quadratic-form probe.
    net, op = chain3
    rng = np.random.default_rng(4)
    probe = OperatingPoint(
        delta=op.delta + 0.03 * rng.standard_normal(net.n),
        v_load=op.v_load + 0.02 * rng.standard_normal(net.n - net.m),
    )
    bundle = hessian(net, probe)
    w = rng.standard_normal(2 * net.n - net.m)
    eps = 1e-5
    def shift(s):
        return OperatingPoint(
            delta=probe.delta + s * w[:net.n],
            v_load=probe.v_load + s * w[net.n:],
        )
    second_diff = (
        potential_energy(net, shift(eps))
        - 2 * potential_energy(net, shift(0.0))
        + potential_energy(net, shift(-eps))
    ) / eps ** 2
    assert abs(second_diff - w @ bundle.L @ w) < 1e-4
