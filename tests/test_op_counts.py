"""Operation counts of the analysis chain, gated on counts rather than wall time.

Each count is taken by ``conftest.CallCounter``, which matches a call by the
code object it runs, so a test may call the package through any binding and
the package may import its functions under any name. Only the compiled LAPACK
handles of ``modal`` run no Python code; a test counts those by patching them.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest
import scipy.linalg

from oscdamp import cases, cli, dispatch, modal, network, sensitivity, study
from oscdamp.network import hessian_matrix

from conftest import PERFBENCH, CallCounter, data_path, perfbench_module, stiff_star_grid

REBUILDS = (
    "oscdamp.laplacian.hessian",
    "oscdamp.laplacian.coord_jacobian",
    "oscdamp.network.hessian_matrix",
    "oscdamp.network.line_states",
    "oscdamp.network.build_incidence",
    "oscdamp.modal.build_dynamic_matrices",
)
COUNTED = REBUILDS + (
    "oscdamp.sensitivity.sensitivity_coefficients",
    "oscdamp.dispatch.flow_response",
    "oscdamp.dispatch.match_mode",
    "oscdamp.modal.eigenpairs",
    "oscdamp.modal.solve_qep",
    "oscdamp.network.residual_vectors",
    "oscdamp.network.solve_power_flow",
    "oscdamp.network._Topology.__init__",
    "oscdamp.network.validate_network",
    "oscdamp.study.build_study",
    "numpy.linalg.pinv",
    "scipy.linalg.solve",
)


@pytest.fixture
def counts():
    """Call counts of every COUNTED function, keyed by its dotted name."""
    with CallCounter(*COUNTED) as counter:
        yield counter


def test_the_counter_sees_a_call_through_an_alias_bound_before_it_started(fixture_studies):
    # ``hessian_matrix`` was bound by this module's import, before any counter
    # existed: no rebinding of the package's names would reach it.
    _, st = fixture_studies["six_bus"]
    previous = sys.getprofile()
    with CallCounter("oscdamp.network.hessian_matrix",
                     keep="oscdamp.network.hessian_matrix") as calls:
        H = hessian_matrix(st.network, st.op)
    assert calls["oscdamp.network.hessian_matrix"] == 1
    assert calls["oscdamp.network.hessian_matrix", __name__] == 1
    assert len(calls.returned) == 1 and calls.returned[0] is H
    assert sys.getprofile() is previous


def test_sensitivity_reads_the_bundle(fixture_studies, random_suite, counts):
    studies = [st for _, st in fixture_studies.values()] + [st for _, st in random_suite[:5]]
    for st in studies:
        for md in st.oscillatory():
            rep = sensitivity.sensitivity_coefficients(st, md)
            if st.const_v:
                sensitivity.const_v_coefficients(md, rep)
    assert counts["oscdamp.sensitivity.sensitivity_coefficients"] > 0
    assert {key: counts[key] for key in REBUILDS} == dict.fromkeys(REBUILDS, 0)


@pytest.fixture
def factored(monkeypatch) -> list[int]:
    """Orders of the grounded blocks LAPACK ``dpotrf`` factors."""
    orders: list[int] = []
    dpotrf = modal._DPOTRF

    def counted(a, **kwargs):
        orders.append(a.shape[0])
        return dpotrf(a, **kwargs)

    monkeypatch.setattr(modal, "_DPOTRF", counted)
    return orders


def test_build_study_assembles_each_matrix_once(counts, factored):
    fx = cases.load_fixture("ten_bus")
    st = study.build_study(fx.network, const_v=fx.const_v)
    for _ in range(2):  # a second read finds each piece already built
        st.bundle, st.grounded_factor, st.dyn, st.modes
        assert factored == [st.bundle.L.shape[0] - 1]
        assert counts["oscdamp.laplacian.hessian"] == 1
        assert counts["oscdamp.laplacian.coord_jacobian"] == 1
        assert counts["oscdamp.network.build_incidence"] == 1
        assert counts["oscdamp.modal.build_dynamic_matrices"] == 1
        assert counts["oscdamp.modal.solve_qep"] == 1


@pytest.mark.parametrize("dump", [False, True], ids=["print", "dump"])
def test_pf_certifies_its_state_and_dumps_the_same_bundle(
        counts, factored, tmp_path, capsys, dump):
    # One bundle serves the certificate and the dump; pf never eigensolves.
    argv = ["pf", data_path("ten_bus.grid")] + (["--dump-matrices", str(tmp_path)] if dump else [])
    assert cli.main(argv) == 0
    assert counts["oscdamp.laplacian.hessian"] == 1
    assert counts["oscdamp.laplacian.coord_jacobian"] == 1
    assert counts["oscdamp.network.build_incidence"] == 1
    assert len(factored) == 1
    assert counts["oscdamp.modal.build_dynamic_matrices"] == 0
    assert counts["oscdamp.modal.solve_qep"] == 0


@pytest.mark.parametrize("name", ["ten_bus", "six_bus"])
def test_rank_pairs_builds_one_bundle(fixture_studies, counts, name):
    _, st = fixture_studies[name]
    ranked = dispatch.rank_pairs(st.network, st.op, st.electromechanical()[0])
    assert len(ranked) == st.network.m * (st.network.m - 1)
    assert counts["oscdamp.laplacian.hessian"] == 1
    assert counts["oscdamp.network.hessian_matrix"] == 1
    # The angle-only bundle takes H from the incidence alone.
    assert counts["oscdamp.laplacian.coord_jacobian"] == (0 if st.const_v else 1)
    assert counts["oscdamp.network.build_incidence"] == 1
    assert counts["oscdamp.network.line_states"] == 1
    assert counts["oscdamp.modal.build_dynamic_matrices"] == 1
    assert counts["oscdamp.sensitivity.sensitivity_coefficients"] == 1
    assert counts["oscdamp.dispatch.flow_response"] == 0
    # Its own study of (network, op) is never eigensolved.
    assert counts["oscdamp.modal.solve_qep"] == 0
    assert counts["oscdamp.modal.eigenpairs"] == 0


@pytest.mark.parametrize("name", ["ten_bus", "six_bus"])
def test_unit_dlambda_builds_no_bundle(fixture_studies, counts, name):
    _, st = fixture_studies[name]
    plan = dispatch.plan_between(st.network, "G1", "G3")
    dispatch.unit_dlambda(st, st.electromechanical()[0], plan)
    assert {key: counts[key] for key in REBUILDS} == dict.fromkeys(REBUILDS, 0)
    assert counts["oscdamp.sensitivity.sensitivity_coefficients"] == 1
    assert counts["oscdamp.dispatch.flow_response"] == 1


@pytest.fixture
def qz_calls(monkeypatch) -> list[int]:
    """Pencil sizes of the ``dggev`` calls that compute eigenvectors (not the
    workspace queries); a call of ``scipy.linalg.eig`` fails the test."""
    sizes: list[int] = []
    ggev = modal._DGGEV

    def counted(a, b, **kwargs):
        if kwargs.get("lwork") != -1 and kwargs.get("compute_vr", 1):
            sizes.append(a.shape[0])
        return ggev(a, b, **kwargs)

    def eig(*args, **kwargs):
        raise AssertionError("scipy.linalg.eig called; the package calls dggev directly")

    monkeypatch.setattr(modal, "_DGGEV", counted)
    monkeypatch.setattr(scipy.linalg, "eig", eig)
    return sizes


def test_modes_factors_once_and_rank_twice(factored, capsys):
    # pf and build_study certify their state once; rank_pairs certifies the
    # fresh Study(network, op) it builds again, until it takes the caller's study.
    six = data_path("six_bus.grid")
    assert cli.main(["pf", six, "--const-v"]) == 0
    assert len(factored) == 1
    factored.clear()
    assert cli.main(["modes", six, "--const-v"]) == 0
    assert len(factored) == 1
    factored.clear()
    assert cli.main(["rank", six, "--const-v", "--mode", "2"]) == 0
    assert len(factored) == 2


def test_rank_and_verify_never_call_scipy_linalg_solve(counts, capsys):
    # The ranking calls dpotrf and dpotrs directly.
    six = data_path("six_bus.grid")
    assert cli.main(["rank", six, "--const-v", "--mode", "2"]) == 0
    assert cli.main(["verify"]) == 0
    assert counts["scipy.linalg.solve"] == 0


@pytest.mark.parametrize("name", ["ten_bus", "six_bus"])
def test_one_qz_per_eigensolve(qz_calls, name):
    fx = cases.load_fixture(name)
    st = study.build_study(fx.network, const_v=fx.const_v)
    assert len(qz_calls) == 1
    labels = st.network.gen_labels()
    plan = dispatch.plan_between(st.network, labels[0], labels[-1])
    path = dispatch.ModePath(st.network, st.op, st.electromechanical()[0], plan)
    for r in (0.003, -0.01):
        path.exact(r)
    assert qz_calls == [qz_calls[0]] * 3


@pytest.mark.parametrize("const_v", [False, True])
@pytest.mark.parametrize("name", ["ten_bus", "six_bus", "three_bus_s9"])
def test_a_re_solve_is_one_power_flow_one_qz_and_one_match(counts, qz_calls, name, const_v):
    fx = cases.load_fixture(name)
    st = study.build_study(fx.network, const_v=const_v)
    labels = st.network.gen_labels()
    plan = dispatch.plan_between(st.network, labels[0], labels[-1])
    path = dispatch.ModePath(st.network, st.op, st.electromechanical()[0], plan)
    counts.clear()
    qz_calls.clear()
    path.exact(0.01)
    assert counts["oscdamp.network.solve_power_flow"] == 1
    assert counts["oscdamp.modal.build_dynamic_matrices"] == 0
    assert counts["oscdamp.laplacian.hessian"] == 0
    assert counts["oscdamp.laplacian.coord_jacobian"] == 0
    assert counts["oscdamp.network.build_incidence"] == 0
    assert counts["oscdamp.study.build_study"] == 0
    assert counts["oscdamp.modal.solve_qep"] == 0
    assert qz_calls == [st.bundle.L.shape[0] + st.network.m]
    assert counts["oscdamp.dispatch.match_mode"] == 1


@pytest.mark.parametrize("const_v", [False, True])
@pytest.mark.parametrize("name", ["ten_bus", "six_bus", "three_bus_s9"])
def test_a_tracked_sweep_row_is_one_power_flow_and_no_eigensolve(
        counts, qz_calls, name, const_v):
    fx = cases.load_fixture(name)
    st = study.build_study(fx.network, const_v=const_v)
    labels = st.network.gen_labels()
    plan = dispatch.plan_between(st.network, labels[0], labels[-1])
    counts.clear()
    qz_calls.clear()
    mode = st.electromechanical()[0]
    dispatch.ModePath(st.network, st.op, mode, plan).tracked(0.01)
    assert counts["oscdamp.network.solve_power_flow"] == 1
    # Counted where dispatch calls it, apart from the power flow's own Newton steps.
    assert counts["oscdamp.network.hessian_matrix", "oscdamp.dispatch"] == 1
    assert counts["oscdamp.modal.build_dynamic_matrices"] == 1
    assert counts["oscdamp.modal.eigenpairs"] == 0
    assert qz_calls == []
    assert counts["oscdamp.dispatch.match_mode"] == 0
    dispatch.sweep(st.network, st.op, mode, plan, [0.003, -0.01])
    assert counts["oscdamp.modal.eigenpairs"] == 0 and qz_calls == []


@pytest.mark.parametrize("const_v", [False, True])
@pytest.mark.parametrize("name", ["ten_bus", "six_bus", "three_bus_s9"])
def test_sweep_and_oracle_build_the_dynamic_matrices_once(counts, qz_calls, name, const_v):
    # Redispatch moves neither M nor D: one path serves the sweep's slope and
    # rows, another the oracle's two steps, and neither builds them again.
    fx = cases.load_fixture(name)
    st = study.build_study(fx.network, const_v=const_v)
    labels = st.network.gen_labels()
    plan = dispatch.plan_between(st.network, labels[0], labels[-1])
    mode = st.electromechanical()[0]
    counts.clear()
    qz_calls.clear()
    dispatch.sweep(st.network, st.op, mode, plan, [0.003, -0.01])
    assert counts["oscdamp.modal.build_dynamic_matrices"] == 1
    assert counts["oscdamp.laplacian.hessian"] == 1
    assert counts["oscdamp.network.solve_power_flow"] == 2
    assert counts["oscdamp.modal.eigenpairs"] == 0 and qz_calls == []
    assert counts["oscdamp.dispatch.match_mode"] == 0
    # A redispatched copy shares its grid's checked structure.
    assert counts["oscdamp.network.validate_network"] == 0
    counts.clear()
    cases.finite_difference_sensitivity(st.network, st.op, mode, plan)
    assert counts["oscdamp.network.validate_network"] == 0
    assert counts["oscdamp.modal.build_dynamic_matrices"] == 1
    assert counts["oscdamp.laplacian.hessian"] == 0
    assert counts["oscdamp.network.solve_power_flow"] == 2
    assert counts["oscdamp.modal.eigenpairs"] == 2 and len(qz_calls) == 2
    assert counts["oscdamp.dispatch.match_mode"] == 2


def _sweep_exact(st, r_values, md=None):
    labels = st.network.gen_labels()
    plan = dispatch.plan_between(st.network, labels[0], labels[-1])
    md = md or st.electromechanical()[0]
    rows = dispatch.sweep(st.network, st.op, md, plan, r_values)
    path = dispatch.ModePath(st.network, st.op, md, plan)
    return [row.lambda_exact for row in rows], [path.exact(r) for r in r_values]


def test_a_sweep_row_that_newton_cannot_track_is_exact_modes_value(
        monkeypatch, fixture_studies, counts, qz_calls):
    _, st = fixture_studies["ten_bus"]
    monkeypatch.setattr(modal, "newton_eigenpair", lambda *args: None)
    got, want = _sweep_exact(st, [0.003, 0.01])
    assert got == want
    # Each row is its re-solve, then the reference's.
    assert counts["oscdamp.dispatch.match_mode"] == 4 and len(qz_calls) == 4


def test_six_bus_at_r_1_falls_back_to_the_re_solve(fixture_studies, counts):
    # For the first mode Newton does not converge; for the second it converges
    # onto a vector that correlates 0.86 with the base one. Either way the
    # row is the QZ re-solve's, bit for bit.
    _, st = fixture_studies["six_bus"]
    for md in st.electromechanical():
        counts.clear()
        got, want = _sweep_exact(st, [1.0], md)
        assert got == want and counts["oscdamp.dispatch.match_mode"] == 2


def test_a_fallback_row_reuses_its_power_flow(fixture_studies, counts, qz_calls):
    # Newton cannot follow either six_bus mode to r = 1.0; the QZ re-solve
    # that replaces it eigensolves the linearization already built.
    _, st = fixture_studies["six_bus"]
    plan = dispatch.plan_between(st.network, "G1", "G3")
    for md in st.electromechanical():
        counts.clear()
        qz_calls.clear()
        dispatch.ModePath(st.network, st.op, md, plan).tracked(1.0)
        assert counts["oscdamp.network.solve_power_flow"] == 1
        assert counts["oscdamp.modal.build_dynamic_matrices"] == 1
        assert len(qz_calls) == 1 and counts["oscdamp.dispatch.match_mode"] == 1


@pytest.mark.parametrize("name", ["ten_bus", "six_bus"])
def test_a_sweep_slope_is_one_cholesky_solve(factored, fixture_studies, counts, name):
    _, st = fixture_studies[name]
    labels = st.network.gen_labels()
    plan = dispatch.plan_between(st.network, labels[0], labels[-1])
    rows = dispatch.sweep(st.network, st.op, st.electromechanical()[0], plan, [0.003, -0.01])
    assert all(row.lambda_exact is not None for row in rows)
    assert counts["oscdamp.dispatch.flow_response"] == 0
    assert counts["numpy.linalg.pinv"] == 0 and len(factored) == 1


@pytest.mark.parametrize("name", cases.FIXTURE_NAMES)
def test_an_angle_only_solve_builds_only_the_angle_hessian(name):
    # Every Newton step, the bundle and every re-solve of sweep and the oracle.
    net = cases.load_fixture(name).network
    with CallCounter(keep="oscdamp.network.hessian_matrix") as calls:
        st = study.build_study(net, const_v=True)
        if net.m >= 2:
            labels = net.gen_labels()
            plan = dispatch.plan_between(net, labels[0], labels[-1])
            mode = st.electromechanical()[0]
            dispatch.sweep(net, st.op, mode, plan, [0.003, -0.01])
            cases.finite_difference_sensitivity(net, st.op, mode, plan)
    shapes = {out.shape for out in calls.returned}
    assert len(calls.returned) > 1 and shapes == {(net.n, net.n)}


@pytest.mark.parametrize("name", ["ten_bus", "six_bus"])
def test_sweep_and_oracle_build_the_topology_once(monkeypatch, counts, name):
    # Every re-solve runs on a with_redispatch copy, which shares the arrays
    # its grid built; the dggev workspace is queried once per pencil order.
    queries = []
    ggev = modal._DGGEV

    def counted(a, b, **kwargs):
        if kwargs.get("lwork") == -1:
            queries.append(a.shape[0])
        return ggev(a, b, **kwargs)

    monkeypatch.setattr(modal, "_DGGEV", counted)
    modal._dggev_lwork.cache_clear()
    fx = cases.load_fixture(name)
    st = study.build_study(fx.network, const_v=fx.const_v)
    mode = st.electromechanical()[0]
    labels = st.network.gen_labels()
    plan = dispatch.plan_between(st.network, labels[0], labels[-1])
    rows = dispatch.sweep(st.network, st.op, mode, plan, [0.003, 0.01, -0.01])
    assert all(row.lambda_exact is not None for row in rows)
    cases.finite_difference_sensitivity(st.network, st.op, mode, plan)
    assert counts["oscdamp.network._Topology.__init__"] == 1
    # One pencil order throughout: the states plus one speed per generator.
    assert queries == [st.bundle.L.shape[0] + st.network.m]


GOLDEN_COMMANDS = {name: item for name, item in json.loads(
    (PERFBENCH / "goldens" / "manifest.json").read_text(encoding="utf-8")).items()
    if name != "verify"}


@pytest.mark.parametrize("name", GOLDEN_COMMANDS)
def test_a_command_on_a_grid_file_validates_the_grid_once(counts, capsys, name):
    command, grid, *flags = GOLDEN_COMMANDS[name]["argv"]
    code = cli.main([command, data_path(Path(grid).name), *flags])
    assert code == GOLDEN_COMMANDS[name]["exit"]
    assert counts["oscdamp.network.validate_network"] == 1


def test_stiff_power_flow_stops_at_the_roundoff_floor(counts):
    # The b = 1e6 star is accepted at a residual that no step can lower; the
    # iteration must stop there instead of halving the step 40 times.
    network.solve_power_flow(network.parse_grid_file(stiff_star_grid(1e6)))
    assert counts["oscdamp.network.residual_vectors"] <= 5


def test_verify_solves_each_random_draw_once(counts, capsys):
    # Seven studies: the four fixtures and the three accepted random draws;
    # the parser refuses the three unbalanced draws before any power flow.
    # Each accepted draw is solved once and re-solved twice by the oracle;
    # the eighth bundle is six_bus's ranking's.
    assert cli.main(["verify"]) == 0
    assert counts["oscdamp.study.build_study"] == 7
    assert counts["oscdamp.laplacian.hessian"] == 8
    assert counts["oscdamp.network.solve_power_flow"] == 13
    assert counts["oscdamp.modal.eigenpairs"] == 13


@pytest.mark.parametrize("name", cases.FIXTURE_NAMES)
def test_reproduce_case_solves_one_eigenproblem(counts, name):
    # The first-order predictions the fixtures check need no re-solve.
    cases.reproduce_case(name)
    assert counts["oscdamp.modal.solve_qep"] == 1


@pytest.mark.parametrize("name", cases.FIXTURE_NAMES)
def test_reproduce_case_computes_each_report_once(counts, name):
    # (bundles, pinv calls, reports); six_bus's second bundle and report are
    # rank_pairs' own.
    hessians, pinvs, reports = {"three_bus_s7": (1, 0, 0), "three_bus_s9": (1, 1, 1),
                                "six_bus": (2, 1, 2), "ten_bus": (1, 1, 1)}[name]
    cases.reproduce_case(name)
    assert counts["oscdamp.laplacian.hessian"] == hessians
    assert counts["numpy.linalg.pinv"] == pinvs
    assert counts["oscdamp.sensitivity.sensitivity_coefficients"] == reports


def test_benchmark_tracer_finds_every_traced_name():
    # The benchmark's tracer looks up each of its TRACED names on entry, so a
    # deleted or renamed stage function breaks traced benchmark runs.
    # ``dispatch`` imports ``hessian_matrix`` by name, so the tracer must
    # rebind that name as well as the defining module's.
    tracer = perfbench_module("tracer")
    original = network.hessian_matrix
    with tracer.Tracer():
        assert dispatch.hessian_matrix is not original
        assert dispatch.hessian_matrix is network.hessian_matrix
    assert dispatch.hessian_matrix is original and network.hessian_matrix is original
