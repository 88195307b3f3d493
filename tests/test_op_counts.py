"""Operation counts of the analysis chain, gated on counts rather than wall time.

Every binding of a counted function in every loaded ``oscdamp`` module is
replaced, because the package imports many functions by name
(``dispatch.hessian``, ``laplacian.line_states`` and so on); wrapping only
the defining module would miss those calls.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from collections import Counter
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import oscdamp.cli  # noqa: F401  (loads every package module)
from oscdamp import cases, dispatch, laplacian, modal, network, sensitivity, study

from conftest import stiff_star_grid

REBUILDS = (
    "laplacian.hessian",
    "laplacian.coord_jacobian",
    "network.hessian_matrix",
    "network.line_states",
    "network.build_incidence",
    "modal.build_dynamic_matrices",
)
COUNTED = REBUILDS + (
    "sensitivity.sensitivity_coefficients",
    "dispatch.flow_response",
    "dispatch.match_mode",
    "modal.eigenpairs",
    "modal.solve_qep",
    "network.residual_vectors",
    "network.solve_power_flow",
    "study.build_study",
)


def _wrap_everywhere(monkeypatch, key: str, wrapper) -> None:
    """Replace every binding of ``oscdamp.<key>`` in the loaded package
    modules with ``wrapper(original)``.

    Call the package through module attributes (``sensitivity.f``), not
    through names imported into the test module, so that the wrappers see it.
    """
    short, fname = key.split(".")
    orig = getattr(importlib.import_module(f"oscdamp.{short}"), fname)
    wrapped = wrapper(orig)
    for name, mod in list(sys.modules.items()):
        if name == "oscdamp" or name.startswith("oscdamp."):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, attr, wrapped)


@pytest.fixture
def counts(monkeypatch) -> Counter:
    """Call counts of every COUNTED function, keyed by ``module.function``."""
    counter: Counter = Counter()
    for key in COUNTED:
        def counting(orig, _key=key):
            def counted(*args, **kwargs):
                counter[_key] += 1
                return orig(*args, **kwargs)
            return counted

        _wrap_everywhere(monkeypatch, key, counting)
    return counter


def test_sensitivity_reads_the_bundle(fixture_studies, random_suite, counts):
    studies = [st for _, st in fixture_studies.values()] + [st for _, st in random_suite[:5]]
    for st in studies:
        for md in st.oscillatory():
            rep = sensitivity.sensitivity_coefficients(st.network, st.op, md, st.bundle, st.dyn)
            if st.const_v:
                sensitivity.const_v_coefficients(md, rep)
    assert counts["sensitivity.sensitivity_coefficients"] > 0
    assert {key: counts[key] for key in REBUILDS} == dict.fromkeys(REBUILDS, 0)


def test_build_study_assembles_each_matrix_once(counts):
    fx = cases.load_fixture("ten_bus")
    study.build_study(fx.network, const_v=fx.const_v)
    assert counts["laplacian.hessian"] == 1
    assert counts["laplacian.coord_jacobian"] == 1
    assert counts["network.build_incidence"] == 1
    assert counts["modal.build_dynamic_matrices"] == 1
    assert counts["modal.solve_qep"] == 1


@pytest.mark.parametrize("name", ["ten_bus", "six_bus"])
def test_rank_pairs_builds_one_bundle(fixture_studies, counts, name):
    _, st = fixture_studies[name]
    ranked = dispatch.rank_pairs(st.network, st.op, st.electromechanical()[0])
    assert len(ranked) == st.network.m * (st.network.m - 1)
    assert counts["laplacian.hessian"] == 1
    assert counts["network.hessian_matrix"] == 1
    # The angle-only bundle takes H from the incidence alone.
    assert counts["laplacian.coord_jacobian"] == (0 if st.const_v else 1)
    assert counts["network.build_incidence"] == 1
    assert counts["network.line_states"] == 1
    assert counts["modal.build_dynamic_matrices"] == 1
    assert counts["sensitivity.sensitivity_coefficients"] == 1
    assert counts["dispatch.flow_response"] == 0


@pytest.mark.parametrize("name", ["ten_bus", "six_bus"])
def test_unit_dlambda_builds_no_bundle(fixture_studies, counts, name):
    _, st = fixture_studies[name]
    plan = dispatch.plan_between(st.network, "G1", "G3")
    dispatch.unit_dlambda(st, st.electromechanical()[0], plan)
    assert {key: counts[key] for key in REBUILDS} == dict.fromkeys(REBUILDS, 0)
    assert counts["sensitivity.sensitivity_coefficients"] == 1
    assert counts["dispatch.flow_response"] == 1


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


def test_rank_and_verify_never_call_scipy_linalg_solve(monkeypatch, capsys):
    def solve(*args, **kwargs):
        raise AssertionError("scipy.linalg.solve called; the ranking calls dpotrf "
                             "and dpotrs directly")

    monkeypatch.setattr(scipy.linalg, "solve", solve)
    six = str(resources.files("oscdamp").joinpath("data", "six_bus.grid"))
    assert oscdamp.cli.main(["rank", six, "--const-v", "--mode", "2"]) == 0
    assert oscdamp.cli.main(["verify"]) == 0


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
    assert counts["network.solve_power_flow"] == 1
    assert counts["modal.build_dynamic_matrices"] == 0
    assert counts["laplacian.hessian"] == 0
    assert counts["laplacian.coord_jacobian"] == 0
    assert counts["network.build_incidence"] == 0
    assert counts["study.build_study"] == 0
    assert counts["modal.solve_qep"] == 0
    assert qz_calls == [st.bundle.L.shape[0] + st.network.m]
    assert counts["dispatch.match_mode"] == 1


@pytest.mark.parametrize("const_v", [False, True])
@pytest.mark.parametrize("name", ["ten_bus", "six_bus", "three_bus_s9"])
def test_a_tracked_sweep_row_is_one_power_flow_and_no_eigensolve(
        monkeypatch, counts, qz_calls, name, const_v):
    fx = cases.load_fixture(name)
    st = study.build_study(fx.network, const_v=const_v)
    labels = st.network.gen_labels()
    plan = dispatch.plan_between(st.network, labels[0], labels[-1])
    # Counted where dispatch calls it, apart from the power flow's own Newton steps.
    hessians = []
    hessian_matrix = dispatch.hessian_matrix
    monkeypatch.setattr(dispatch, "hessian_matrix", lambda *args, **kwargs: (
        hessians.append(1) or hessian_matrix(*args, **kwargs)))
    counts.clear()
    qz_calls.clear()
    mode = st.electromechanical()[0]
    dispatch.ModePath(st.network, st.op, mode, plan).tracked(0.01)
    assert counts["network.solve_power_flow"] == 1
    assert len(hessians) == 1
    assert counts["modal.build_dynamic_matrices"] == 1
    assert counts["modal.eigenpairs"] == 0
    assert qz_calls == []
    assert counts["dispatch.match_mode"] == 0
    dispatch.sweep(st.network, st.op, mode, plan, [0.003, -0.01])
    assert counts["modal.eigenpairs"] == 0 and qz_calls == []


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
    assert counts["modal.build_dynamic_matrices"] == 1
    assert counts["laplacian.hessian"] == 1
    assert counts["network.solve_power_flow"] == 2
    assert counts["modal.eigenpairs"] == 0 and qz_calls == []
    assert counts["dispatch.match_mode"] == 0
    counts.clear()
    cases.finite_difference_sensitivity(st.network, st.op, mode, plan)
    assert counts["modal.build_dynamic_matrices"] == 1
    assert counts["laplacian.hessian"] == 0
    assert counts["network.solve_power_flow"] == 2
    assert counts["modal.eigenpairs"] == 2 and len(qz_calls) == 2
    assert counts["dispatch.match_mode"] == 2


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
    assert counts["dispatch.match_mode"] == 4 and len(qz_calls) == 4


def test_six_bus_at_r_1_falls_back_to_the_re_solve(fixture_studies, counts):
    # For the first mode Newton does not converge; for the second it converges
    # onto a vector that correlates 0.86 with the base one. Either way the
    # row is the QZ re-solve's, bit for bit.
    _, st = fixture_studies["six_bus"]
    for md in st.electromechanical():
        counts.clear()
        got, want = _sweep_exact(st, [1.0], md)
        assert got == want and counts["dispatch.match_mode"] == 2


def test_a_fallback_row_reuses_its_power_flow(fixture_studies, counts, qz_calls):
    # Newton cannot follow either six_bus mode to r = 1.0; the QZ re-solve
    # that replaces it eigensolves the linearization already built.
    _, st = fixture_studies["six_bus"]
    plan = dispatch.plan_between(st.network, "G1", "G3")
    for md in st.electromechanical():
        counts.clear()
        qz_calls.clear()
        dispatch.ModePath(st.network, st.op, md, plan).tracked(1.0)
        assert counts["network.solve_power_flow"] == 1
        assert counts["modal.build_dynamic_matrices"] == 1
        assert len(qz_calls) == 1 and counts["dispatch.match_mode"] == 1


@pytest.mark.parametrize("name", ["ten_bus", "six_bus"])
def test_a_sweep_slope_is_one_cholesky_solve(monkeypatch, fixture_studies, counts, name):
    calls = Counter()

    def counting(key, orig):
        def counted(*args, **kwargs):
            calls[key] += 1
            return orig(*args, **kwargs)
        return counted

    monkeypatch.setattr(np.linalg, "pinv", counting("pinv", np.linalg.pinv))
    monkeypatch.setattr(dispatch, "_DPOTRF", counting("dpotrf", dispatch._DPOTRF))
    _, st = fixture_studies[name]
    labels = st.network.gen_labels()
    plan = dispatch.plan_between(st.network, labels[0], labels[-1])
    rows = dispatch.sweep(st.network, st.op, st.electromechanical()[0], plan, [0.003, -0.01])
    assert all(row.lambda_exact is not None for row in rows)
    assert counts["dispatch.flow_response"] == 0
    assert calls == {"dpotrf": 1}


@pytest.mark.parametrize("name", cases.FIXTURE_NAMES)
def test_an_angle_only_solve_builds_only_the_angle_hessian(monkeypatch, name):
    # Every Newton step, the bundle and every re-solve of sweep and the oracle.
    shapes = []

    def recording(orig):
        def recorded(*args, **kwargs):
            out = orig(*args, **kwargs)
            shapes.append(out.shape)
            return out
        return recorded

    _wrap_everywhere(monkeypatch, "network.hessian_matrix", recording)
    net = cases.load_fixture(name).network
    st = study.build_study(net, const_v=True)
    if net.m >= 2:
        labels = net.gen_labels()
        plan = dispatch.plan_between(net, labels[0], labels[-1])
        mode = st.electromechanical()[0]
        dispatch.sweep(net, st.op, mode, plan, [0.003, -0.01])
        cases.finite_difference_sensitivity(net, st.op, mode, plan)
    assert len(shapes) > 1 and set(shapes) == {(net.n, net.n)}


@pytest.mark.parametrize("name", ["ten_bus", "six_bus"])
def test_sweep_and_oracle_build_the_topology_once(monkeypatch, name):
    # Every re-solve runs on a with_redispatch copy, which shares the arrays
    # its grid built; the dggev workspace is queried once per pencil order.
    built = []

    class Topology(network._Topology):
        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

    queries = []
    ggev = modal._DGGEV

    def counted(a, b, **kwargs):
        if kwargs.get("lwork") == -1:
            queries.append(a.shape[0])
        return ggev(a, b, **kwargs)

    monkeypatch.setattr(network, "_Topology", Topology)
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
    assert len(built) == 1
    # One pencil order throughout: the states plus one speed per generator.
    assert queries == [st.bundle.L.shape[0] + st.network.m]


def test_stiff_power_flow_stops_at_the_roundoff_floor(counts):
    # The b = 1e6 star is accepted at a residual that no step can lower; the
    # iteration must stop there instead of halving the step 40 times.
    network.solve_power_flow(network.parse_grid_file(stiff_star_grid(1e6)))
    assert counts["network.residual_vectors"] <= 5


def test_verify_solves_each_random_draw_once(counts, capsys):
    # Ten studies: the four fixtures, the three accepted random draws and
    # three draws rejected in the power flow. Each accepted draw is solved
    # once and re-solved twice by the oracle; the eighth bundle is six_bus's
    # ranking's.
    assert oscdamp.cli.main(["verify"]) == 0
    assert counts["study.build_study"] == 10
    assert counts["laplacian.hessian"] == 8
    assert counts["network.solve_power_flow"] == 16
    assert counts["modal.eigenpairs"] == 13


@pytest.mark.parametrize("name", cases.FIXTURE_NAMES)
def test_reproduce_case_solves_one_eigenproblem(counts, name):
    # The first-order predictions the fixtures check need no re-solve.
    cases.reproduce_case(name)
    assert counts["modal.solve_qep"] == 1


@pytest.mark.parametrize("name", cases.FIXTURE_NAMES)
def test_reproduce_case_computes_each_report_once(monkeypatch, counts, name):
    # (bundles, pinv calls, reports); six_bus's second bundle and report are
    # rank_pairs' own.
    hessians, pinvs, reports = {"three_bus_s7": (1, 0, 0), "three_bus_s9": (1, 1, 1),
                                "six_bus": (2, 1, 2), "ten_bus": (1, 1, 1)}[name]
    calls = []
    pinv = np.linalg.pinv
    monkeypatch.setattr(np.linalg, "pinv", lambda *args, **kwargs: (
        calls.append(1) or pinv(*args, **kwargs)))
    cases.reproduce_case(name)
    assert counts["laplacian.hessian"] == hessians
    assert len(calls) == pinvs
    assert counts["sensitivity.sensitivity_coefficients"] == reports


def test_benchmark_tracer_finds_every_traced_name(monkeypatch):
    # The benchmark's tracer looks up each of its TRACED names on entry, so a
    # deleted or renamed stage function breaks traced benchmark runs.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    # Registered first: its dataclasses resolve string annotations through sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    original = laplacian.hessian
    with tracer.Tracer():
        assert dispatch.hessian is not original
        assert dispatch.hessian is laplacian.hessian
    assert dispatch.hessian is original and laplacian.hessian is original
