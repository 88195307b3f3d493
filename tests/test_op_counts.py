"""Operation counts of the analysis chain, gated on counts rather than wall time.

Every binding of a counted function in every loaded ``oscdamp`` module is
replaced, because the package imports many functions by name
(``dispatch.hessian``, ``laplacian.line_states`` and so on); wrapping only
the defining module would miss those calls.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter

import pytest

import oscdamp.cli  # noqa: F401  (loads every package module)
from oscdamp import cases, dispatch, network, sensitivity, study

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
    "modal.solve_qep",
    "network.residual_vectors",
)


@pytest.fixture
def counts(monkeypatch) -> Counter:
    """Call counts of every COUNTED function, keyed by ``module.function``.

    Call the package through module attributes (``sensitivity.f``), not
    through names imported into the test module, so that the wrappers see it.
    """
    counter: Counter = Counter()
    modules = [mod for name, mod in sys.modules.items()
               if name == "oscdamp" or name.startswith("oscdamp.")]
    for key in COUNTED:
        short, fname = key.split(".")
        orig = getattr(importlib.import_module(f"oscdamp.{short}"), fname)

        def counted(*args, _orig=orig, _key=key, **kwargs):
            counter[_key] += 1
            return _orig(*args, **kwargs)

        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, attr, counted)
    return counter


def test_sensitivity_reads_the_bundle(fixture_studies, random_suite, counts):
    studies = [st for _, st in fixture_studies.values()] + [st for _, st in random_suite[:5]]
    for st in studies:
        for md in st.oscillatory():
            sensitivity.sensitivity_coefficients(st.network, st.op, md, st.bundle, st.dyn)
            if st.const_v:
                sensitivity.const_v_coefficients(md, st.bundle, st.dyn)
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
    assert counts["laplacian.coord_jacobian"] == 1
    assert counts["network.build_incidence"] == 1
    assert counts["network.line_states"] == 1
    assert counts["modal.build_dynamic_matrices"] == 1
    assert counts["sensitivity.sensitivity_coefficients"] == 1
    assert counts["dispatch.flow_response"] == 0


@pytest.mark.parametrize("name", ["ten_bus", "six_bus"])
def test_unit_dlambda_builds_one_bundle(fixture_studies, counts, name):
    _, st = fixture_studies[name]
    plan = dispatch.plan_between(st.network, "G1", "G3")
    dispatch.unit_dlambda(st.network, st.op, st.electromechanical()[0], plan)
    assert counts["laplacian.hessian"] == 1
    assert counts["network.build_incidence"] == 1
    assert counts["sensitivity.sensitivity_coefficients"] == 1
    assert counts["dispatch.flow_response"] == 1


def test_stiff_power_flow_stops_at_the_roundoff_floor(counts):
    # The b = 1e6 star is accepted at a residual that no step can lower; the
    # iteration must stop there instead of halving the step 40 times.
    network.solve_power_flow(network.parse_grid_file(stiff_star_grid(1e6)))
    assert counts["network.residual_vectors"] <= 5


@pytest.mark.parametrize("name", cases.FIXTURE_NAMES)
def test_reproduce_case_solves_one_eigenproblem(counts, name):
    # The first-order predictions the fixtures check need no re-solve.
    cases.reproduce_case(name)
    assert counts["modal.solve_qep"] == 1
