from __future__ import annotations

import numpy as np
import pytest

from oscdamp import UsageError, ValidationError, cases
from oscdamp.cases import (
    FIXTURE_NAMES,
    finite_difference_sensitivity,
    load_fixture,
    random_network,
    reproduce_case,
)
from oscdamp.dispatch import RedispatchPlan, plan_between, unit_dlambda
from oscdamp.study import build_study

from conftest import zero_damping_variant


def test_all_fixtures_load_and_carry_provenance():
    for name in FIXTURE_NAMES:
        fx = load_fixture(name)
        assert fx.expected, name
        for exp in fx.expected:
            assert exp.tol > 0
            assert exp.provenance
            assert exp.status in ("verified", "contingent")


@pytest.mark.parametrize("line, message", [
    ("em_count 2 0 verified", "six_bus.expected line 1: need 5 fields"),
    ("em_count 2 0 maybe paper", "six_bus.expected line 1: bad status 'maybe'"),
])
def test_a_malformed_expected_line_is_a_usage_error(monkeypatch, line, message):
    read = cases._read_data
    monkeypatch.setattr(cases, "_read_data", lambda fname: (
        line + "\n" if fname.endswith(".expected") else read(fname)))
    with pytest.raises(UsageError, match=f"^{message}$"):
        load_fixture("six_bus")


def test_unknown_fixture_rejected():
    with pytest.raises(UsageError):
        load_fixture("nine_bus")


def test_reproduce_verified_expectations_hold():
    for name in FIXTURE_NAMES:
        rep = reproduce_case(name)
        failed = [ln.expectation.quantity for ln in rep.lines
                  if not ln.passed and ln.expectation.status == "verified"]
        assert rep.ok, f"{name}: {failed}"


def test_reproduce_contingent_status_is_reported_not_raised():
    rep = reproduce_case("six_bus")
    assert rep.ok
    assert not rep.locked  # reconstructed topology does not match the tables
    warned = [ln for ln in rep.lines if not ln.passed]
    assert all(ln.expectation.status == "contingent" for ln in warned)


def test_reproduce_deterministic():
    a = reproduce_case("three_bus_s9")
    b = reproduce_case("three_bus_s9")
    assert a == b


def test_oracle_symmetric_toy_agrees_with_formula(fixture_studies):
    _, st = fixture_studies["three_bus_s9"]
    md = st.electromechanical()[0]
    plan = plan_between(st.network, "G1", "G3")
    slope = unit_dlambda(st, md, plan)
    fd = finite_difference_sensitivity(st.network, st.op, md, plan, const_v=True)
    assert abs(fd - slope) < 1e-8 * max(1.0, abs(slope))


def test_oracle_step_refinement_is_second_order(fixture_studies, monkeypatch):
    # Slopes at h and h/2 agree to O(h^2); Richardson extrapolation is stable.
    _, st = fixture_studies["three_bus_s9"]
    md = st.electromechanical()[0]
    plan = plan_between(st.network, "G1", "G3")

    def slope(h):
        monkeypatch.setattr(cases, "ORACLE_STEP", h)
        return finite_difference_sensitivity(st.network, st.op, md, plan, const_v=True)

    h = 1e-4
    s1, s2, s3 = slope(h), slope(h / 2), slope(h / 4)
    assert abs(s1 - s2) < 1e-6 * max(1.0, abs(s1))
    rich1 = (4 * s2 - s1) / 3
    rich2 = (4 * s3 - s2) / 3
    assert abs(rich1 - rich2) < 1e-8 * max(1.0, abs(rich1))


def test_oracle_rejects_zero_direction(fixture_studies):
    _, st = fixture_studies["three_bus_s9"]
    md = st.electromechanical()[0]
    with pytest.raises(ValidationError):
        finite_difference_sensitivity(
            st.network, st.op, md, RedispatchPlan(dp=np.zeros(2)), const_v=True)


def test_oracle_rejects_a_plan_of_the_wrong_size_as_the_formula_does(fixture_studies):
    # A malformed plan is a caller error, not an oracle failure.
    _, st = fixture_studies["ten_bus"]
    md = st.electromechanical()[0]
    plan = RedispatchPlan(dp=np.array([1.0, -1.0]))
    with pytest.raises(ValidationError) as formula:
        unit_dlambda(st, md, plan)
    with pytest.raises(ValidationError) as oracle:
        finite_difference_sensitivity(st.network, st.op, md, plan)
    assert str(oracle.value) == str(formula.value) == \
        "plan has 2 entries, network has 4 generators"


def test_random_network_determinism_and_guarantees():
    for seed in (0, 1, 9):
        st = random_network(seed)
        a = st.network
        assert a == random_network(seed).network
        p, _ = a.injections()
        assert abs(float(np.sum(p))) < 1e-9
        assert a.m >= 2
        for ln in a.lines:
            assert not (ln.from_bus <= a.m and ln.to_bus <= a.m)
        from oscdamp.network import line_states
        assert np.max(np.abs(line_states(a, st.op).theta)) < 0.5


@pytest.mark.parametrize("seed", range(10))
def test_random_network_returns_the_study_build_study_makes(seed):
    st = random_network(seed)
    ref = build_study(st.network)
    assert not st.const_v
    assert np.array_equal(st.op.delta, ref.op.delta)
    assert np.array_equal(st.op.v_load, ref.op.v_load)
    assert np.array_equal(st.bundle.L, ref.bundle.L)
    assert len(st.modes) == len(ref.modes)
    for got, want in zip(st.modes, ref.modes):
        assert np.array_equal(got.lam, want.lam) and np.array_equal(got.x, want.x)


def test_zero_damping_variant_strips_damping():
    net = zero_damping_variant(random_network(4).network)
    assert all(b.damping_d_seconds == 0 for b in net.buses)


def _fd_inputs():
    st = random_network(3)
    net = st.network
    plan = plan_between(net, *net.gen_labels()[:2])
    return net, st, st.electromechanical()[0], plan


def test_oracle_maps_a_failed_re_solve_to_oracle_error(monkeypatch):
    # Except a failed mode match, which passes through as it is.
    from oscdamp import ConvergenceError, ModeMatchingError, OracleError, cases
    net, st, md, plan = _fd_inputs()
    for raised, caught, message in (
        (ConvergenceError, OracleError, "^oracle unavailable at step 1e-05: eig did not converge$"),
        (ModeMatchingError, ModeMatchingError, "^eig did not converge$"),
    ):
        def broken(*args, **kwargs):
            raise raised("eig did not converge")

        monkeypatch.setattr(cases.dispatch.ModePath, "exact", broken)
        with pytest.raises(caught, match=message) as failure:
            finite_difference_sensitivity(net, st.op, md, plan)
        assert type(failure.value) is caught


def test_oracle_lets_programming_errors_through(monkeypatch):
    from oscdamp import cases
    net, st, md, plan = _fd_inputs()

    def broken(*args, **kwargs):
        raise TypeError("bug")

    monkeypatch.setattr(cases.dispatch.ModePath, "exact", broken)
    with pytest.raises(TypeError, match="bug"):
        finite_difference_sensitivity(net, st.op, md, plan)


def test_random_network_retries_after_a_failed_study(monkeypatch):
    from oscdamp import ConvergenceError, cases
    calls = []

    def flaky(net, *args, **kwargs):
        calls.append(net)
        if len(calls) == 1:
            raise ConvergenceError("eig did not converge")
        return build_study(net, *args, **kwargs)

    monkeypatch.setattr(cases, "build_study", flaky)
    st = random_network(0)
    assert len(calls) >= 2
    assert st.network == calls[-1]


def test_random_network_lets_programming_errors_through(monkeypatch):
    from oscdamp import cases

    def broken(*args, **kwargs):
        raise TypeError("bug")

    monkeypatch.setattr(cases, "build_study", broken)
    with pytest.raises(TypeError, match="bug"):
        random_network(0)
