from __future__ import annotations

import math
import re
import struct
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from oscdamp import (
    ConvergenceError,
    ModeMatchingError,
    OscdampError,
    ReductionError,
    RedispatchPlan,
    SingularityError,
    UsageError,
    ValidationError,
    flow_response,
    laplacian,
    modal,
    plan_between,
    rank_pairs,
    study,
    sweep,
    unit_dlambda,
)
from oscdamp.cases import FIXTURE_NAMES, _read_data, finite_difference_sensitivity, random_network
from oscdamp.dispatch import ModePath, generator_gains, match_mode
from oscdamp.network import OperatingPoint, line_states, parse_grid_file, solve_power_flow
from oscdamp.sensitivity import const_v_coefficients, sensitivity_coefficients
from oscdamp.study import Study, build_study

from conftest import CallCounter, perfbench_module

SYMMETRIC_2GEN = """
bus G1 G V=1.0 Pg=0.3  H=4.0 D=1.0
bus G2 G V=1.0 Pg=-0.3 H=4.0 D=1.0
bus L3 L Pl=0.0 Ql=0.0
line 1 G1 L3 b=4.0
line 2 G2 L3 b=4.0
"""

# Started at delta_3 = -(pi - asin 0.5), Newton stays on the far side of
# line e1 and converges to a saddle of the energy function.
SADDLE_3BUS = """
bus B1 G V=1 Pg=0.5 H=3 D=1
bus B2 G V=1 Pg=0.5 H=4 D=1
bus B3 L Pl=1 Ql=0 D=1
line e1 B1 B3 b=1
line e2 B2 B3 b=2
"""


ONE_GENERATOR = "bus G1 G V=1.0 H=3.0 D=1.0\nbus L2 L\nline t G1 L2 b=1.0\n"


def _matched(reference, modes):
    """The mode of ``modes`` that ``match_mode`` picks for ``reference``."""
    return modes[match_mode(reference, np.array([md.lam for md in modes]),
                            np.array([md.x for md in modes]))]


def test_plan_validation():
    with pytest.raises(ValidationError, match="unbalanced"):
        RedispatchPlan(dp=np.array([1.0, -0.5]))
    plan = RedispatchPlan(dp=np.zeros(2))  # zero plan is balanced and legal
    assert not plan.dp.any()


def test_plan_keeps_a_read_only_copy_of_dp():
    dp = np.array([1.0, -1.0])
    plan = RedispatchPlan(dp)
    dp[0] = 5.0  # the caller's array no longer reaches the validated plan
    assert plan.dp.tolist() == [1.0, -1.0]
    with pytest.raises(ValueError, match="read-only"):
        plan.dp[0] = 5.0


def _line_gains(st):
    mode, = st.modes  # the one mode of the grid, a real one
    return const_v_coefficients(mode, sensitivity_coefficients(st, mode))


@pytest.mark.parametrize("call, error, message", [
    (lambda st: rank_pairs(st.network, st.op, st.modes[0]), ValidationError,
     "pair ranking needs at least two generators"),
    (lambda st: st.network.with_redispatch([1.0, 2.0]), ValidationError,
     "redispatch vector has shape (2,), expected (1,)"),
    (lambda st: st.network.with_redispatch([math.nan]), ValidationError,
     "bus 'G1' has a non-finite value"),
    (_line_gains, UsageError, "line gains are defined for oscillatory modes only"),
    (lambda st: modal.eigenpairs(st.dyn.m, st.dyn.d, st.bundle.L[1:, 1:]), UsageError,
     "L has shape (1, 1), expected (2, 2)"),
    # A zero algebraic block leaves QZ no finite eigenvalue of the n_dyn = 2.
    (lambda st: modal.eigenpairs(st.dyn.m, st.dyn.d, st.bundle.L * [[1, 1], [1, 0]]),
     ReductionError, "algebraic block is singular; equilibrium sits at an algebraic singularity"),
], ids=["rank-one-generator", "redispatch-shape", "redispatch-nan", "line-gains-real-mode",
        "eigenpairs-hessian-shape", "eigenpairs-singular-algebraic-block"])
def test_library_refusals_the_cli_cannot_reach(call, error, message):
    # The parser or an earlier check stops each of these inputs on the CLI.
    st = build_study(parse_grid_file(ONE_GENERATOR), const_v=True)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(st)


@pytest.mark.parametrize("dp", [[math.nan, 0.0, 0.0, 0.0], [math.inf, -math.inf, 0.0, 0.0]])
def test_plan_rejects_a_non_finite_entry(dp):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="^redispatch plan has a non-finite entry$"):
            RedispatchPlan(dp=dp)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sweep_rejects_a_non_finite_amount_before_re_solving(fixture_studies, bad):
    _, st = fixture_studies["ten_bus"]
    md = st.electromechanical()[0]
    plan = plan_between(st.network, "G1", "G3")
    with CallCounter("oscdamp.network.solve_power_flow") as calls:
        with pytest.raises(UsageError, match="^redispatch amounts must be finite$"):
            sweep(st.network, st.op, md, plan, [0.003, bad])
    assert calls["oscdamp.network.solve_power_flow"] == 0


def test_plan_between_unknown_generator(random_suite):
    net, _ = random_suite[0]
    with pytest.raises(ValidationError):
        plan_between(net, "nope", net.gen_labels()[0])


def test_flow_response_zero_plan(random_suite):
    net, st = random_suite[0]
    dz = flow_response(st, RedispatchPlan(dp=np.zeros(net.m)))
    assert np.max(np.abs(dz)) == 0.0


def test_flow_response_projector_identity(random_suite):
    rng = np.random.default_rng(0)
    for net, st in random_suite[:8]:
        dp = rng.standard_normal(net.m)
        dp -= dp.mean()
        dz = flow_response(st, RedispatchPlan(dp=dp))
        rhs = np.zeros(st.bundle.L.shape[0])
        rhs[:net.m] = dp
        assert np.linalg.norm(st.bundle.L @ dz - rhs) < 1e-9 * max(1.0, np.linalg.norm(rhs))


def test_flow_response_matches_gauge_fixed_solve(random_suite):
    # Pinning the angle reference and dropping the redundant bus-1 equation
    # must give the same response up to a uniform angle shift.
    rng = np.random.default_rng(1)
    net, st = random_suite[4]
    dp = rng.standard_normal(net.m)
    dp -= dp.mean()
    dz = flow_response(st, RedispatchPlan(dp=dp))
    ddelta, dv = dz[:net.n], dz[net.n:]
    size = st.bundle.L.shape[0]
    keep = np.ones(size, bool)
    keep[0] = False
    rhs = np.zeros(size)
    rhs[:net.m] = dp
    pinned = np.zeros(size)
    pinned[keep] = np.linalg.solve(st.bundle.L[np.ix_(keep, keep)], rhs[keep])
    shift = ddelta[0] - pinned[0]
    assert np.max(np.abs(ddelta - (pinned[:net.n] + shift))) < 1e-10
    if dv.size:
        assert np.max(np.abs(dv - pinned[net.n:])) < 1e-10


def test_coord_jacobian_gauge_invariance(random_suite):
    net, st = random_suite[5]
    dz = np.concatenate([np.full(net.n, 0.3), np.zeros(net.n - net.m)])
    assert np.max(np.abs(st.bundle.H @ dz)) == 0.0


def test_incidence_chain(fixture_studies):
    _, st = fixture_studies["three_bus_s7"]
    eps = 1e-3
    dtheta = st.bundle.A.T @ np.array([eps, 0.0, 0.0])
    assert np.allclose(dtheta, [eps, 0.0])


def test_coord_jacobian_linearizes_the_nonlinear_map(random_suite):
    net, st = random_suite[6]
    rng = np.random.default_rng(2)
    ddelta = rng.standard_normal(net.n)
    dv = rng.standard_normal(net.n - net.m)
    dline = st.bundle.H @ np.concatenate([ddelta, dv])
    dtheta, dnu = dline[:net.n_lines], dline[net.n_lines:]
    base = line_states(net, st.op)
    errs = []
    for eps in (1e-4, 5e-5):
        op2 = OperatingPoint(st.op.delta + eps * ddelta, st.op.v_load + eps * dv)
        pert = line_states(net, op2)
        errs.append(max(
            np.max(np.abs((pert.theta - base.theta) / eps - dtheta)),
            np.max(np.abs((pert.nu - base.nu) / eps - dnu)),
        ))
    assert errs[0] < 1e-2
    assert errs[1] < errs[0] * 0.7  # first-order error shrinks with eps


def test_predict_identity_at_zero(random_suite):
    net, st = random_suite[7]
    md = st.electromechanical()[0]
    plan = plan_between(net, *net.gen_labels()[:2])
    pred = sweep(net, st.op, md, plan, [0.0])[0]
    assert pred.lambda_exact == md.lam
    assert _outcome(lambda: ModePath(net, st.op, md, plan).exact(0.0)) == _outcome(lambda: md.lam)
    assert pred.lambda_approx == md.lam
    assert pred.error == 0.0


def test_sweep_single_zero_row(random_suite):
    net, st = random_suite[7]
    md = st.electromechanical()[0]
    plan = plan_between(net, *net.gen_labels()[:2])
    rows = sweep(net, st.op, md, plan, [0.0])
    assert len(rows) == 1 and rows[0].error == 0.0


def test_linearity_in_the_plan():
    st = random_network(21)
    if st.network.m < 3:
        st = random_network(24)
    net = st.network
    md = st.electromechanical()[0]
    labels = net.gen_labels()
    p1 = plan_between(net, labels[0], labels[1])
    p2 = plan_between(net, labels[1], labels[2] if net.m > 2 else labels[0])
    a, b = 0.7, -1.9
    combo = RedispatchPlan(dp=a * p1.dp + b * p2.dp)
    d1 = unit_dlambda(st, md, p1)
    d2 = unit_dlambda(st, md, p2)
    dc = unit_dlambda(st, md, combo)
    assert abs(dc - (a * d1 + b * d2)) < 1e-12 * max(1.0, abs(dc))


def test_antisymmetry(random_suite):
    net, st = random_suite[8]
    md = st.electromechanical()[0]
    labels = net.gen_labels()
    fwd = unit_dlambda(st, md, plan_between(net, labels[0], labels[1]))
    rev = unit_dlambda(st, md, plan_between(net, labels[1], labels[0]))
    assert abs(fwd + rev) < 1e-12 * abs(fwd)


def test_rank_pairs_symmetric_two_generator_system():
    net = parse_grid_file(SYMMETRIC_2GEN)
    st = build_study(net)
    md = st.electromechanical()[0]
    ranked = rank_pairs(net, st.op, md)
    assert len(ranked) == 2
    assert abs(ranked[0].dlambda_dr + ranked[1].dlambda_dr) < 1e-12 * abs(ranked[0].dlambda_dr)


def _assert_rank_matches_pinv_path(net, st, md):
    # Reference: one pseudo-inverse solve per ordered pair, ranked by the
    # same key as rank_pairs.
    ranked = rank_pairs(net, st.op, md)
    labels = net.gen_labels()
    ref = {
        (up, down): unit_dlambda(st, md, plan_between(net, up, down))
        for up in labels for down in labels if up != down
    }
    assert len(ranked) == len(ref)
    scale = max(abs(v) for v in ref.values())
    for p in ranked:
        assert abs(p.dlambda_dr - ref[(p.up, p.down)]) <= 1e-12 * scale
    sigma, omega = md.sigma, md.omega
    mag3 = (sigma * sigma + omega * omega) ** 1.5
    dzeta = {pair: (-omega * omega * dl.real + sigma * omega * dl.imag) / mag3
             for pair, dl in ref.items()}
    ref_order = sorted(ref, key=lambda pair: (-dzeta[pair], *pair))
    assert [(p.up, p.down) for p in ranked] == ref_order


def test_rank_pairs_matches_pinv_path_random_suite(random_suite):
    for net, st in random_suite:
        _assert_rank_matches_pinv_path(net, st, st.electromechanical()[0])


def test_rank_pairs_matches_pinv_path_fixtures(fixture_studies):
    ranked = 0
    for _, st in fixture_studies.values():
        if st.network.m < 2 or not st.oscillatory():
            continue
        for md in st.oscillatory():
            _assert_rank_matches_pinv_path(st.network, st, md)
        ranked += 1
    assert ranked == 3


def relabelled(text: str, rng: np.random.Generator) -> str:
    """``text``'s bus and line records, each kind shuffled, with every other
    line reversed; comments and blank lines are dropped."""
    records = [tokens for raw in text.splitlines() if (tokens := raw.split("#", 1)[0].split())]
    kinds = {kind: [rec for rec in records if rec[0] == kind] for kind in ("system", "bus", "line")}
    buses, lines = ([kinds[kind][i] for i in rng.permutation(len(kinds[kind]))]
                    for kind in ("bus", "line"))
    for rec in lines[::2]:
        rec[2], rec[3] = rec[3], rec[2]
    return "".join(" ".join(rec) + "\n" for rec in kinds["system"] + buses + lines)


@pytest.mark.parametrize("name", [*FIXTURE_NAMES, "s100", "s101"])
def test_relabelling_buses_and_lines_moves_no_result(name):
    if name in FIXTURE_NAMES:
        text = _read_data(f"{name}.grid")
    else:  # a 50-bus, 10-generator meshed grid of the benchmark
        text, _ = perfbench_module("grids").synthetic_grid(40, 10, int(name[1:]))
    rng = np.random.default_rng(len(name))
    for const_v in (False, True):
        base = build_study(parse_grid_file(text), const_v=const_v)
        lam0 = np.array([md.lam for md in base.modes])
        em0 = base.electromechanical()
        ranked0 = rank_pairs(base.network, base.op, em0[0]) if base.network.m > 1 else []
        slopes0 = {(p.up, p.down): p.dlambda_dr for p in ranked0}
        for _ in range(5):
            st = build_study(parse_grid_file(relabelled(text, rng)), const_v=const_v)
            lam = np.array([md.lam for md in st.modes])
            assert lam.size == lam0.size
            assert max(np.min(np.abs(lam - x)) for x in lam0) <= 1e-12 * np.max(np.abs(lam0))
            lam_em = np.array([md.lam for md in st.electromechanical()])
            assert lam_em.size == len(em0)
            for md in em0:
                assert np.min(np.abs(lam_em - md.lam)) <= 1e-12 * abs(md.lam)
            if not ranked0:
                continue
            mode = st.electromechanical()[int(np.argmin(np.abs(lam_em - em0[0].lam)))]
            ranked = rank_pairs(st.network, st.op, mode)
            assert (ranked[0].up, ranked[0].down) == (ranked0[0].up, ranked0[0].down)
            worst = max(abs(p.dlambda_dr - slopes0[p.up, p.down]) for p in ranked)
            assert worst <= 1e-11 * max(map(abs, slopes0.values()))


def test_mode_path_slope_is_the_ranked_pair_gain(base_studies):
    # ModePath.slope and rank_pairs share one gains solve, so each pair's
    # slope must equal its ranked dlambda_dr bit for bit.
    pairs = 0
    for st in base_studies:
        net = st.network
        for md in st.oscillatory():
            for p in rank_pairs(net, st.op, md):
                plan = plan_between(net, p.up, p.down)
                assert ModePath(net, st.op, md, plan).slope() == p.dlambda_dr
                pairs += 1
    assert pairs == 720


def _gains_with_hessian(monkeypatch, st, L):
    """``generator_gains`` of the study's first electromechanical mode, with
    its bundle's Hessian replaced by L (the report does not read L)."""
    monkeypatch.setattr(laplacian, "hessian", lambda net, op: replace(st.bundle, L=L))
    return generator_gains(Study(st.network, st.op), st.electromechanical()[0])


def test_generator_gains_singular_grounded_block(random_suite, monkeypatch):
    _, st = random_suite[0]
    L = st.bundle.L.copy()
    L[-1, :] = 0.0
    L[:, -1] = 0.0
    with pytest.raises(SingularityError):
        _gains_with_hessian(monkeypatch, st, L)


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_generator_gains_nan_fails_residual_check(random_suite, monkeypatch):
    _, st = random_suite[0]
    L = st.bundle.L.copy()
    L[1, 1] = math.nan
    with pytest.raises(SingularityError):
        _gains_with_hessian(monkeypatch, st, L)


def _gains_by_scipy_solve(L, report, m):
    # generator_gains with its grounded solve done by scipy.linalg.solve.
    c = report.state_coeff
    parts = scipy.linalg.solve(
        L[1:, 1:], np.column_stack([c.real[1:], c.imag[1:]]), assume_a="pos")
    y = np.zeros(L.shape[0], dtype=complex)
    y[1:] = parts[:, 0] + 1j * parts[:, 1]
    return np.concatenate([[0.0], -y[1:m] / report.alpha])


def test_generator_gains_is_bit_identical_to_scipy_solve(fixture_studies, random_suite):
    studies = [st for _, st in fixture_studies.values()] + [st for _, st in random_suite]
    studies += [build_study(st.network, const_v=not st.const_v) for st in studies]
    for st in studies:
        if st.network.m < 2:
            continue
        assert st.electromechanical()
        for md in st.electromechanical():
            report = sensitivity_coefficients(st, md)
            assert np.array_equal(generator_gains(st, md),
                                  _gains_by_scipy_solve(st.bundle.L, report, st.network.m))


SADDLE_MESSAGE = ("^grounded Laplacian is not positive definite \\(LAPACK dpotrf info = 1\\); "
                  "the equilibrium is singular or a saddle of the energy function$")


def _solve_at_saddle(net, const_v=False):
    start = OperatingPoint(delta=np.array([0.0, 0.2709, -(math.pi - math.asin(0.5))]),
                           v_load=np.ones(1))
    return solve_power_flow(net, initial=start, const_v=const_v)


def _saddle_study():
    # build_study refuses this state, so the study is built directly.
    net = parse_grid_file(SADDLE_3BUS)
    st = Study(net, _solve_at_saddle(net, const_v=True))
    assert np.allclose(np.linalg.eigvalsh(st.bundle.L[1:, 1:]), [-4.354, -0.385], atol=1e-3)
    assert st.modes
    with pytest.raises(SingularityError, match=SADDLE_MESSAGE) as info:
        st.grounded_factor
    assert "\n" not in str(info.value)
    return st


def test_build_study_refuses_a_saddle_before_the_eigensolve(monkeypatch):
    monkeypatch.setattr(study, "solve_power_flow", _solve_at_saddle)
    with CallCounter("oscdamp.modal.solve_qep") as calls:
        with pytest.raises(SingularityError, match=SADDLE_MESSAGE):
            build_study(parse_grid_file(SADDLE_3BUS), const_v=True)
    assert calls["oscdamp.modal.solve_qep"] == 0


def test_rank_pairs_at_a_saddle_is_singularity_error():
    st = _saddle_study()
    for md in st.modes:
        with pytest.raises(SingularityError, match=SADDLE_MESSAGE) as info:
            rank_pairs(st.network, st.op, md)
        assert "\n" not in str(info.value)


def test_sweep_at_a_saddle_is_singularity_error():
    # The slope is the ranking's grounded Cholesky solve, so it fails as rank does.
    st = _saddle_study()
    plan = plan_between(st.network, "B1", "B2")
    for md in st.modes:
        with pytest.raises(SingularityError, match=SADDLE_MESSAGE) as info:
            sweep(st.network, st.op, md, plan, [0.003])
        assert "\n" not in str(info.value)


def test_rank_pairs_top_sign_confirmed_by_oracle():
    st = random_network(14)
    net = st.network
    md = st.electromechanical()[0]
    ranked = rank_pairs(net, st.op, md)
    top = ranked[0]
    plan = plan_between(net, top.up, top.down)
    r = 1e-3
    shifted_net = net.with_redispatch(r * plan.dp)
    shifted = Study(shifted_net, solve_power_flow(shifted_net, initial=st.op))
    lam_new = _matched(md, shifted.modes).lam
    zeta_new = -lam_new.real / abs(lam_new)
    zeta_old = -md.lam.real / abs(md.lam)
    assert math.copysign(1.0, zeta_new - zeta_old) == math.copysign(1.0, top.dzeta_dr)


def test_first_order_correctness_all_oscillatory_modes():
    # The slope check per mode, not just the tracked one.
    st = random_network(28)
    net = st.network
    labels = net.gen_labels()
    plan = plan_between(net, labels[0], labels[1])
    for md in st.electromechanical():
        slope = unit_dlambda(st, md, plan)
        fd = finite_difference_sensitivity(net, st.op, md, plan)
        assert abs(slope - fd) < 1e-6 * max(1.0, abs(slope))


def test_match_mode_ambiguity_raises():
    x = np.array([1.0, 0.0], dtype=complex)
    def as_mode(lam, vec):
        from oscdamp.modal import Mode
        return Mode(lam=lam, x=vec, residual=0.0,
                    swing_groups=((), ()), electromechanical=True)
    ref = as_mode(1j, x)
    near1 = as_mode(1.1j, np.array([1.0, 0.05], dtype=complex))
    near2 = as_mode(2.3j, np.array([1.0, -0.05], dtype=complex))
    with pytest.raises(ModeMatchingError, match="^ambiguous mode match"):
        _matched(ref, [near1, near2])
    with pytest.raises(ModeMatchingError, match="^no oscillatory modes"):
        _matched(ref, [as_mode(-1.0 + 0j, x)])
    assert _matched(ref, [as_mode(-1.0 + 0j, x), near1]) is near1


def test_ten_bus_sweep_pattern(fixture_studies):
    # First-order accurate at small redispatch, visibly diverging at large;
    # past the feasibility boundary of this reconstruction the oracle reports
    # itself unavailable while the first-order prediction is still returned.
    _, st = fixture_studies["ten_bus"]
    md = st.electromechanical()[0]
    plan = plan_between(st.network, "G1", "G3")
    rows = sweep(st.network, st.op, md, plan, [0.0, 0.003, 0.01, 0.1, 0.3])
    by_r = {round(p.r, 4): p for p in rows}
    assert abs(by_r[0.003].lambda_exact.imag - by_r[0.003].lambda_approx.imag) < 2e-4
    assert abs(by_r[0.01].lambda_exact.imag - by_r[0.01].lambda_approx.imag) < 1e-3
    assert abs(by_r[0.1].lambda_exact.imag - by_r[0.1].lambda_approx.imag) > 1e-2
    beyond = by_r[0.3]
    assert beyond.lambda_exact is None
    assert beyond.oracle_failure is not None
    assert abs(beyond.lambda_approx) > 0


def test_prediction_error_shrinks_quadratically(random_suite):
    net, st = random_suite[9]
    md = st.electromechanical()[0]
    plan = plan_between(net, *net.gen_labels()[:2])
    errs = {}
    for r in (4e-3, 2e-3, 1e-3):
        errs[r] = sweep(net, st.op, md, plan, [r])[0].error
    # Halving r should shrink the first-order remainder by about 4.
    assert errs[2e-3] < errs[4e-3] * 0.35
    assert errs[1e-3] < errs[2e-3] * 0.35


def _both_models(fixture_studies):
    """(network, study) pairs for six_bus in the angle-only and the full model."""
    _, cv = fixture_studies["six_bus"]
    return [(cv.network, cv), (cv.network, build_study(cv.network))]


def test_the_oracle_rejects_a_const_v_naming_the_other_model(fixture_studies):
    for net, st in _both_models(fixture_studies):
        md = st.electromechanical()[0]
        plan = plan_between(net, "G1", "G3")
        with pytest.raises(UsageError, match="const_v disagrees"):
            finite_difference_sensitivity(net, st.op, md, plan, const_v=not st.const_v)
        with pytest.raises(UsageError, match="const_v disagrees"):
            sweep(net, st.op, md, plan, [0.003], const_v=not st.const_v)


def _outcome(call):
    """The bits of the eigenvalue ``call`` returns, or its error's type and message."""
    try:
        lam = call()
    except OscdampError as exc:
        return type(exc), str(exc)
    return struct.pack("dd", lam.real, lam.imag)


@pytest.fixture(scope="module")
def base_studies(fixture_studies, random_suite):
    """The fixtures and the random suite with two or more generators, each
    solved in both voltage models."""
    nets = [fx.network for fx, _ in fixture_studies.values()] + [n for n, _ in random_suite]
    return [build_study(net, const_v=const_v)
            for net in nets if net.m >= 2 for const_v in (False, True)]


def _compare_re_solves(studies, r_values) -> Counter:
    """Check ``ModePath.exact`` against a whole study and a match on its modes;
    count the outcomes by result type or error type."""
    outcomes = Counter()
    for st in studies:
        net, md = st.network, st.electromechanical()[0]
        labels = net.gen_labels()
        plan = plan_between(net, labels[0], labels[-1])
        for r in r_values:
            def whole_study():
                shifted = net.with_redispatch(r * plan.dp)
                op = solve_power_flow(shifted, initial=st.op, const_v=st.const_v)
                return _matched(md, Study(shifted, op).modes).lam
            want = _outcome(whole_study)
            assert _outcome(lambda: ModePath(net, st.op, md, plan).exact(r)) == want
            outcomes[want[0] if isinstance(want, tuple) else complex] += 1
    return outcomes


def test_exact_mode_re_solves_in_the_model_of_the_mode(fixture_studies, base_studies):
    # The re-solve builds no bundle and no Mode summaries. Its eigenvalue, or
    # its failure, must be what a whole study and a match on its modes give.
    outcomes = _compare_re_solves(base_studies, (0.003, 0.01, 0.03, -0.01, 0.1))
    assert outcomes[complex] == 530
    for net, st in _both_models(fixture_studies):
        md = st.electromechanical()[0]
        plan = plan_between(net, "G1", "G3")
        assert finite_difference_sensitivity(net, st.op, md, plan) == \
            finite_difference_sensitivity(net, st.op, md, plan, const_v=st.const_v)


def test_a_re_solve_fails_as_a_whole_study_does(base_studies, monkeypatch):
    # Far redispatch: the power flow diverges, or the match is ambiguous.
    outcomes = _compare_re_solves(base_studies, (1.0, -1.0, 3.0))
    assert outcomes[ConvergenceError] > 0 and outcomes[ModeMatchingError] > 0
    # A residual gate that no eigenpair passes, refined or not: both name the
    # same first failure.
    monkeypatch.setattr(modal, "MODE_RESIDUAL_REL", -1.0)
    assert _compare_re_solves(base_studies[:10], (0.01,)) == {ConvergenceError: 10}


def test_a_tracked_row_agrees_with_the_re_solve(base_studies, monkeypatch):
    # Every oscillatory mode, both voltage models, with no fallback allowed.
    def no_fallback(*args):
        raise AssertionError("tracked row fell back to the QZ re-solve")

    compared = 0
    for st in base_studies:
        net = st.network
        labels = net.gen_labels()
        plan = plan_between(net, labels[0], labels[-1])
        for md in st.oscillatory():
            path = ModePath(net, st.op, md, plan)
            for r in (0.003, 0.01, 0.03):
                want = path.exact(r)
                with monkeypatch.context() as patch:
                    patch.setattr(ModePath, "_matched", no_fallback)
                    got = path.tracked(r)
                assert abs(got - want) <= 1e-12 * abs(want)
                compared += 1
    assert compared > 400


def test_a_tracked_pair_above_the_residual_gate_falls_back(fixture_studies, monkeypatch):
    # No pair passes a negative gate, so the row is the re-solve's failure.
    _, st = fixture_studies["ten_bus"]
    plan = plan_between(st.network, "G1", "G3")
    monkeypatch.setattr(modal, "MODE_RESIDUAL_REL", -1.0)
    with pytest.raises(ConvergenceError, match="^eigenpair residual"):
        ModePath(st.network, st.op, st.electromechanical()[0], plan).tracked(0.01)


def test_tracked_undamped_rows_keep_a_zero_real_part(fixture_studies):
    # No damping anywhere: Q(i omega) is real, and Newton never leaves the axis.
    _, st = fixture_studies["three_bus_s9"]
    md = st.electromechanical()[0]
    plan = plan_between(st.network, "G1", "G3")
    rows = sweep(st.network, st.op, md, plan, [0.003, 0.01, 0.03, 0.1, 1.0])
    for row in rows:
        assert row.lambda_exact.real == 0.0
        assert math.copysign(1.0, row.lambda_exact.real) == 1.0


def test_a_mode_of_neither_model_is_rejected(fixture_studies):
    # Nor a mode of the other model than the operating point's, either way round.
    for name in ("six_bus", "ten_bus"):
        _, base = fixture_studies[name]
        net = base.network
        studies = (base, build_study(net, const_v=not base.const_v))
        plan = plan_between(net, "G1", "G3")
        for st, other in (studies, studies[::-1]):
            md = st.electromechanical()[0]
            model = "angle-only" if st.const_v else "full"
            # One entry short of the angle-only size, one past the full size.
            wrong_size = replace(md, x=md.x[:-1] if st.const_v else np.append(md.x, 0.0))
            for bad, message in (
                (wrong_size, f"^mode has {wrong_size.x.size} entries"),
                (other.electromechanical()[0],
                 f"^the operating point is of the {model} model and the mode is not$"),
            ):
                calls = (
                    lambda: unit_dlambda(st, bad, plan),
                    lambda: sensitivity_coefficients(st, bad),
                    lambda: rank_pairs(net, st.op, bad),
                    lambda: ModePath(net, st.op, bad, plan).slope(),
                    lambda: ModePath(net, st.op, bad, plan).exact(0.003),
                    lambda: ModePath(net, st.op, bad, plan).tracked(0.0),
                    lambda: sweep(net, st.op, bad, plan, [0.003]),
                    lambda: finite_difference_sensitivity(net, st.op, bad, plan),
                )
                for call in calls:
                    with pytest.raises(UsageError, match=message):
                        call()


def test_the_sweep_slope_agrees_with_the_pinv_chain(base_studies):
    # Every electromechanical mode, both voltage models, two plans each.
    compared = 0
    for st in base_studies:
        net = st.network
        labels = net.gen_labels()
        plans = (plan_between(net, labels[0], labels[1]), plan_between(net, labels[-1], labels[0]))
        for md in st.electromechanical():
            for plan in plans:
                want = unit_dlambda(st, md, plan)
                assert abs(ModePath(net, st.op, md, plan).slope() - want) <= 1e-12 * abs(want)
                compared += 1
    assert compared == 308


def test_the_sweep_slope_is_the_gains_dlambda(fixture_studies):
    _, st = fixture_studies["ten_bus"]
    md = st.electromechanical()[0]
    plan = plan_between(st.network, "G1", "G3")
    row, = sweep(st.network, st.op, md, plan, [0.25])
    assert row.lambda_approx == md.lam + 0.25 * ModePath(st.network, st.op, md, plan).slope()
