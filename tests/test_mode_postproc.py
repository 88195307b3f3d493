"""The array form of the eigenpair post-processing and of mode matching
against the per-eigenvalue and per-candidate loops they replaced.

``solve_qep`` filters, gauges and summarizes all eigenvectors at once; the
loop below does it one eigenvalue at a time. The two must agree bit for bit,
sign of zero included, because the CLI prints eigenvector-derived digits at
roundoff level. ``match_mode`` scores all candidates in one product, which
may move a score by an ulp but must pick the same mode.
"""

from __future__ import annotations


import numpy as np
import pytest
import scipy.linalg

from oscdamp import ModeMatchingError, parse_grid_file, solve_power_flow
from oscdamp.dispatch import match_mode, plan_between
from oscdamp.modal import (
    MODE_RESIDUAL_REL,
    PARTICIPATION_THRESHOLD,
    RESONANCE_GAP_REL,
    UNIFORM_ANGLE_TOL,
    ZERO_MODE_REL_TOL,
    Mode,
    _pencil,
    backward_errors,
    solve_qep,
)
from oscdamp.study import Study, build_study

from conftest import assert_same_bits, stiff_star_grid

SWEEP_R = (0.003, 0.01, 0.03, -0.01)


def _first_at_max(mags):
    top = float(np.max(mags))
    return int(np.argmax(mags >= top * (1.0 - 1e-12)))


def _loop_swing_groups(x, gen_rows, labels):
    xg = x[gen_rows]
    top = np.max(np.abs(xg))
    if top == 0:
        return (), ()
    phase = xg[_first_at_max(np.abs(xg))]
    rotated = xg * (abs(phase) / phase)
    with_group = []
    for lab, val in zip(labels, rotated):
        if abs(val) < PARTICIPATION_THRESHOLD * top:
            continue
        with_group.append((lab, float(val.real)))
    return (tuple(lab for lab, re in with_group if re >= 0),
            tuple(lab for lab, re in with_group if re < 0))


def _loop_solve_qep(m_diag, d_diag, L, n_angles=None, gen_labels=None):
    nz = m_diag.size
    if n_angles is None:
        n_angles = nz
    E, J, zcol, gen_rows, n_dyn = _pencil(m_diag, d_diag, L)
    if gen_labels is None:
        gen_labels = tuple(str(i + 1) for i in range(gen_rows.size))
    (alph, beta), vr = scipy.linalg.eig(J, E, right=True, homogeneous_eigvals=True)
    finite = beta != 0
    assert np.count_nonzero(finite) == n_dyn
    lams = alph[finite] / beta[finite]
    vecs = vr[:, finite]
    spectral_scale = float(np.max(np.abs(lams))) if lams.size else 0.0
    kept = []
    for idx in range(lams.size):
        lam = complex(lams[idx])
        x = vecs[zcol, idx].astype(complex)
        if spectral_scale > 0 and abs(lam) < ZERO_MODE_REL_TOL * spectral_scale:
            xa = x[:n_angles]
            scale = float(np.max(np.abs(x))) or 1.0
            if np.max(np.abs(xa - np.mean(xa))) < UNIFORM_ANGLE_TOL * scale:
                continue
        if lam.imag < 0:
            continue
        xg = x[gen_rows] if gen_rows.size else x
        top = float(np.max(np.abs(xg))) if xg.size else 0.0
        if top > 1e-12 * float(np.max(np.abs(x))):
            x = x / xg[_first_at_max(np.abs(xg))]
        else:
            x = x / x[_first_at_max(np.abs(x))]
        kept.append((lam, x))
    if not kept:
        return []
    kept_lams = np.array([lam for lam, _ in kept])
    residuals = backward_errors(
        kept_lams, np.column_stack([x for _, x in kept]), m_diag, d_diag, L)
    dist = np.abs(kept_lams[:, None] - lams[None, :])
    gaps = np.min(np.where(dist > 0, dist, np.inf), axis=1)
    modes = []
    for (lam, x), residual, gap in zip(kept, residuals.tolist(), gaps.tolist()):
        assert residual <= MODE_RESIDUAL_REL
        warn = []
        if gap < RESONANCE_GAP_REL * spectral_scale:
            warn.append(
                f"near-resonant eigenvalue: gap {gap:.2e} below "
                f"{RESONANCE_GAP_REL:.0e} of spectral scale"
            )
        xmax = float(np.max(np.abs(x)))
        em = lam.imag > 0 and gen_rows.size > 0 and (
            float(np.max(np.abs(x[gen_rows]))) >= PARTICIPATION_THRESHOLD * xmax
        )
        modes.append(Mode(
            lam=lam, x=x, residual=residual,
            swing_groups=(_loop_swing_groups(x, gen_rows, gen_labels) if gen_rows.size
                          else ((), ())),
            electromechanical=bool(em), warnings=tuple(warn),
        ))
    modes.sort(key=lambda md: (md.lam.imag, md.lam.real))
    return modes


def _loop_match_mode(reference, candidates):
    pool = [md for md in candidates if md.omega > 0]
    if not pool:
        raise ModeMatchingError("no oscillatory modes in the re-solved spectrum")
    scores = []
    for md in pool:
        c = abs(np.vdot(reference.x, md.x)) / (
            np.linalg.norm(reference.x) * np.linalg.norm(md.x))
        scores.append((float(c), md))
    scores.sort(key=lambda t: -t[0])
    if len(scores) > 1 and scores[0][0] - scores[1][0] < 0.1:
        raise ModeMatchingError("ambiguous")
    return scores[0][1]


def _assert_same_modes(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert_same_bits(a.lam, b.lam)
        assert a.x.ndim == 1 and a.x.flags.c_contiguous
        assert_same_bits(a.x, b.x)
        assert_same_bits(a.residual, b.residual)
        assert a.swing_groups == b.swing_groups
        assert a.electromechanical is b.electromechanical
        assert a.warnings == b.warnings


@pytest.fixture(scope="module")
def studies(fixture_studies, random_suite):
    """Every fixture, the random suite and a stiff star, in both voltage models."""
    nets = [fx.network for fx, _ in fixture_studies.values()]
    nets += [net for net, _ in random_suite]
    nets.append(parse_grid_file(stiff_star_grid(1e2)))
    return [build_study(net, const_v=const_v) for net in nets for const_v in (False, True)]


def test_solve_qep_matches_eigenvalue_loop(studies):
    for st in studies:
        args = (st.dyn.m, st.dyn.d, st.bundle.L)
        kw = dict(n_angles=st.network.n, gen_labels=st.network.gen_labels())
        _assert_same_modes(list(st.modes), _loop_solve_qep(*args, **kw))
        _assert_same_modes(solve_qep(*args, **kw), list(st.modes))


RING = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.5]])


@pytest.mark.parametrize("m_diag, d_diag, L", [
    (np.zeros(3), np.ones(3), RING),  # no inertia: no generator rows
    (np.array([1.0, 0.0, 0.0]), np.array([0.5, 0.2, 0.0]), RING),
    (np.array([2.0, 1.0, 0.0]), np.zeros(3), RING),
    # Overdamped generators: the whole spectrum is real, so are the vectors.
    (np.array([1.0, 1.0, 0.0]), np.array([10.0, 10.0, 0.0]), RING),
    # A damped load adds a real eigenvalue beside the complex pairs.
    (np.array([1.0, 1.0, 0.0]), np.array([0.1, 0.2, 3.0]), RING),
    # A damped row decoupled from the generator: its mode has an all-zero
    # generator component and an empty swing profile.
    (np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.eye(2)),
])
def test_solve_qep_matches_eigenvalue_loop_on_small_pencils(m_diag, d_diag, L):
    modes = solve_qep(m_diag, d_diag, L)
    assert modes
    _assert_same_modes(modes, _loop_solve_qep(m_diag, d_diag, L))


def test_match_mode_matches_candidate_loop(studies):
    compared = 0
    for st in studies:
        em = st.electromechanical()
        if not em or st.network.m < 2:
            continue
        labels = st.network.gen_labels()
        plan = plan_between(st.network, labels[0], labels[-1])
        for r in SWEEP_R:
            shifted_net = st.network.with_redispatch(r * plan.dp)
            shifted = Study(shifted_net, solve_power_flow(shifted_net, initial=st.op,
                                                          const_v=st.const_v))
            lams = np.array([md.lam for md in shifted.modes])
            X = np.array([md.x for md in shifted.modes])
            try:
                want = _loop_match_mode(em[0], shifted.modes)
            except ModeMatchingError:
                with pytest.raises(ModeMatchingError):
                    match_mode(em[0], lams, X)
                continue
            assert shifted.modes[match_mode(em[0], lams, X)] is want
            compared += 1
    assert compared > 300
