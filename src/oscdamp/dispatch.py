"""Redispatch chain: dP -> (dtheta, dvln) -> dlambda, predictions, rankings.

For a single plan (``sens``, ``sweep``, ``verify``) the linearized load flow
L dz = (dP, 0) is solved with the least-squares pseudo-inverse. Pair ranking
instead uses that dlambda is linear in dP: one factorization of L with the
bus-1 angle pinned (the uniform-angle vector is the only nullspace) gives a
gain g_k per generator for the shift from generator 1 to generator k, and
every ordered pair is g_up - g_down. Either way a balanced dP must lie in the
range of the singular Laplacian, so the residual is checked rather than
assumed. The first-order eigenvalue formula is evaluated once at the base
point; predictions for finite r are lambda + r * dlambda and are compared
against a full re-solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import modal, sensitivity
from .errors import (
    ConvergenceError,
    ModeMatchingError,
    OracleError,
    SingularityError,
    ValidationError,
)
from .network import Network, OperatingPoint, build_incidence, bus_voltages
from .laplacian import hessian
from .study import build_study

PINV_RCOND = 1e-10
FLOW_RESIDUAL_TOL = 1e-9
BALANCE_REL_TOL = 1e-12
MATCH_AMBIGUITY_GAP = 0.1


@dataclass(frozen=True)
class RedispatchPlan:
    """Balanced generator shift: dp per generator bus, positive = more output."""

    dp: np.ndarray
    description: str = ""

    def __post_init__(self):
        dp = np.asarray(self.dp, dtype=float)
        object.__setattr__(self, "dp", dp)
        scale = float(np.max(np.abs(dp))) if dp.size else 0.0
        if abs(float(np.sum(dp))) > BALANCE_REL_TOL * max(1.0, scale):
            raise ValidationError(
                f"redispatch plan is unbalanced: sum dp = {float(np.sum(dp)):.3e}"
            )


def plan_between(network: Network, up: str, down: str, amount: float = 1.0) -> RedispatchPlan:
    """Plan shifting ``amount`` from generator ``down`` to generator ``up`` (labels)."""
    labels = network.gen_labels()
    if up not in labels or down not in labels:
        raise ValidationError(f"unknown generator pair {up}:{down}; generators are {labels}")
    if up == down:
        raise ValidationError("redispatch pair must name two distinct generators")
    dp = np.zeros(network.m)
    dp[labels.index(up)] = amount
    dp[labels.index(down)] = -amount
    return RedispatchPlan(dp=dp, description=f"{up}->{down}")


@dataclass(frozen=True)
class ModePrediction:
    r: float
    lambda_approx: complex
    lambda_exact: complex | None
    error: float | None
    oracle_failure: str | None = None


@dataclass(frozen=True)
class PairSensitivity:
    up: str
    down: str
    dlambda_dr: complex
    dsigma_dr: float
    domega_dr: float
    dzeta_dr: float


def flow_response(
    network: Network, L: np.ndarray, plan: RedispatchPlan
) -> tuple[np.ndarray, np.ndarray]:
    """Linearized load-flow response dz = L^+ (dP, 0) for a balanced plan.

    The angle part comes back in the gauge the pseudo-inverse delivers (zero
    component along the uniform-angle nullvector); dtheta is gauge-invariant
    anyway.
    """
    n, m = network.n, network.m
    if plan.dp.shape != (m,):
        raise ValidationError(f"plan has {plan.dp.size} entries, network has {m} generators")
    rhs = np.zeros(L.shape[0])
    rhs[:m] = plan.dp
    dz = np.linalg.pinv(L, rcond=PINV_RCOND) @ rhs
    resid = float(np.linalg.norm(L @ dz - rhs))
    if resid > FLOW_RESIDUAL_TOL * max(1.0, float(np.linalg.norm(rhs))):
        raise SingularityError(
            f"balanced injection not in the range of L (residual {resid:.3e}); "
            "equilibrium is near a singularity"
        )
    ddelta = dz[:n]
    dv = dz[n:]
    return ddelta, dv


def deltas_in_line_coords(
    network: Network,
    op: OperatingPoint,
    ddelta: np.ndarray,
    dv: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """dtheta_k = sum_r A_rk ddelta_r and dvln_i = dV_i / V_i."""
    A, _ = build_incidence(network)
    dtheta = A.T @ np.asarray(ddelta)
    dv = np.asarray(dv)
    if dv.size:
        v = bus_voltages(network, op)
        dvln = dv / v[network.m:]
    else:
        dvln = np.zeros(0)
    return dtheta, dvln


def unit_dlambda(
    network: Network,
    op: OperatingPoint,
    mode: modal.Mode,
    plan: RedispatchPlan,
    const_v: bool = False,
    report: sensitivity.SensitivityReport | None = None,
    L: np.ndarray | None = None,
) -> complex:
    """dlambda/dr for a unit application of the plan, via the full chain."""
    if L is None:
        L = hessian(network, op, const_v=const_v).L
    if report is None:
        report = sensitivity.sensitivity_coefficients(network, op, mode, const_v=const_v)
    ddelta, dv = flow_response(network, L, plan)
    dtheta, dvln = deltas_in_line_coords(network, op, ddelta, dv)
    return sensitivity.dlambda(report, dtheta, dvln if dvln.size else None)


def match_mode(
    reference: modal.Mode, candidates: list[modal.Mode] | tuple[modal.Mode, ...]
) -> modal.Mode:
    """Pick the oscillatory candidate whose eigenvector correlates best.

    Correlation is |conj(x_ref) . x| / (|x_ref| |x|); a gap below 0.1 between
    the two best candidates is treated as ambiguous.
    """
    pool = [md for md in candidates if md.omega > 0]
    if not pool:
        raise ModeMatchingError("no oscillatory modes in the re-solved spectrum")
    scores = []
    for md in pool:
        c = abs(np.vdot(reference.x, md.x)) / (
            np.linalg.norm(reference.x) * np.linalg.norm(md.x)
        )
        scores.append((float(c), md))
    scores.sort(key=lambda t: -t[0])
    if len(scores) > 1 and scores[0][0] - scores[1][0] < MATCH_AMBIGUITY_GAP:
        raise ModeMatchingError(
            f"ambiguous mode match: correlations {scores[0][0]:.3f} vs {scores[1][0]:.3f}"
        )
    return scores[0][1]


def predict_mode(
    network: Network,
    op: OperatingPoint,
    mode: modal.Mode,
    plan: RedispatchPlan,
    r: float,
    const_v: bool = False,
    _slope: complex | None = None,
) -> ModePrediction:
    """First-order prediction lambda + r dlambda against a full re-solve."""
    slope = _slope if _slope is not None else unit_dlambda(
        network, op, mode, plan, const_v=const_v
    )
    approx = mode.lam + r * slope
    try:
        exact = _exact_mode(network, op, mode, plan, r, const_v)
    except (ConvergenceError, OracleError) as exc:
        return ModePrediction(
            r=r, lambda_approx=approx, lambda_exact=None,
            error=None, oracle_failure=str(exc),
        )
    return ModePrediction(
        r=r, lambda_approx=approx, lambda_exact=exact,
        error=abs(exact - approx),
    )


def _exact_mode(network, op, mode, plan, r, const_v) -> complex:
    if r == 0.0:
        return mode.lam
    shifted = network.with_redispatch(r * plan.dp)
    st = build_study(shifted, const_v=const_v, initial=op)
    return match_mode(mode, st.modes).lam


def sweep(
    network: Network,
    op: OperatingPoint,
    mode: modal.Mode,
    plan: RedispatchPlan,
    r_values,
    const_v: bool = False,
) -> list[ModePrediction]:
    """One prediction per redispatch amount; oracle failures recorded per row."""
    slope = unit_dlambda(network, op, mode, plan, const_v=const_v)
    return [
        predict_mode(network, op, mode, plan, float(r), const_v=const_v, _slope=slope)
        for r in r_values
    ]


def generator_gains(
    network: Network,
    op: OperatingPoint,
    L: np.ndarray,
    report: sensitivity.SensitivityReport,
) -> np.ndarray:
    """dlambda/dr per generator for a unit shift from generator 1 to it.

    Column k of the right-hand side puts +1 on generator k+1 and -1 on
    generator 1; all m-1 columns are solved in one factorization of L with the
    bus-1 angle pinned to zero. L need not be definite. Entry 0 of the result
    (generator 1 against itself) is zero, and the plan moving one unit from
    ``down`` to ``up`` has dlambda = g[up] - g[down].
    """
    n, m = network.n, network.m
    size = L.shape[0]
    rhs = np.zeros((size, m - 1))
    rhs[0, :] = -1.0
    rhs[1:m, :] = np.eye(m - 1)
    Y = np.zeros((size, m - 1))
    try:
        Y[1:] = scipy.linalg.solve(L[1:, 1:], rhs[1:], check_finite=False)
    except np.linalg.LinAlgError:
        raise SingularityError(
            "linearized load flow is singular beyond the angle-reference nullspace"
        ) from None
    resid = np.linalg.norm(L @ Y - rhs, axis=0)
    bound = FLOW_RESIDUAL_TOL * np.maximum(1.0, np.linalg.norm(rhs, axis=0))
    if not np.all(resid <= bound):
        raise SingularityError(
            f"balanced injection not in the range of L (residual {np.max(resid):.3e}); "
            "equilibrium is near a singularity"
        )
    A, _ = build_incidence(network)
    num = report.theta_coeff @ (A.T @ Y[:n])
    if report.vln_coeff.size:
        v_load = bus_voltages(network, op)[m:]
        num = num + report.vln_coeff @ (Y[n:] / v_load[:, None])
    return np.concatenate([[0.0], -num / report.alpha])


def rank_pairs(
    network: Network,
    op: OperatingPoint,
    mode: modal.Mode,
    const_v: bool = False,
) -> list[PairSensitivity]:
    """Unit-r sensitivities for every ordered generator pair, best damping first.

    Each pair is the difference of two per-generator gains from
    ``generator_gains``, so the whole ranking costs one grounded solve.
    """
    if network.m < 2:
        raise ValidationError("pair ranking needs at least two generators")
    L = hessian(network, op, const_v=const_v).L
    report = sensitivity.sensitivity_coefficients(network, op, mode, const_v=const_v)
    gains = generator_gains(network, op, L, report)
    sigma, omega = mode.sigma, mode.omega
    mag3 = (sigma * sigma + omega * omega) ** 1.5
    labels = network.gen_labels()
    out = []
    for i, up in enumerate(labels):
        for j, down in enumerate(labels):
            if i == j:
                continue
            dl = complex(gains[i] - gains[j])
            dzeta = (-omega * omega * dl.real + sigma * omega * dl.imag) / mag3
            out.append(PairSensitivity(
                up=up, down=down, dlambda_dr=dl,
                dsigma_dr=dl.real, domega_dr=dl.imag, dzeta_dr=dzeta,
            ))
    out.sort(key=lambda p: (-p.dzeta_dr, p.up, p.down))
    return out
