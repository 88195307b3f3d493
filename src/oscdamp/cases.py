"""Shipped fixtures, reproduction reports, and brute-force oracles.

Each fixture is a grid file plus an expected-value manifest whose entries
carry a provenance note and a status: ``verified`` entries must hold and fail
the report, ``contingent`` entries depend on reconstructed network data
(reactances or topology the source tables do not pin down) and downgrade to
warnings when they miss. A fixture "locks" when all its contingent entries
pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import dispatch, modal, sensitivity
from .errors import OracleError, OscdampError, UsageError, ValidationError
from .network import (
    Network, OperatingPoint, bus_energy, line_states, parse_grid_file, potential_energy,
)
from .study import Study, build_study

FIXTURE_CONST_V = {
    "three_bus_s7": False,
    "three_bus_s9": True,
    "six_bus": True,
    "ten_bus": False,
}
FIXTURE_NAMES = tuple(FIXTURE_CONST_V)
MAX_THETA = 0.5  # largest |theta| a random network may have at its equilibrium
ORACLE_STEP = 1e-5  # the oracle's central-difference step in r


@dataclass(frozen=True)
class Expectation:
    quantity: str
    value: complex
    tol: float
    status: str  # "verified" | "contingent"
    provenance: str


@dataclass(frozen=True)
class CaseFixture:
    name: str
    network: Network
    const_v: bool
    expected: tuple[Expectation, ...]


@dataclass(frozen=True)
class CheckLine:
    """One expectation and the value computed for it (NaN when none was)."""
    expectation: Expectation
    computed: complex

    @property
    def passed(self) -> bool:
        return abs(self.computed - self.expectation.value) <= self.expectation.tol


@dataclass(frozen=True)
class CaseReport:
    """A fixture's check lines; ``ok`` and ``locked`` are read off them."""
    name: str
    lines: tuple[CheckLine, ...]

    def _held(self, status: str) -> bool:
        return all(ln.passed for ln in self.lines if ln.expectation.status == status)

    @property
    def ok(self) -> bool:
        """Every verified expectation held."""
        return self._held("verified")

    @property
    def locked(self) -> bool:
        """Every contingent expectation held."""
        return self._held("contingent")


def _read_data(fname: str) -> str:
    return resources.files("oscdamp").joinpath("data", fname).read_text(encoding="utf-8")


def load_fixture(name: str) -> CaseFixture:
    if name not in FIXTURE_CONST_V:
        raise UsageError(f"unknown fixture {name!r}; known: {', '.join(FIXTURE_NAMES)}")
    network = parse_grid_file(_read_data(f"{name}.grid"))
    expected = []
    for lineno, raw in enumerate(_read_data(f"{name}.expected").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 4)
        if len(parts) < 5:
            raise UsageError(f"{name}.expected line {lineno}: need 5 fields")
        quantity, value, tol, status, provenance = parts
        if status not in ("verified", "contingent"):
            raise UsageError(f"{name}.expected line {lineno}: bad status {status!r}")
        expected.append(Expectation(
            quantity=quantity, value=complex(value), tol=float(tol),
            status=status, provenance=provenance,
        ))
    return CaseFixture(
        name=name, network=network,
        const_v=FIXTURE_CONST_V[name], expected=tuple(expected),
    )


# ---------------------------------------------------------------------------
# Per-fixture computed quantities
# ---------------------------------------------------------------------------

def _swings_as(mode: modal.Mode, side_a, side_b) -> bool:
    """Whether the mode's swing groups are ``side_a`` and ``side_b``, in any order."""
    return {frozenset(group) for group in mode.swing_groups} == {
        frozenset(side_a), frozenset(side_b)}


def _common_quantities(st: Study) -> dict[str, complex]:
    return {
        "pf_residual": st.op.residual_norm,
        "em_count": float(len(st.electromechanical())),
    }


def _quantities_three_bus_s7(st: Study) -> dict[str, complex]:
    out = _common_quantities(st)
    L = st.bundle.L
    dev = np.max(np.abs(L - st.bundle.assemble_from_parts()))
    out["factorization_reldev"] = dev / np.max(np.abs(L))
    # Line part of R through both coordinate systems; in line coordinates it
    # is -sum b e^nu cos(theta) = sum q.
    r_line_coords = float(np.sum(st.bundle.lp_nu_nu))
    r_line_bus = potential_energy(st.network, st.op) - bus_energy(st.network, st.op)
    out["energy_two_path_reldev"] = abs(r_line_bus - r_line_coords) / abs(r_line_bus)
    return out


def _quantities_three_bus_s9(st: Study) -> dict[str, complex]:
    out = _common_quantities(st)
    out["max_abs_real_part"] = max(abs(md.sigma) for md in st.modes)
    mode = st.electromechanical()[0]
    plan = dispatch.plan_between(st.network, "G1", "G3")  # along base flow
    report = sensitivity.sensitivity_coefficients(st.network, st.op, mode, st.bundle, st.dyn)
    dz = dispatch.flow_response(st, plan)
    dl = sensitivity.dlambda(report, dz)
    out["re_dlambda_along_flow"] = abs(dl.real)
    out["domega_along_flow_negative"] = float(dl.imag < 0)
    a_r = sensitivity.const_v_coefficients(mode, report).real
    out["dsigma_along_flow"] = abs(float(a_r @ (st.bundle.A.T @ dz[:st.network.n])))
    return out


def _quantities_six_bus(st: Study) -> dict[str, complex]:
    out = _common_quantities(st)
    em = st.electromechanical()
    if len(em) == 2:
        out["lam1"] = em[0].lam
        out["lam2"] = em[1].lam
        out["profile1_is_12v3"] = float(_swings_as(em[0], ("G1", "G2"), ("G3",)))
        out["profile2_is_1v2"] = float(_swings_as(em[1], ("G1",), ("G2",)))
        report = sensitivity.sensitivity_coefficients(
            st.network, st.op, em[1], st.bundle, st.dyn)
        gains = sensitivity.const_v_coefficients(em[1], report)
        out["ar1_negative"] = float(gains[0].real < 0)
        out["aI1_negative"] = float(gains[0].imag < 0)
        top_r = set(np.argsort(-np.abs(gains.real))[:2])
        top_i = set(np.argsort(-np.abs(gains.imag))[:2])
        out["lines12_dominant"] = float(top_r == {0, 1} and top_i == {0, 1})
        plan = dispatch.plan_between(st.network, "G1", "G3")
        out["table8_r009"] = em[1].lam + 0.009 * sensitivity.dlambda(
            report, dispatch.flow_response(st, plan))
        ranked = dispatch.rank_pairs(st.network, st.op, em[1])
        out["rank_g1g3_top"] = float(
            (ranked[0].up, ranked[0].down) == ("G1", "G3"))
    return out


def _quantities_ten_bus(st: Study) -> dict[str, complex]:
    out = _common_quantities(st)
    em = st.electromechanical()
    if em:
        out["em_real_parts_dev"] = max(abs(md.sigma + 1.0 / 26.0) for md in em)
    out["tie_flow_p7"] = st.bundle.lp_theta_nu[6]
    if len(em) == 3:
        out["omega_interarea"] = em[0].omega
        out["omega_local_low"] = em[1].omega
        out["omega_local_high"] = em[2].omega
        out["profile_interarea"] = float(_swings_as(em[0], ("G1", "G2"), ("G3", "G4")))
        plan = dispatch.plan_between(st.network, "G1", "G3")
        out["table3_r003_omega"] = (
            em[0].lam + 0.003 * dispatch.unit_dlambda(st, em[0], plan)).imag
    return out


_QUANTITY_FNS = {
    "three_bus_s7": _quantities_three_bus_s7,
    "three_bus_s9": _quantities_three_bus_s9,
    "six_bus": _quantities_six_bus,
    "ten_bus": _quantities_ten_bus,
}


def reproduce_case(name: str) -> CaseReport:
    """Compute every expected quantity for a fixture and compare with provenance."""
    fixture = load_fixture(name)
    st = build_study(fixture.network, const_v=fixture.const_v)
    computed = _QUANTITY_FNS[name](st)
    return CaseReport(name=name, lines=tuple(
        CheckLine(exp, complex(computed.get(exp.quantity, complex("nan"))))
        for exp in fixture.expected
    ))


# ---------------------------------------------------------------------------
# Brute-force sensitivity oracle
# ---------------------------------------------------------------------------

def finite_difference_sensitivity(
    network: Network,
    op: OperatingPoint,
    mode: modal.Mode,
    plan: dispatch.RedispatchPlan,
    const_v: bool | None = None,
) -> complex:
    """Central-difference slope of the matched eigenvalue along the plan.

    This is the ground truth every formula prediction is checked against:
    the power flow and the eigenproblem are re-solved at +-ORACLE_STEP by
    ``ModePath.exact``, in the voltage model ``op`` records, which must be the
    mode's; a ``const_v`` naming the other one is rejected.
    """
    if const_v not in (None, modal.angle_only(network, op, mode)):
        raise UsageError("const_v disagrees with the voltage model of the mode")
    path = dispatch.ModePath(network, op, mode, plan)
    if not np.any(plan.dp):
        raise ValidationError("finite differencing needs a nonzero redispatch direction")

    try:
        lam_p = path.exact(ORACLE_STEP)
        lam_m = path.exact(-ORACLE_STEP)
    except dispatch.ModeMatchingError:
        raise
    except OscdampError as exc:  # power flow divergence etc.
        raise OracleError(f"oracle unavailable at step {ORACLE_STEP:g}: {exc}") from exc
    return (lam_p - lam_m) / (2.0 * ORACLE_STEP)


# ---------------------------------------------------------------------------
# Seeded random networks for property tests
# ---------------------------------------------------------------------------

def random_network(seed: int) -> Study:
    """Connected random test network, as the full-model Study solved to
    accept it (the grid is its ``.network``), so no caller solves it again.

    A load tree with leaf generators plus up to two extra edges, small
    balanced injections, |theta| < ``MAX_THETA``; generators never neighbor
    each other. Deterministic in ``seed``. The name stays that of the draw:
    ``perfbench/tracer.py`` counts the draw's attempts under it.
    """
    rng = np.random.default_rng(seed)
    for attempt in range(64):
        n = int(rng.integers(3, 9))
        m = int(rng.integers(2, min(n, 4)))
        n_load = n - m
        scale = float(0.7 ** attempt)

        gens = []
        for _g in range(m):
            gens.append(dict(
                v=float(rng.uniform(0.95, 1.08)),
                pg=0.0,
                h=float(rng.uniform(2.0, 8.0)),
                d=float(rng.uniform(0.0, 2.0)),
            ))
        loads = []
        for _i in range(n_load):
            loads.append(dict(
                pl=float(rng.uniform(0.0, 0.6)) * scale,
                ql=float(rng.uniform(-0.4, 0.4)) * scale,
                d=float(rng.uniform(0.0, 3.0)) if rng.random() < 0.3 else 0.0,
            ))
        # Balance: spread total load over the generators with random weights.
        total_load = sum(ld["pl"] for ld in loads)
        weights = rng.uniform(0.2, 1.0, size=m)
        weights /= weights.sum()
        spread = rng.uniform(-0.2, 0.2, size=m) * scale
        spread -= spread.mean()
        for g in range(m):
            gens[g]["pg"] = total_load * float(weights[g]) + float(spread[g])

        edges: set[tuple[int, int]] = set()
        # Random tree over the load buses (1-based indices m+1..n).
        load_idx = list(range(m + 1, n + 1))
        for pos in range(1, n_load):
            parent = load_idx[int(rng.integers(0, pos))]
            edges.add((min(parent, load_idx[pos]), max(parent, load_idx[pos])))
        # Each generator hangs off a random load bus.
        for g in range(1, m + 1):
            target = load_idx[int(rng.integers(0, n_load))]
            edges.add((g, target))
        # Up to two extra edges avoiding generator-generator pairs.
        for _ in range(int(rng.integers(0, 3))):
            i = int(rng.integers(1, n + 1))
            j = int(rng.integers(1, n + 1))
            if i == j or (i <= m and j <= m):
                continue
            edges.add((min(i, j), max(i, j)))

        lines_txt = "\n".join(
            f"line e{k + 1} B{i} B{j} b={rng.uniform(1.0, 10.0):.6f}"
            for k, (i, j) in enumerate(sorted(edges))
        )
        bus_txt = []
        for g, gen in enumerate(gens):
            bus_txt.append(
                f"bus B{g + 1} G V={gen['v']:.6f} Pg={gen['pg']:.9f} "
                f"H={gen['h']:.6f} D={gen['d']:.6f}"
            )
        for i, ld in enumerate(loads):
            bus_txt.append(
                f"bus B{m + i + 1} L Pl={ld['pl']:.9f} Ql={ld['ql']:.9f} D={ld['d']:.6f}"
            )
        text = "\n".join(bus_txt) + "\n" + lines_txt + "\n"
        try:
            net = parse_grid_file(text)
        except ValidationError:
            continue
        try:
            st = build_study(net)
        except OscdampError:
            continue
        ls = line_states(net, st.op)
        if float(np.max(np.abs(ls.theta))) >= MAX_THETA:
            continue
        if np.any(st.op.v_load < 0.5):
            continue
        if not st.electromechanical():
            continue
        return st
    raise OracleError(f"could not draw a usable random network for seed {seed}")
