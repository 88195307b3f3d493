"""The four benchmark workloads: inputs from a seed, one op, and its check.

``setup(seed)`` builds every input and the references the checks need,
``op(item)`` is the timed call into the package, and ``check(item, result)``
returns ``None`` or the reason the output is wrong. Each check compares
against a path other than the one timed, and runs outside the timed region.
Ops call the package through module attributes so that the tracer's
wrappers see every call.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

import grids
from oscdamp import cases, dispatch, modal, network, study
from procenv import BENCH, ROOT

FD_REL_TOL = 1e-6          # formula vs oracle, as ``oscdamp verify`` applies it
PF_GRADIENT_TOL = 1e-10
BACKWARD_ERROR_TOL = 1e-9
EIG_REL_TOL = 1e-8
SWEEP_R = (0.003, 0.01, 0.03)
GOLDENS = BENCH / "goldens"
CHILD_TIMEOUT_S = 120
# Pool member k of a run with seed s is drawn from grid seed s * SEED_STRIDE + k.
SEED_STRIDE = 64


def rel_err(formula: complex, oracle: complex) -> float:
    return abs(formula - oracle) / max(1.0, abs(formula))


def first_em(st: study.Study) -> modal.Mode:
    return st.electromechanical()[0]


# ---------------------------------------------------------------------------
# rank-mesh
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RankInput:
    text: str
    m: int
    top: tuple[str, str]
    oracle: dict[tuple[str, str], complex]


class RankMesh:
    """``oscdamp rank`` on meshed full-voltage grids of 50 buses, 10 generators."""

    name = "rank-mesh"
    children_rss = False

    def __init__(self, n_load: int = 40, m: int = 10, pool: int = 4):
        self.n_load, self.m, self.pool = n_load, m, pool

    def setup(self, seed: int) -> list[RankInput]:
        items = []
        for k in range(self.pool):
            text, _ = grids.synthetic_grid(self.n_load, self.m, seed * SEED_STRIDE + k)
            net = network.parse_grid_file(text)
            st = study.build_study(net)
            mode = first_em(st)
            ranked = dispatch.rank_pairs(net, st.op, mode)
            top = (ranked[0].up, ranked[0].down)
            rng = np.random.default_rng([seed, k])
            other = ranked[int(rng.integers(1, len(ranked)))]
            oracle = {
                pair: cases.finite_difference_sensitivity(
                    net, st.op, mode, dispatch.plan_between(net, *pair))
                for pair in (top, (other.up, other.down))
            }
            items.append(RankInput(text, net.m, top, oracle))
        return items

    def op(self, item: RankInput, tracer=None):
        net = network.parse_grid_file(item.text)
        st = study.build_study(net)
        return dispatch.rank_pairs(net, st.op, first_em(st))

    def check(self, item: RankInput, ranked) -> str | None:
        if len(ranked) != item.m * (item.m - 1):
            return f"{len(ranked)} pairs for {item.m} generators"
        dz = [p.dzeta_dr for p in ranked]
        if any(a < b for a, b in zip(dz, dz[1:])):
            return "pairs are not sorted by dzeta_dr"
        if (ranked[0].up, ranked[0].down) != item.top:
            return f"top pair {ranked[0].up}:{ranked[0].down}, expected {item.top}"
        got = {(p.up, p.down): p.dlambda_dr for p in ranked}
        for pair, fd in item.oracle.items():
            err = rel_err(got[pair], fd)
            if not err <= FD_REL_TOL:
                return f"pair {pair}: formula vs oracle rel err {err:.3e}"
        return None


# ---------------------------------------------------------------------------
# modes-large
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModesInput:
    text: str
    L: np.ndarray
    m_diag: np.ndarray
    d_diag: np.ndarray
    L_norm: float
    eigs: np.ndarray   # reference eigenvalues with positive imaginary part


class ModesLarge:
    """``oscdamp modes`` on full-voltage grids of 210 buses, 10 generators."""

    name = "modes-large"
    children_rss = False

    def __init__(self, n_load: int = 200, m: int = 10, pool: int = 3):
        self.n_load, self.m, self.pool = n_load, m, pool

    def setup(self, seed: int) -> list[ModesInput]:
        items = []
        for k in range(self.pool):
            text, _ = grids.synthetic_grid(self.n_load, self.m, seed * SEED_STRIDE + k)
            net = network.parse_grid_file(text)
            op = network.solve_power_flow(net)
            L = network.hessian_matrix(net, op)
            dyn = modal.build_dynamic_matrices(net)
            eigs = np.linalg.eigvals(modal.reduced_jacobian(dyn.m, dyn.d, L))
            items.append(ModesInput(text, L, dyn.m, dyn.d, float(np.linalg.norm(L, 2)),
                                    eigs[eigs.imag > 0]))
        return items

    def op(self, item: ModesInput, tracer=None):
        return study.build_study(network.parse_grid_file(item.text))

    def check(self, item: ModesInput, st) -> str | None:
        real, reactive = network.residual_vectors(st.network, st.op)
        grad = float(np.max(np.abs(np.concatenate([real, reactive]))))
        if not grad <= PF_GRADIENT_TOL:
            return f"power-flow gradient {grad:.3e}"
        if not st.modes:
            return "no modes"
        X = np.column_stack([md.x for md in st.modes])
        lam = np.array([md.lam for md in st.modes])
        R = item.L @ X + (lam ** 2 * item.m_diag[:, None] + lam * item.d_diag[:, None]) * X
        scale = (np.abs(lam) ** 2 * np.max(item.m_diag) + np.abs(lam) * np.max(item.d_diag)
                 + item.L_norm) * np.linalg.norm(X, axis=0)
        backward = float(np.max(np.linalg.norm(R, axis=0) / scale))
        if not backward <= BACKWARD_ERROR_TOL:
            return f"QEP backward error {backward:.3e}"
        em = st.electromechanical()
        if not em:
            return "no electromechanical mode"
        for md in em:
            gap = float(np.min(np.abs(item.eigs - md.lam))) if item.eigs.size else np.inf
            if not gap <= EIG_REL_TOL * abs(md.lam):
                return f"mode {md.lam:.6g} is {gap:.3e} from the reduced-Jacobian reference"
        return None


# ---------------------------------------------------------------------------
# sweep-oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepInput:
    net: network.Network
    op: network.OperatingPoint
    mode: modal.Mode
    plan: dispatch.RedispatchPlan


class SweepOracle:
    """``dispatch.sweep`` plus one oracle slope, angle-only grids of 75 buses, 8 generators."""

    name = "sweep-oracle"
    children_rss = False

    def __init__(self, n_load: int = 67, m: int = 8, pool: int = 6):
        self.n_load, self.m, self.pool = n_load, m, pool

    def setup(self, seed: int) -> list[SweepInput]:
        items = []
        for k in range(self.pool):
            text, _ = grids.synthetic_grid(
                self.n_load, self.m, seed * SEED_STRIDE + k, const_v=True)
            net = network.parse_grid_file(text)
            st = study.build_study(net, const_v=True)
            rng = np.random.default_rng([seed, k])
            up, down = (str(g) for g in rng.choice(net.gen_labels(), size=2, replace=False))
            items.append(SweepInput(net, st.op, first_em(st),
                                    dispatch.plan_between(net, up, down)))
        return items

    def op(self, item: SweepInput, tracer=None):
        rows = dispatch.sweep(item.net, item.op, item.mode, item.plan, SWEEP_R, const_v=True)
        fd = cases.finite_difference_sensitivity(
            item.net, item.op, item.mode, item.plan, const_v=True)
        return rows, fd

    def check(self, item: SweepInput, result) -> str | None:
        rows, fd = result
        if len(rows) != len(SWEEP_R):
            return f"{len(rows)} sweep rows"
        for row in rows:
            if row.lambda_exact is None or not np.isfinite(row.error):
                return f"no exact value at r={row.r}: {row.oracle_failure}"
        slope = (rows[0].lambda_approx - item.mode.lam) / rows[0].r
        err = rel_err(slope, fd)
        if not err <= FD_REL_TOL:
            return f"formula vs oracle rel err {err:.3e}"
        return None


# ---------------------------------------------------------------------------
# fixtures-cli
# ---------------------------------------------------------------------------

FIXTURE_FLAGS = {
    "three_bus_s7": (),
    "three_bus_s9": ("--const-v",),
    "six_bus": ("--const-v",),
    "ten_bus": (),
}


def cli_commands() -> dict[str, tuple[str, ...]]:
    """Every CLI command on every shipped fixture, keyed by golden id."""
    out = {}
    for name, flags in FIXTURE_FLAGS.items():
        grid = ("src/oscdamp/data/" + name + ".grid",) + flags
        out[f"{name}.pf"] = ("pf",) + grid
        out[f"{name}.modes"] = ("modes",) + grid
        out[f"{name}.sens"] = ("sens",) + grid + ("--mode", "1")
        out[f"{name}.sweep"] = ("sweep",) + grid + (
            "--mode", "1", "--pair", "G1:G3", "--r", "0.003,0.01")
        out[f"{name}.rank"] = ("rank",) + grid + ("--mode", "1")
    out["verify"] = ("verify",)
    return out


@dataclass(frozen=True)
class CliInput:
    key: str
    argv: tuple[str, ...]
    exit_code: int
    stdout: bytes


def run_cli(argv: tuple[str, ...], traced: bool) -> subprocess.CompletedProcess:
    """One fresh CLI process; the traced form runs it under the span tracer."""
    head = [sys.executable, str(BENCH / "cli_child.py")] if traced \
        else [sys.executable, "-m", "oscdamp.cli"]
    return subprocess.run(head + list(argv), capture_output=True, cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S)


def compare_golden(item: CliInput, exit_code: int, stdout: bytes) -> str | None:
    if exit_code != item.exit_code:
        return f"{item.key}: exit {exit_code}, expected {item.exit_code}"
    if stdout != item.stdout:
        return f"{item.key}: stdout differs from the golden"
    return None


class FixturesCli:
    """Every CLI command on the four shipped fixtures, one fresh process each."""

    name = "fixtures-cli"
    children_rss = True

    def setup(self, seed: int) -> list[CliInput]:
        manifest = json.loads((GOLDENS / "manifest.json").read_text(encoding="utf-8"))
        items = []
        for key, argv in cli_commands().items():
            entry = manifest[key]
            if tuple(entry["argv"]) != argv:
                raise ValueError(f"golden {key} was made for {entry['argv']}")
            items.append(CliInput(key, argv, entry["exit"],
                                  (GOLDENS / f"{key}.out").read_bytes()))
        order = np.random.default_rng(seed).permutation(len(items))
        return [items[i] for i in order]

    def op(self, item: CliInput, tracer=None):
        proc = run_cli(item.argv, traced=tracer is not None)
        if tracer is not None:
            tracer.absorb(json.loads(proc.stderr.splitlines()[-1]), tracer.op)
        return proc.returncode, proc.stdout

    def check(self, item: CliInput, result) -> str | None:
        return compare_golden(item, *result)


WORKLOADS = {w.name: w for w in (FixturesCli, RankMesh, ModesLarge, SweepOracle)}
