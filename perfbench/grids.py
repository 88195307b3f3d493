"""Deterministic synthetic grids in the oscdamp grid-file format.

``synthetic_grid(n_load, m, seed)`` draws a random load tree, adds meshing
edges among the loads, hangs each generator off its own load bus (so no two
generators are ever joined), and gives the loads real and reactive demand,
with frequency damping on a fraction of them. All real powers are drawn in
whole micro-units and printed exactly, so the printed injections balance to
the last digit and the parser's balance check passes.

A draw is kept only if the power flow converges with every line angle below
``MAX_THETA`` and every load voltage above ``MIN_V``, and the study has at
least one electromechanical mode, the acceptance rule of
``oscdamp.cases.random_network``. A rejected draw is retried with the loads
scaled down; some large meshes need a retry or two.
"""

from __future__ import annotations

import numpy as np

from oscdamp import errors, network, study

MAX_THETA = 0.5
MIN_V = 0.5
MAX_ATTEMPTS = 24
LOAD_SCALE_STEP = 0.75
DAMPED_LOAD_FRACTION = 0.3
MICRO = 1_000_000


def _micro(value: float) -> int:
    return int(round(value * MICRO))


def _fmt_micro(units: int) -> str:
    sign = "-" if units < 0 else ""
    whole, frac = divmod(abs(units), MICRO)
    return f"{sign}{whole}.{frac:06d}"


def grid_text(n_load: int, m: int, rng: np.random.Generator, scale: float) -> str:
    """One unchecked draw: ``m`` leaf generators on a meshed ``n_load``-bus load tree."""
    if m < 1 or n_load < 2 or m > n_load:
        raise ValueError("need 1 <= m <= n_load and n_load >= 2")
    # Mean demand per load falls with the load count so that each generator
    # exports about one per-unit at every size.
    level = min(0.3, 1.5 * m / n_load) * scale
    # A fixed count of damped loads and of meshing edges keeps the pencil
    # structure, and so the work per study, alike across seeds of one size.
    damped = set(rng.choice(n_load, size=round(DAMPED_LOAD_FRACTION * n_load),
                            replace=False).tolist())
    loads = []
    for k in range(n_load):
        loads.append((
            _micro(rng.uniform(0.0, 2.0) * level),
            _micro(rng.uniform(-0.2, 0.5) * level),
            float(rng.uniform(0.5, 3.0)) if k in damped else 0.0,
        ))
    total = sum(pl for pl, _, _ in loads)
    weights = rng.uniform(0.5, 1.5, size=m)
    pg = [int(total * w) for w in weights / weights.sum()]
    pg[-1] = total - sum(pg[:-1])

    load_ids = list(range(m + 1, m + n_load + 1))
    edges: dict[tuple[int, int], float] = {}
    for pos in range(1, n_load):
        parent = load_ids[int(rng.integers(0, pos))]
        edges[(parent, load_ids[pos])] = float(rng.uniform(5.0, 20.0))
    extra = 0
    while extra < n_load // 4:
        i, j = (int(k) for k in rng.choice(load_ids, size=2, replace=False))
        if (i, j) not in edges and (j, i) not in edges:
            edges[(i, j)] = float(rng.uniform(5.0, 20.0))
            extra += 1
    hosts = rng.choice(load_ids, size=m, replace=False)
    for g in range(m):
        edges[(g + 1, int(hosts[g]))] = float(rng.uniform(10.0, 30.0))

    out = []
    for g in range(m):
        out.append(
            f"bus B{g + 1} G V={rng.uniform(0.98, 1.06):.6f} Pg={_fmt_micro(pg[g])} "
            f"H={rng.uniform(2.0, 8.0):.6f} D={rng.uniform(0.5, 2.0):.6f}"
        )
    for k, (pl, ql, d) in enumerate(loads):
        out.append(
            f"bus B{m + k + 1} L Pl={_fmt_micro(pl)} Ql={_fmt_micro(ql)} D={d:.6f}"
        )
    for k, ((i, j), b) in enumerate(edges.items()):
        out.append(f"line e{k + 1} B{i} B{j} b={b:.6f}")
    return "\n".join(out) + "\n"


def accept(text: str, const_v: bool) -> bool:
    """The ``random_network`` acceptance rule applied to one draw."""
    try:
        net = network.parse_grid_file(text)
        st = study.build_study(net, const_v=const_v)
    except errors.OscdampError:
        return False
    ls = network.line_states(net, st.op)
    if float(np.max(np.abs(ls.theta))) >= MAX_THETA:
        return False
    if st.op.v_load.size and float(np.min(st.op.v_load)) <= MIN_V:
        return False
    return bool(st.electromechanical())


def synthetic_grid(
    n_load: int, m: int, seed: int, const_v: bool = False
) -> tuple[str, int]:
    """Grid text deterministic in ``(n_load, m, seed)``, and the draws it took."""
    rng = np.random.default_rng([seed, n_load, m])
    for attempt in range(MAX_ATTEMPTS):
        text = grid_text(n_load, m, rng, LOAD_SCALE_STEP ** attempt)
        if accept(text, const_v):
            return text, attempt + 1
    raise errors.OracleError(
        f"no usable synthetic grid for n_load={n_load} m={m} seed={seed}"
    )
