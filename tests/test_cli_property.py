"""Property test: any small grid gives a mapped exit code, never a traceback or NaN.

Grids are drawn with zero damping on some buses and meshing edges, plus at
most one stress or fault: a line with b = 1e-6 or b = 1e6, a negative
damping, a power imbalance, a generator-generator tie, or a float edge (an
inertia of 1e-300 behind lines of b = 1e10, or a load damping of 1e-300).
Each grid is run through ``oscdamp pf``, ``oscdamp modes`` and ``oscdamp
rank``. ``pf`` and ``modes`` both run the power flow and then its certificate
before anything else, so a grid ``pf`` refuses is refused by ``modes`` in the
same words. A run that exits 0 prints nothing on stderr.
"""

from __future__ import annotations

import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import assert_refused, run_cli

DAMPING = st.sampled_from([0.0, 0.5, 2.0])
STRESSES = ["none", "none", "none", "weak_line", "stiff_line",
            "negative_d", "imbalance", "gen_tie", "float_edge"]


@st.composite
def grids(draw) -> str:
    """A small connected grid with at most one stress or deliberate fault."""
    fault = draw(st.sampled_from(STRESSES))
    m = draw(st.integers(1 if fault != "gen_tie" else 2, 3))
    n_load = draw(st.integers(1, 3))
    n = m + n_load
    damping = [draw(DAMPING) for _ in range(n)]
    if fault == "negative_d":
        damping[draw(st.integers(0, n - 1))] = -0.5
    loads = [(draw(st.floats(0.0, 0.5)), draw(st.floats(-0.3, 0.3))) for _ in range(n_load)]
    weights = [draw(st.floats(0.1, 1.0)) for _ in range(m)]
    total = sum(pl for pl, _ in loads)
    lines = []
    for k in range(1, n_load):  # load tree over buses m+1..n
        lines.append((m + 1 + draw(st.integers(0, k - 1)), m + 1 + k))
    for g in range(1, m + 1):   # every generator hangs off a load bus
        lines.append((g, draw(st.integers(m + 1, n))))
    for _ in range(draw(st.integers(0, 2))):  # meshing edges
        lines.append((draw(st.integers(1, n)), draw(st.integers(m + 1, n))))
    if fault == "gen_tie":
        lines.append((1, 2))
    inertia = [draw(st.floats(1.0, 8.0)) for _ in range(m)]
    b = [draw(st.floats(0.05, 50.0)) for _ in lines]
    if fault in ("weak_line", "stiff_line"):
        b[draw(st.integers(0, len(lines) - 1))] = 1e-6 if fault == "weak_line" else 1e6
    if fault == "float_edge":
        if draw(st.booleans()):
            inertia[0], b = 1e-300, [1e10] * len(lines)
        else:
            damping[m + draw(st.integers(0, n_load - 1))] = 1e-300
    out = []
    for g, (w, h) in enumerate(zip(weights, inertia), start=1):
        pg = total * w / sum(weights) + (0.1 if fault == "imbalance" and g == 1 else 0.0)
        out.append(f"bus B{g} G V={draw(st.floats(0.9, 1.1))!r} Pg={pg!r} "
                   f"H={h!r} D={damping[g - 1]!r}")
    for i, (pl, ql) in enumerate(loads, start=m + 1):
        out.append(f"bus B{i} L Pl={pl!r} Ql={ql!r} D={damping[i - 1]!r}")
    for k, ((i, j), bk) in enumerate(zip(lines, b), start=1):
        if i != j:
            out.append(f"line e{k} B{i} B{j} b={bk!r}")
    return "\n".join(out) + "\n"


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=grids(), const_v=st.booleans())
def test_cli_maps_every_grid_to_an_exit_code(text, const_v):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "case.grid")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        flags = ["--const-v"] if const_v else []
        results = {}
        for argv in (["pf", path, *flags], ["modes", path, *flags],
                     ["rank", path, "--mode", "1", *flags]):
            results[argv[0]] = result = code, out, err = run_cli(argv)
            assert code in (0, 1, 2), (argv, code, err)
            if code:
                assert_refused(result, code)
            else:
                assert err == "", (argv, err)
                assert "nan" not in out.lower(), out
        if results["pf"][0]:
            assert results["modes"] == results["pf"]
