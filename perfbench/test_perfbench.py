"""Self-tests of the benchmark itself (run: python3 -m pytest -q perfbench)."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from decimal import Decimal

import pytest

import client
import grids
import procenv
import tracer as tr
from oscdamp import cases, dispatch, laplacian, network
from workloads import FixturesCli, RankMesh, SweepOracle, compare_golden

BENCHMARK = json.loads((procenv.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def small_rank() -> RankMesh:
    return RankMesh(n_load=8, m=4, pool=1)


def small_sweep() -> SweepOracle:
    return SweepOracle(n_load=8, m=3, pool=1)


def traced_op(wl, item, op: int = 0) -> dict[str, float]:
    with tr.Tracer() as tracer:
        tracer.op = op
        wl.op(item)
    return tr.per_op(tracer.spans)[op]


def test_generator_is_deterministic_and_balanced():
    text, attempts = grids.synthetic_grid(30, 5, seed=7)
    assert (text, attempts) == grids.synthetic_grid(30, 5, seed=7)
    assert text != grids.synthetic_grid(30, 5, seed=8)[0]
    net = network.parse_grid_file(text)
    assert (net.n, net.m) == (35, 5)
    printed = Decimal(0)
    for key, sign in (("Pg", 1), ("Pl", -1)):
        printed += sign * sum(Decimal(v) for v in re.findall(rf"{key}=(\S+)", text))
    assert printed == 0
    gens = set(range(1, net.m + 1))
    assert all(not {ln.from_bus, ln.to_bus} <= gens for ln in net.lines)


def test_tail_rule_on_known_samples():
    assert client.tail(list(range(100, 0, -1))) == (90, 90.0)
    value, pct = client.tail([float(x) for x in range(1, 12)])
    assert value == 1.0 and pct == pytest.approx(100 / 11)
    with pytest.raises(ValueError):
        client.tail([1.0] * 10)


def test_tracer_sees_direct_import_bindings_and_restores_them():
    wl = small_rank()
    item = wl.setup(0)[0]
    original = laplacian.hessian
    d = traced_op(wl, item)
    assert d["dispatch.flow_response.calls"] == item.m * (item.m - 1)
    assert d["modal.qz.calls"] >= 1
    assert d["laplacian.hessian.calls"] >= 2      # dispatch.hessian is a direct import
    assert dispatch.hessian is original and laplacian.hessian is original


def test_traced_oracle_records_two_studies():
    item = small_sweep().setup(0)[0]
    with tr.Tracer() as tracer:
        tracer.op = 0
        cases.finite_difference_sensitivity(item.net, item.op, item.mode, item.plan,
                                            const_v=True)
    assert tr.per_op(tracer.spans)[0]["study.build_study.calls"] == 2


@pytest.mark.parametrize("make", [small_rank, small_sweep])
def test_exact_repeat_counts_repeat(make):
    first, second = (traced_op(w, w.setup(3)[0]) for w in (make(), make()))
    for key in tr.EXACT_REPEAT:
        assert first.get(key, 0) == second.get(key, 0), key


def test_golden_comparison_catches_a_one_digit_change():
    item = next(i for i in FixturesCli().setup(0) if i.key == "six_bus.modes")
    assert compare_golden(item, item.exit_code, item.stdout) is None
    changed = item.stdout.replace(b"10.1379", b"10.1378", 1)
    assert changed != item.stdout
    assert compare_golden(item, item.exit_code, changed) is not None
    assert compare_golden(item, 1, item.stdout) is not None


def test_goldens_match_the_cli():
    wl = FixturesCli()
    item = next(i for i in wl.setup(0) if i.key == "ten_bus.rank")
    assert wl.check(item, wl.op(item)) is None


def test_metric_names_match_benchmark_json(tmp_path):
    wl = small_rank()
    items = wl.setup(0)
    e2e, _ = client.timed_run(wl, items, 0.0)
    assert set(e2e) | {"setup_s"} == {m["name"] for m in BENCHMARK["end_to_end"]}
    layers, report = client.traced_run(wl, items, 0.0, tmp_path / "spans.json")
    assert set(layers) == {m["name"] for m in BENCHMARK["per_layer"]}
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert all(v["unit"] == units[k] for k, v in layers.items())
    assert report["ops_failed"] == 0
    spans = json.loads((tmp_path / "spans.json").read_text(encoding="utf-8"))
    assert spans["spans"] and len(spans["fields"]) == len(spans["spans"][0])


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(procenv.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(procenv.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rank-mesh", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
