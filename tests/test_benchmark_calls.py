"""The benchmark's calls into the package, on inputs small enough for Tier-1.

``perfbench/`` reaches the package by name: the tracer wraps its ``TRACED``
functions and ``modal.scipy``, and each workload's ``setup``, ``op`` and
``check`` call the library. A change that renames or reshapes one of these
breaks the benchmark, so it fails here first.
"""

from __future__ import annotations

import pkgutil

import scipy

from oscdamp import modal

from conftest import perfbench_module


def test_every_traced_name_is_a_function_of_the_package():
    tracer = perfbench_module("tracer")
    for short, names in tracer.TRACED.items():
        for name in names:
            assert callable(pkgutil.resolve_name(f"oscdamp.{short}.{name}")), (short, name)
    assert modal.scipy is scipy


def test_small_benchmark_workloads_run_and_pass_their_checks():
    workloads = perfbench_module("workloads")
    for workload in (workloads.RankMesh(n_load=8, m=4, pool=1),
                     workloads.SweepOracle(n_load=8, m=3, pool=1),
                     workloads.ModesLarge(n_load=12, m=3, pool=1)):
        for item in workload.setup(0):
            assert workload.check(item, workload.op(item)) is None, workload.name
