"""Tiny-size runs of every workload, untraced and traced.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layertrace  # noqa: E402
import run  # noqa: E402

with open(run.SPEC_PATH) as handle:
    SPEC = json.load(handle)

def current_targets():
    """The object each traced attribute holds right now."""
    return [getattr(*layertrace.resolve(module, attribute))
            for module, attribute, *__ in layertrace.TARGETS]


TINY = {
    "incident-cold": {"block": 14, "min_units": 14, "lookups": 2},
    "fleet-steady": {"size": 4, "min_units": 3, "queries": 2,
                     "setup_repeats": 1},
    "wave-churn": {"size": 4, "min_units": 3, "queries": 2,
                   "setup_repeats": 1},
}


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(TINY)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result = run.measure(workload, seed=3, seconds=0, trace=False,
                         sizes=TINY[workload])
    assert result["correct"]
    assert result["attempted"] >= 1
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == {
        spec["name"]: spec["unit"] for spec in SPEC["end_to_end"]}
    # The known detection gaps keep even failed_share above zero.
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_run_emits_every_layer_metric_and_unpatches(workload):
    before = current_targets()
    result = run.measure(workload, seed=3, seconds=0, trace=True,
                         sizes=TINY[workload])
    after = current_targets()
    assert result["correct"]     # includes traced == untraced verdicts
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == {
        spec["name"]: spec["unit"] for spec in SPEC["per_layer"]}
    assert all(a is b for a, b in zip(before, after))
    assert not any(hasattr(target, "perfbench_span") for target in after)


def test_uninstall_restores_after_a_failing_pass():
    before = current_targets()
    tracer = layertrace.LayerTracer()
    tracer.install()
    try:
        assert all(hasattr(target, "perfbench_span")
                   for target in current_targets())
        with pytest.raises(ZeroDivisionError):
            with tracer.recording():
                1 / 0
    finally:
        tracer.uninstall()
    assert all(a is b for a, b in
               zip(before, current_targets()))
