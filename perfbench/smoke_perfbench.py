"""Smoke runs of every workload at tiny size, through the same driver code.

Not collected by a plain ``pytest`` (about a minute); run it explicitly:

    PYTHONPATH=src python3 -m pytest perfbench/smoke_perfbench.py
"""

import os
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    spec = run.load_spec(ROOT)
    record = run.run_workload(workload, 3, 0.0, True, tmp_path, tiny=True)
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = run.report({**record, "trace": trace}, spec)
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert list(result["metrics"]) == list(spec[section])
        for name, metric in result["metrics"].items():
            assert metric["unit"] == spec[section][name]
            assert isinstance(metric["value"], float)
    printed = capsys.readouterr().out
    for name in list(spec["end_to_end"]) + ["ops_failed_frac"]:
        assert f"  {name} " in printed
    # every run's outputs are removed once checked; the spans of the traced run stay
    assert set(os.listdir(tmp_path / run.WORK_DIR / "work" / workload)) == {
        "spans.json", f"{workload}_seed3.json"}
