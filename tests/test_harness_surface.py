"""The package names that ``perfbench/worker.py``'s population study calls.

The ``sim_population`` workload reaches the simulator through its one-sample
names (``ComputeFeed``, ``Stage``, ``PaoiSamples.series``, ``empirical_cdf``,
``ks_distance``, ``excursion_severity``), which the sweep does not use.  The
workload is not one the benchmark runs, and the tracer skips a name it cannot
find, so this runs the worker's own ``population`` on a small population to
fail when one of them goes.
"""

import importlib.util
import json
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_worker():
    spec = importlib.util.spec_from_file_location("perfbench_worker",
                                                  ROOT / "perfbench" / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker


def test_population_study_runs_on_the_package(tmp_path):
    cfg = json.loads((ROOT / "configs" / "reference_sweep.json").read_text())
    cfg["scenario"]["num_users"] = 3
    cfg["sweep"]["horizon_s"] = 20.0
    summary = load_worker().population(cfg, str(tmp_path))
    assert sorted(summary["disciplines"]) == ["fcfs", "lcfs"]
    for disc in summary["disciplines"].values():
        assert math.isfinite(disc["e2e_mean"]) and math.isfinite(disc["ks_max"])
        assert (tmp_path / disc["csv"]).is_file()
