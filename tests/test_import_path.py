"""scipy stays out of the runtime.

The quadrature oracle is a numpy Gauss-Legendre rule and Student-t quantiles
come from a literal table, or from mpmath above it, so no command loads
scipy. The tests keep scipy as an independent oracle.
"""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from scipy import stats

import thzaoi
from thzaoi import queue_sim as qs

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SRC_DIR = Path(thzaoi.__file__).resolve().parent.parent

# prints the exit code and the scipy modules loaded, after the whole run
CLI_IN_FRESH_INTERPRETER = """
import json, sys
from thzaoi import cli
rc = cli.main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"rc": rc, "scipy": loaded}))
"""


def run_fresh(tmp_path, command: str, cfg: dict) -> dict:
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(cfg))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", CLI_IN_FRESH_INTERPRETER,
         command, "--config", str(config), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_sweep_never_imports_scipy(tmp_path):
    cfg = json.loads((CONFIG_DIR / "reference_sweep.json").read_text())
    # two replications, so the aggregate's confidence intervals need t-quantiles
    cfg["sweep"].update({"values": [2], "replications": 2, "horizon_s": 10.0})
    assert run_fresh(tmp_path, "sweep", cfg) == {"rc": 0, "scipy": []}
    with open(tmp_path / "out" / "sweep_aggregate.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and all(r["replications"] == "2" for r in rows)
    assert any(float(r["avg_sim_hw"]) > 0.0 for r in rows)


def test_analytic_never_imports_scipy(tmp_path):
    cfg = json.loads((CONFIG_DIR / "analytic_grid.json").read_text())
    assert run_fresh(tmp_path, "analytic", cfg) == {"rc": 0, "scipy": []}
    with open(tmp_path / "out" / "analytic.csv") as fh:
        assert any(r["mode"] == "quadrature" for r in csv.DictReader(fh))


def test_validate_never_imports_scipy(tmp_path):
    # the whole suite, quadrature checks included, at shortened simulator horizons
    cfg = {"validate": {"severity_horizon": 20000.0, "e2e_horizon": 300.0,
                        "trend_horizon": 25.0, "trend_replications": 1}}
    assert run_fresh(tmp_path, "validate", cfg) == {"rc": 0, "scipy": []}
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"] and len(report["checks"]) == 11


@pytest.mark.parametrize("dof", range(1, 31))
def test_t_table_equals_scipy(dof):
    assert qs._T975[dof - 1] == float(stats.t.ppf(0.975, dof))
    assert qs.student_t_975(dof) == qs._T975[dof - 1]


@pytest.mark.parametrize("dof", [31, 1000, 10 ** 6])
def test_t_quantile_above_the_table_matches_scipy(dof):
    assert len(qs._T975) < dof
    assert qs.student_t_975(dof) == pytest.approx(float(stats.t.ppf(0.975, dof)), rel=1e-15)
