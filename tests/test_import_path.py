"""scipy, mpmath, numpy.polynomial and numpy.ma stay out of the commands.

The quadrature oracle is a Gauss-Legendre rule held as literals, the stage-CDF
oracle of ``validate`` runs in the standard library's ``decimal``, and
Student-t quantiles come from a literal table, so no command loads scipy,
mpmath or numpy.polynomial; mpmath loads only for t quantiles above 30
degrees of freedom, which no shipped config reaches.  The tests keep scipy
and mpmath as independent oracles.
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

# prints the exit code and the modules loaded of each package that no command
# needs, after the whole run
CLI_IN_FRESH_INTERPRETER = """
import json, sys
from thzaoi import cli
rc = cli.main(sys.argv[1:])
print(json.dumps({"rc": rc, **{p: sorted(m for m in sys.modules if m == p or m.startswith(p + "."))
                              for p in ("scipy", "mpmath", "numpy.polynomial")}}))
"""
NOTHING_UNNEEDED = {"rc": 0, "scipy": [], "mpmath": [], "numpy.polynomial": []}


def fresh_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    return env


def run_fresh(tmp_path, command: str, cfg: dict) -> dict:
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(cfg))
    done = subprocess.run(
        [sys.executable, "-c", CLI_IN_FRESH_INTERPRETER,
         command, "--config", str(config), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=fresh_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_sweep_never_imports_scipy(tmp_path):
    cfg = json.loads((CONFIG_DIR / "reference_sweep.json").read_text())
    # two replications, so the aggregate's confidence intervals need t-quantiles
    cfg["sweep"].update({"values": [2], "replications": 2, "horizon_s": 10.0})
    assert run_fresh(tmp_path, "sweep", cfg) == NOTHING_UNNEEDED
    with open(tmp_path / "out" / "sweep_aggregate.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and all(r["replications"] == "2" for r in rows)
    assert any(float(r["avg_sim_hw"]) > 0.0 for r in rows)


def test_analytic_never_imports_scipy(tmp_path):
    cfg = json.loads((CONFIG_DIR / "analytic_grid.json").read_text())
    assert run_fresh(tmp_path, "analytic", cfg) == NOTHING_UNNEEDED
    with open(tmp_path / "out" / "analytic.csv") as fh:
        assert any(r["mode"] == "quadrature" for r in csv.DictReader(fh))


def test_validate_never_imports_scipy(tmp_path):
    # the whole suite, quadrature and stage-CDF oracle checks included
    cfg = {"validate": {}}
    assert run_fresh(tmp_path, "validate", cfg) == NOTHING_UNNEEDED
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"] and len(report["checks"]) == 10


def test_quadrature_never_imports_numpy_ma():
    # np.unique loads numpy.ma on first use (about 13 ms); the grid's 1.0 and
    # 3.0 repeat the edges 1/mu and 3/mu, so repeats are dropped here
    code = ("import sys\nfrom thzaoi import aoi_analytic as an\n"
            "an._quad_pdf(an.StageLaw(2.0, 1.0), [0.0, 1.0, 3.0])\n"
            "print('numpy.ma' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=fresh_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


@pytest.mark.parametrize("dof", range(1, 31))
def test_t_table_equals_scipy(dof):
    assert qs._T975[dof - 1] == float(stats.t.ppf(0.975, dof))
    assert qs.student_t_975(dof) == qs._T975[dof - 1]


@pytest.mark.parametrize("dof", [31, 1000, 10 ** 6])
def test_t_quantile_above_the_table_matches_scipy(dof):
    assert len(qs._T975) < dof
    assert qs.student_t_975(dof) == pytest.approx(float(stats.t.ppf(0.975, dof)), rel=1e-15)
