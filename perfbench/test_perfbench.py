"""Fast tests of the benchmark's own parts: the oracle, the tracer, the gates.

The smoke runs of every workload at tiny size take about a minute, so they
live in smoke_perfbench.py, which a plain ``pytest`` does not collect:

    PYTHONPATH=src python3 -m pytest perfbench/smoke_perfbench.py
"""

import json
import types

import mpmath as mp
import pytest

import checks
import oracle
import run
import tracer as tracing
from thzaoi import aoi_analytic as an
from thzaoi import cli
from thzaoi import queue_sim as qs
from thzaoi import scenario as sc
from thzaoi import thz_link as link
from thzaoi import validation as val

MODULES = (an, qs, sc, link, val)
# r/mu = 2 and the THz regime r/mu = 4e3
LAWS = [(2.0, 1.0), (2e4, 5.0)]


class TestOracle:
    @pytest.mark.parametrize("disc", ["fcfs", "lcfs"])
    @pytest.mark.parametrize("r,mu", LAWS)
    def test_matches_cdf_reference(self, disc, r, mu):
        reference = an.cdf_reference(an.StageLaw(r, mu, an.Discipline(disc)))
        for a in (1e-4, 0.01, 0.3, 1.0, 3.0, 10.0):
            assert abs(float(oracle.stage_cdf(r, mu, a, disc)) - float(reference(a))) < 1e-12

    @pytest.mark.parametrize("disc", ["fcfs", "lcfs"])
    @pytest.mark.parametrize("r,mu", LAWS)
    def test_cdf_is_the_integral_of_the_density(self, disc, r, mu):
        with mp.workdps(oracle.DIGITS):
            knots = [0, 1 / (r + mu), 10 / (r + mu), 1 / mu, 1.0]
            mass = mp.quad(lambda t: oracle.stage_pdf(r, mu, t, disc), knots)
            assert abs(mass - oracle.stage_cdf(r, mu, 1.0, disc)) < mp.mpf(10) ** -30

    def test_reproduces_the_worked_severity_point(self):
        # the validation suite's worked point: FCFS r=2, mu=1, one stage, a = z = 1
        j = oracle.severity([2.0], 1.0, "fcfs", 1.0, 1.0)
        assert abs(float(j["as-written"]) + 3.048824854331173) < 1e-12
        assert abs(float(j["survival"]) - 3.048824854331173) < 1e-12
        assert oracle.flag(j["survival"]) == "invalid"

    def test_relative_error(self):
        assert oracle.relative_error(1.0 + 1e-9, mp.mpf(1)) == pytest.approx(1e-9, rel=1e-6)
        assert oracle.relative_error(float("nan"), mp.nan) == 0.0


def _snapshot():
    return [dict(vars(m)) for m in MODULES]


class TestTracer:
    def test_instrument_wraps_and_restores_every_attribute(self):
        before = _snapshot()
        with tracing.Tracer() as t:
            tracing.instrument(t)
            assert an.cdf_paoi is not before[0]["cdf_paoi"]
            assert qs.run is not before[1]["run"]
        after = _snapshot()
        for old, new in zip(before, after):
            assert old.keys() == new.keys()
            assert all(new[k] is v for k, v in old.items())

    def test_restores_after_an_exception(self):
        before = an.cdf_paoi
        with pytest.raises(RuntimeError):
            with tracing.Tracer() as t:
                tracing.instrument(t)
                raise RuntimeError
        assert an.cdf_paoi is before

    def test_self_times_add_up_and_nested_calls_are_caught(self):
        ticks = iter(range(100))
        ns = types.SimpleNamespace()
        ns.leaf = lambda: None
        ns.inner = lambda: ns.leaf()
        ns.outer = lambda: [ns.inner(), ns.inner()]
        t = tracing.Tracer(clock=lambda: float(next(ticks)))
        t.wrap(ns, "leaf", "a")
        t.wrap(ns, "inner", "a")
        t.wrap(ns, "outer", "b", count=lambda tr, args, kwargs, result: tr.add("n", 1))
        assert not t.wrap(ns, "absent", "a")
        ns.outer()
        # clock: outer 0..9, inner 1..4 and 5..8, leaf 2..3 and 6..7
        assert t.calls("a") == 4 and t.calls("b") == 1
        assert t.self_s("b") == 9 - 6
        assert t.self_s("a") == 6
        assert t.inclusive_s("a") == 6      # nested leaf spans are not counted twice
        assert t.traced_s() == 9
        assert t.counts == {"n": 1}
        parents = {span[0]: span[1] for span in t.spans}
        assert sorted(parents.values()).count(-1) == 1

    def test_layer_metrics_account_for_the_traced_wall(self, tmp_path):
        config = tmp_path / "sweep.json"
        cfg = json.loads(open(run.REFERENCE).read())
        cfg["sweep"].update(values=[2, 3], replications=1, horizon_s=5.0)
        config.write_text(json.dumps(cfg))
        with tracing.Tracer() as t:
            tracing.instrument(t)
            start = t.clock()
            assert cli.main(["sweep", "--config", str(config), "--out", str(tmp_path)]) == 0
            wall = t.clock() - start
        layers = tracing.layer_metrics(t, wall)
        self_times = [v for k, v in layers.items()
                      if k.endswith("_s") and not k.endswith("_per_s")
                      and k not in ("cli.self_s", "trace.wall_s")]
        assert sum(self_times) + layers["cli.self_s"] == pytest.approx(wall, rel=1e-9)
        assert layers["aoi_analytic.cdf_paoi_calls"] == 3 * (2 + 3) * 2
        assert layers["aoi_analytic.cdf_points"] == layers["aoi_analytic.cdf_paoi_calls"]
        assert layers["queue_sim.runs"] == 4
        assert layers["scenario.users_placed"] == 5
        assert layers["io.bytes"] > 0


class TestGates:
    def test_sweep_gate_catches_a_perturbed_severity(self, tmp_path):
        config = tmp_path / "sweep.json"
        cfg = json.loads(open(run.REFERENCE).read())
        cfg["sweep"].update(values=[2, 3], replications=1, horizon_s=5.0)
        config.write_text(json.dumps(cfg))
        assert cli.main(["sweep", "--config", str(config), "--out", str(tmp_path)]) == 0
        gate = checks.gate("sweep_users", str(config))
        good = gate.check({"output": {"exit_code": 0}}, tmp_path)
        assert (good.attempted, good.failed) == (4, 0)
        assert 0 < good.j_z_rel_err_max < checks.J_REL_TOL

        path = tmp_path / "sweep.csv"
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        cells = lines[1].split(",")
        j = header.index("j_z")
        cells[j] = repr(float(cells[j]) * (1 + 1e-5))
        path.write_text("\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n")
        bad = gate.check({"output": {"exit_code": 0}}, tmp_path)
        assert (bad.attempted, bad.failed) == (4, 1)

    def test_population_gate_catches_lost_packets(self, tmp_path):
        (tmp_path / "paoi_fcfs.csv").write_text("header\nrow\nrow\n")
        summary = {
            "rates": [3000.0, 4000.0], "stage_service_rate": 5.0, "compute_service_rate": 100.0,
            "disciplines": {"fcfs": {
                "csv": "paoi_fcfs.csv", "samples": 2,
                "stage_counters": [[10, 6, 3, 0, 1], [10, 6, 3, 0, 0]],
                "compute_counters": [12, 11, 1], "e2e_mean": 0.0, "e2e_halfwidth": 0.0}}}
        gate = checks.gate("sim_population", "")
        summary["disciplines"]["fcfs"]["e2e_mean"] = an.avg_paoi_e2e(
            an.SystemLaw((an.StageLaw(3000.0, 5.0), an.StageLaw(4000.0, 5.0))),
            an.ComputeQueueLaw(sc.compute_arrival_rate([3000.0, 4000.0], 5.0,
                                                       sc.ArrivalRateMode.THROUGHPUT), 100.0))
        verdict = gate.check({"output": summary}, tmp_path)
        assert verdict.failed == 1
        assert "users [1]" in verdict.problems[0]
        assert "compute" not in verdict.problems[0]

    def test_validate_gate_counts_each_check(self, tmp_path):
        report = {"checks": [{"name": "a", "passed": True, "details": "", "duration_s": 1.0},
                             {"name": "b", "passed": False, "details": "x", "duration_s": 2.0}]}
        (tmp_path / "report.json").write_text(json.dumps(report))
        verdict = checks.gate("validate", "").check({"output": {"exit_code": 2}}, tmp_path)
        assert (verdict.attempted, verdict.failed) == (2, 1)
        assert checks.check_durations(tmp_path) == {"a": 1.0, "b": 2.0}
        missing = checks.gate("validate", "").check({"output": {"exit_code": 0}}, tmp_path / "x")
        assert (missing.attempted, missing.failed) == (1, 1)
