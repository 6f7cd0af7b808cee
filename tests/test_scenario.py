"""Scenario, placement, distance rows, rate realization, and sweep tests."""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

import sim_reference as ref
from thzaoi import aoi_analytic as an
from thzaoi import queue_sim as qs
from thzaoi import scenario as sc
from thzaoi import thz_link as tl


def link_params(**over):
    base = dict(bandwidth_hz=1e10, carrier_hz=1e12, tx_power_w=1.0,
                absorption_per_m=0.0016, temperature_k=300.0,
                meta_surfaces=100, image_size_bits=1e7)
    base.update(over)
    return tl.LinkParams(**base)


def queue_config(mu_u=5.0, mu_c=100.0):
    return qs.QueueConfig(an.Discipline.FCFS_MM12, mu_u, mu_c)


def scenario(num_users=4, seed=7, **link_over):
    return sc.Scenario(room=sc.Room(), num_users=num_users,
                       link_params=link_params(**link_over),
                       queue=queue_config(), placement_seed=seed)


class TestRoom:
    def test_default_surfaces_are_wall_midpoints(self):
        room = sc.Room(side_length=50.0)
        assert room.ris_positions == ((25.0, 0.0), (50.0, 25.0), (25.0, 50.0), (0.0, 25.0))


class TestPlacement:
    def test_zero_users_empty(self):
        assert sc.place_users(scenario(num_users=0)).shape == (0, 2)

    def test_deterministic(self):
        a = sc.place_users(scenario())
        b = sc.place_users(scenario())
        assert np.array_equal(a, b)

    def test_growth_is_nested(self):
        small = sc.place_users(scenario(num_users=4))
        big = sc.place_users(scenario(num_users=9))
        assert np.array_equal(big[:4], small)

    def test_strictly_inside(self):
        pts = sc.place_users(scenario(num_users=200))
        assert np.all(pts > 0.0) and np.all(pts < 50.0)

    def test_mean_converges_to_room_center(self):
        pts = sc.place_users(scenario(num_users=100000, seed=3))
        center = np.array([25.0, 25.0])
        assert np.all(np.abs(pts.mean(axis=0) - center) < 0.01 * 50.0)


class TestAssociation:
    def test_center_is_equidistant(self):
        dists = sc.surface_distances(np.array([[25.0, 25.0]]), sc.Room())
        assert dists.tolist() == [[25.0] * 4]

    def test_near_first_wall_midpoint(self):
        dists = sc.surface_distances(np.array([[25.0, 0.5]]), sc.Room())
        assert dists[0, 0] == 0.5 and dists[0].argmin() == 0

    def test_rows_are_each_users_distances(self):
        pts = sc.place_users(scenario(num_users=50))
        ris = np.asarray(sc.Room().ris_positions)
        expect = [np.hypot(ris[:, 0] - x, ris[:, 1] - y) for x, y in pts]
        dists = sc.surface_distances(pts, sc.Room())
        assert dists.shape == (50, 4) and np.array_equal(dists, expect)

    def test_association_idempotent(self):
        pts = sc.place_users(scenario(num_users=20))
        assert np.array_equal(sc.surface_distances(pts, sc.Room()),
                              sc.surface_distances(pts, sc.Room()))


class TestRates:
    def test_identical_positions_identical_rates(self):
        scen = scenario(num_users=2)
        pts = np.array([[10.0, 12.0], [10.0, 12.0]])
        rates = sc.realize_rates(scen, pts)
        assert rates[0] == rates[1]

    def test_doubling_image_size_halves_rates(self):
        scen1 = scenario(num_users=5)
        scen2 = scenario(num_users=5, image_size_bits=2e7)
        r1 = sc.realize_rates(scen1)
        r2 = sc.realize_rates(scen2)
        assert np.allclose(r2, r1 / 2.0)

    def test_matches_link_budget_composition(self):
        # each user's distances as a 4-element np.hypot, the link chain on Python
        # floats: the rates must match bit for bit, the four-way tie included
        scen = scenario(num_users=50)
        pts = np.vstack([sc.place_users(scen), [[25.0, 25.0]]])
        ris = np.asarray(scen.room.ris_positions)
        p = scen.link_params
        expect = []
        for x, y in pts:
            dists = tuple(float(d) for d in np.hypot(ris[:, 0] - x, ris[:, 1] - y))
            expect.append(tl.update_rate(tl.rate_bps(dists, p), p))
        assert sc.realize_rates(scen, pts).tolist() == expect

    def test_monotone_in_surfaces_and_power(self):
        pts = sc.place_users(scenario(num_users=6))
        base = sc.realize_rates(scenario(num_users=6), pts)
        more_n = sc.realize_rates(scenario(num_users=6, meta_surfaces=200), pts)
        more_p = sc.realize_rates(scenario(num_users=6, tx_power_w=2.0), pts)
        assert np.all(more_n > base)
        assert np.all(more_p > base)

    def test_bandwidth_doubling_increases_every_rate(self):
        pts = sc.place_users(scenario(num_users=10))
        prev = sc.realize_rates(scenario(num_users=10, bandwidth_hz=1e10), pts)
        for w in (2e10, 4e10, 8e10):
            cur = sc.realize_rates(scenario(num_users=10, bandwidth_hz=w), pts)
            assert np.all(cur > prev)
            prev = cur


class TestComputeArrival:
    def test_burke_mode_is_service_sum(self):
        assert sc.compute_arrival_rate([100.0, 200.0], 5.0, sc.ArrivalRateMode.BURKE) == 10.0

    def test_throughput_mode_below_burke(self):
        rates = [3.0, 8.0, 50.0]
        thr = sc.compute_arrival_rate(rates, 5.0, sc.ArrivalRateMode.THROUGHPUT)
        assert 0.0 < thr < 15.0


class TestSweep:
    def small_sweep(self, variable=sc.SweepVariable.NUM_USERS, values=(2.0, 3.0),
                    reps=1, **link_over):
        base = scenario(num_users=2, **link_over)
        return sc.Sweep(variable, tuple(values), reps, base, ruin_level=1.0, threshold_z=3.0,
                        horizon=40.0, master_seed=99)

    def test_values_must_increase(self):
        with pytest.raises(ValueError):
            sc.Sweep(sc.SweepVariable.NUM_USERS, (5.0, 5.0), 1, scenario(), 1.0, 3.0, 40.0, 0)

    def test_row_count_and_columns(self):
        sweep = self.small_sweep(values=(2.0, 3.0), reps=2)
        rows = sc.run_sweep(sweep)
        # value x rep x discipline x avg mode x psi mode
        assert len(rows) == 2 * 2 * 2 * 2 * 2
        for col in sc.SWEEP_COLUMNS:
            assert col in rows[0]

    def test_rows_deterministic(self):
        sweep = self.small_sweep()
        a = sc.run_sweep(sweep)
        b = sc.run_sweep(sweep)
        assert a == b

    def test_unstable_cells_record_error_without_abort(self):
        # corrected mode is undefined once the service-rate sum passes the
        # compute capacity; those rows carry an error, others succeed
        base = sc.Scenario(room=sc.Room(), num_users=10,
                           link_params=link_params(),
                           queue=queue_config(mu_u=5.0, mu_c=40.0),
                           placement_seed=3)
        sweep = sc.Sweep(sc.SweepVariable.NUM_USERS, (10.0,), 1, base, 1.0, 3.0, 30.0, 5)
        rows = sc.run_sweep(sweep)
        corrected = [r for r in rows if r.get("avg_analytic_mode") == "corrected"]
        assert corrected and all(r["error"] for r in corrected)
        assert all(math.isnan(r["avg_analytic"]) for r in corrected)
        as_written = [r for r in rows if r.get("avg_analytic_mode") == "as-written"]
        assert as_written and all(math.isfinite(r["avg_analytic"]) for r in as_written)

    def test_users_trend_analytic_corrected_per_user(self):
        base = sc.Scenario(room=sc.Room(), num_users=5,
                           link_params=link_params(),
                           queue=queue_config(mu_u=5.0, mu_c=1000.0),
                           placement_seed=12)
        sweep = sc.Sweep(sc.SweepVariable.NUM_USERS, (5.0, 10.0, 15.0), 1, base,
                         1.0, 3.0, 30.0, 7)
        rows = sc.run_sweep(sweep)
        for disc in ("fcfs", "lcfs"):
            series = [r["avg_analytic_per_user"] for r in rows
                      if r["discipline"] == disc and r["avg_analytic_mode"] == "corrected"
                      and r["severity_mode"] == "survival"]
            assert all(b <= a + 1e-12 for a, b in zip(series, series[1:]))

    def test_sweep_never_falls_back_to_quadrature(self, monkeypatch):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("the sweep must use the reference CDF kernels")

        monkeypatch.setattr(an, "_quad_pdf", no_quadrature)
        sweep = self.small_sweep(values=(2.0, 3.0))
        rows = sc.run_sweep(sweep)
        assert len(rows) == 2 * 2 * 2 * 2
        assert not any(r["error"] for r in rows)
        assert all(math.isfinite(r["j_z"]) for r in rows)

    def test_programming_errors_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ZeroDivisionError("a bug, not a failed cell")

        monkeypatch.setattr(qs, "run", broken)
        sweep = self.small_sweep()
        with pytest.raises(ZeroDivisionError):
            sc.run_sweep(sweep)

    def test_ks_stage_is_the_largest_over_users(self, monkeypatch):
        real_run = qs.run
        runs = []

        def skew_user_1(*args, **kwargs):
            out = real_run(*args, **kwargs)
            out.stage1[1].peaks = out.stage1[1].peaks + 0.2
            runs.append(out)
            return out

        monkeypatch.setattr(qs, "run", skew_user_1)
        sweep = self.small_sweep(values=(2.0,))
        rows = sc.run_sweep(sweep)
        for out in runs:
            ks = [qs.ks_distance(qs.empirical_cdf(out, u, qs.Stage.STAGE1),
                                 an.cdf_reference(an.StageLaw(r, 5.0, out.config.discipline)))
                  for u, r in enumerate(out.rates)]
            assert ks[1] > ks[0]
            cell = [r for r in rows if r["discipline"] == out.config.discipline.value]
            assert len(cell) == 4 and all(r["ks_stage"] == ks[1] for r in cell)

    @pytest.mark.parametrize("users", [2, 3])
    def test_ks_stage_reads_the_reference_kernel_at_most_twice_per_discipline(
            self, monkeypatch, users):
        # severity reads the kernels one age at a time; the KS column reads them
        # over every cell's peaks, once at their knots and once between them, so
        # a per-cell or per-user loop would call them per cell or per user
        calls = []
        for name in ("_cdf_fcfs_closed", "_cdf_lcfs_integrated"):
            def spy(r, mu, a, kernel=getattr(an, name)):
                if isinstance(a, np.ndarray):
                    calls.append(np.unique(r).size)
                return kernel(r, mu, a)
            monkeypatch.setattr(an, name, spy)
        rows = sc.run_sweep(self.small_sweep(values=(float(users),), reps=2))
        assert not any(r["error"] for r in rows)
        # 2 disciplines, each over both replications' cells of a few hundred peaks per
        # user, inside one KS chunk: a knot read over every user of every cell, and at
        # most one more read
        assert len(calls) <= 4 and calls.count(2 * users) >= 2

    @pytest.mark.parametrize("variable,values", [
        (sc.SweepVariable.NUM_USERS, (2.0, 3.0, 4.0)),
        (sc.SweepVariable.BANDWIDTH, (1e10, 2e10, 4e10))], ids=["num_users", "bandwidth"])
    def test_sweep_passes_give_each_cell_its_own_estimates(self, monkeypatch, variable,
                                                           values):
        # every cell's KS and batch-means columns come from passes over all cells of
        # its discipline; they must be what the cell's own run gives, bit for bit,
        # with one cell failing in between: the 4th run (the first value's second
        # replication, LCFS) keeps one peak of its user 1
        real_run, runs = qs.run, []

        def one_peak_in_run_4(*args, **kwargs):
            out = real_run(*args, **kwargs)
            if len(runs) == 3:
                s = out.stage1[1]
                out.stage1[1] = qs.StageSeries(s.times[:1], s.peaks[:1], s.post_ages[:1])
            runs.append(out)
            return out

        monkeypatch.setattr(qs, "run", one_peak_in_run_4)
        sweep = self.small_sweep(variable, values, reps=2)
        rows = sc.run_sweep(sweep)
        assert len(runs) == len(values) * 2 * 2
        cells = {}
        for row in rows:
            cells.setdefault((row["value"], row["replication"], row["discipline"]), []).append(row)
        assert list(cells) == [(v, rep, d.value) for v in values for rep in range(2)
                               for d in an.Discipline]
        for out, cell in zip(runs, cells.values()):
            if out is runs[3]:
                assert [r["error"] for r in cell] == ["need at least two samples"]
                continue
            assert len(cell) == 4
            est = qs.e2e_average_estimate(out)
            ks = max(qs.ks_distance(qs.EmpiricalCdf(out.stage1[u].peaks),
                                    an.cdf_reference(an.StageLaw(r, 5.0, out.config.discipline)))
                     for u, r in enumerate(out.rates))
            for row in cell:
                assert (row["ks_stage"], row["avg_sim"], row["avg_sim_ci"],
                        row["avg_sim_per_user"]) == (ks, est.mean, est.halfwidth,
                                                     est.mean / len(out.rates))
        # the failed cell leaves its group one replication short, so two counts mix
        agg = sc.aggregate_sweep(rows)
        assert sorted({a["replications"] for a in agg}) == [1, 2]
        assert [[(k, repr(v)) for k, v in a.items()] for a in agg] == \
            [[(k, repr(v)) for k, v in a.items()] for a in ref.aggregate_sweep_by_group(rows)]

    @pytest.mark.parametrize("variable,values,most", [
        (sc.SweepVariable.NUM_USERS, (2.0, 3.0, 5.0), 5),
        (sc.SweepVariable.BANDWIDTH, (1e10, 2e10), 2)])
    def test_each_replication_is_placed_once(self, monkeypatch, variable, values, most):
        sweep = self.small_sweep(variable, values, reps=2)
        placed = []
        place = sc.place_users

        def counted(scenario):
            placed.append(scenario.num_users)
            return place(scenario)

        monkeypatch.setattr(sc, "place_users", counted)
        sc.run_sweep(sweep)
        assert placed == [most, most]
        # each cell's rates are those of its own users placed afresh, as the
        # replication's seed places them
        monkeypatch.setattr(sc, "place_users", place)
        base = sweep.base
        for rep in range(2):
            positions = sc.replication_positions(base, variable, values, rep)
            seed = sc._derived_seed(base.placement_seed, 1000 + rep)
            for value in values:
                cell = (replace(base, num_users=int(value), placement_seed=seed)
                        if variable is sc.SweepVariable.NUM_USERS else
                        replace(base, placement_seed=seed,
                                link_params=replace(base.link_params, bandwidth_hz=value)))
                assert (sc.cell_rates(base, variable, value, positions).tolist()
                        == sc.realize_rates(cell).tolist())

    def test_counter_columns_are_each_cells_own_counts(self):
        # drops, preemptions and burke_gap are read off a cell's own counters and compute
        # arrival rate; without this, only the golden digests catch them computed over
        # the wrong users or the wrong counts
        cells = {}

        def sink(value, rep, disc, samples, excursions):
            cells[value, rep, disc.value] = samples

        sweep = self.small_sweep(values=(1.0, 2.0, 3.0), reps=2)
        rows = [r for r in sc.run_sweep(sweep, sample_sink=sink) if not r["error"]]
        assert len(cells) == 3 * 2 * 2
        assert {r["discipline"] for r in rows} == {d.value for d in an.Discipline}
        mu_u = sweep.base.queue.stage_service_rate
        for row in rows:
            samples = cells[row["value"], row["replication"], row["discipline"]]
            counters = samples.stage_counters.values()
            assert len(samples.stage_counters) == int(row["value"])
            assert row["burke_gap"] == mu_u * int(row["value"]) - samples.compute_arrival_rate
            assert row["drops"] == sum(c.drops for c in counters)
            assert row["preemptions"] == sum(c.preemptions for c in counters)
            lcfs = row["discipline"] == an.Discipline.LCFS_MM12_STAR.value
            assert row["drops" if lcfs else "preemptions"] == 0
            assert row["preemptions" if lcfs else "drops"] > 0

    def test_zero_update_rate_is_an_error_row(self):
        # an absorption this high underflows every user's SNR to a zero Shannon rate
        sweep = self.small_sweep(values=(2.0,), absorption_per_m=2.5)
        rows = sc.run_sweep(sweep)
        assert len(rows) == 2 and all("zero update rate" in r["error"] for r in rows)

    def test_aggregate_groups_replications(self):
        sweep = self.small_sweep(values=(2.0,), reps=3)
        rows = sc.run_sweep(sweep)
        agg = sc.aggregate_sweep(rows)
        assert all(a["replications"] == 3 for a in agg)
        # value x discipline x avg mode x psi mode
        assert len(agg) == 1 * 2 * 2 * 2


class TestConfigParsing:
    def good(self):
        return {
            "link": {"bandwidth_hz": 1e10, "carrier_hz": 1e12, "tx_power_w": 1.0,
                     "absorption_per_m": 0.0016, "temperature_k": 300.0,
                     "meta_surfaces": 100, "image_size_bits": 1e7},
            "room": {"side_length": 50.0},
            "queue": {"stage_service_rate": 5.0, "compute_service_rate": 100.0},
            "num_users": 4,
            "placement_seed": 7,
        }

    def test_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(self.good()))
        scen = sc.parse_scenario(sc.load_json(path))
        assert scen.num_users == 4
        assert scen.link_params.meta_surfaces == 100

    def test_unknown_key_rejected_with_path(self):
        cfg = self.good()
        cfg["link"]["bogus"] = 1
        with pytest.raises(sc.ConfigError, match="link"):
            sc.parse_scenario(cfg)

    def test_missing_key_rejected(self):
        cfg = self.good()
        del cfg["queue"]["stage_service_rate"]
        with pytest.raises(sc.ConfigError, match="queue"):
            sc.parse_scenario(cfg)

    def test_sweep_section(self):
        scen = sc.parse_scenario(self.good())
        sweep = sc.parse_sweep(
            {"variable": "num_users", "values": [5, 10], "replications": 2,
             "ruin_level_s": 1.0, "threshold_z_s": 3.0, "horizon_s": 100.0},
            scen)
        assert sweep.values == (5.0, 10.0)
        assert sweep.arrival_mode is sc.ArrivalRateMode.BURKE

    def test_bad_sweep_variable(self):
        scen = sc.parse_scenario(self.good())
        with pytest.raises(sc.ConfigError):
            sc.parse_sweep({"variable": "nope", "values": [1], "replications": 1,
                            "ruin_level_s": 1.0, "threshold_z_s": 3.0,
                            "horizon_s": 10.0}, scen)

    @pytest.mark.parametrize("section,key,value,field", [
        ("link", "bandwidth_hz", math.nan, "scenario.link.bandwidth_hz"),
        ("link", "carrier_hz", math.inf, "scenario.link.carrier_hz"),
        ("link", "tx_power_w", True, "scenario.link.tx_power_w"),
        ("link", "meta_surfaces", 100.5, "scenario.link.meta_surfaces"),
        ("queue", "stage_service_rate", math.nan, "scenario.queue.stage_service_rate"),
        ("room", "side_length", False, "scenario.room.side_length"),
        (None, "num_users", 2.7, "scenario.num_users"),
        (None, "num_users", True, "scenario.num_users"),
        (None, "num_users", 0, "scenario.num_users"),
        (None, "placement_seed", "7", "scenario.placement_seed"),
        ("link", "meta_surfaces", 0, "scenario.link.meta_surfaces"),
        ("link", "tx_power_w", 0.0, "scenario.link.tx_power_w"),
        ("queue", "compute_service_rate", -1.0, "scenario.queue.compute_service_rate"),
    ])
    def test_bad_numbers_rejected_with_field_path(self, section, key, value, field):
        cfg = self.good()
        (cfg[section] if section else cfg)[key] = value
        with pytest.raises(sc.ConfigError, match=re.escape(field)):
            sc.parse_scenario(cfg)

    def test_whole_float_count_accepted(self):
        cfg = self.good()
        cfg["num_users"] = 4.0
        scen = sc.parse_scenario(cfg)
        assert scen.num_users == 4 and isinstance(scen.num_users, int)

    @pytest.mark.parametrize("key,value,field", [
        ("values", [5, 7.5], "sweep.values[1]"),
        ("values", [5, True], "sweep.values[1]"),
        ("replications", True, "sweep.replications"),
        ("replications", 1.5, "sweep.replications"),
        ("horizon_s", math.nan, "sweep.horizon_s"),
        ("threshold_z_s", -math.inf, "sweep.threshold_z_s"),
        ("replications", 0, "sweep.replications"),
    ])
    def test_bad_sweep_numbers_rejected_with_field_path(self, key, value, field):
        scen = sc.parse_scenario(self.good())
        d = {"variable": "num_users", "values": [5, 10], "replications": 1,
             "ruin_level_s": 1.0, "threshold_z_s": 3.0, "horizon_s": 10.0}
        d[key] = value
        with pytest.raises(sc.ConfigError, match=re.escape(field)):
            sc.parse_sweep(d, scen)

    @pytest.mark.parametrize("values,field", [([-1e10, 1e10], "sweep.values[0]"),
                                              ([1e10, 0.0], "sweep.values[1]")])
    def test_bandwidth_sweep_values_must_be_positive(self, values, field):
        scen = sc.parse_scenario(self.good())
        with pytest.raises(sc.ConfigError, match=re.escape(field)):
            sc.parse_sweep({"variable": "bandwidth", "values": values, "replications": 1,
                            "ruin_level_s": 1.0, "threshold_z_s": 3.0, "horizon_s": 10.0}, scen)

    def test_settings_carry_the_master_seed(self):
        sweep = sc.parse_sweep(
            {"variable": "num_users", "values": [5], "replications": 1,
             "ruin_level_s": 1.0, "threshold_z_s": 3.0, "horizon_s": 10.0},
            sc.parse_scenario(self.good()), master_seed=17)
        assert (sweep.ruin_level, sweep.threshold_z, sweep.horizon,
                sweep.master_seed) == (1.0, 3.0, 10.0, 17)

    def test_bandwidth_sweep_values_may_be_fractional(self):
        scen = sc.parse_scenario(self.good())
        sweep = sc.parse_sweep(
            {"variable": "bandwidth", "values": [1e10, 2.5e10], "replications": 1,
             "ruin_level_s": 1.0, "threshold_z_s": 3.0, "horizon_s": 10.0}, scen)
        assert sweep.values == (1e10, 2.5e10)
