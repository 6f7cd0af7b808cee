"""Physical scenarios and parameter sweeps.

A scenario is a square room with reflecting surfaces on its walls, a user
population placed uniformly at random, and the link/queue parameters that
turn each user's row of distances to the surfaces into an update rate, the
nearest surface serving.  Sweeps vary user count or bandwidth over a value
ladder with replications; every cell is reproducible from the master seed.

User placement uses one substream per user index, so growing the
population extends the placement instead of reshuffling it, and the same
replication sees identical users across sweep values.
"""

from __future__ import annotations

import contextlib
import enum
import json
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import aoi_analytic as an
from . import queue_sim as qs
from . import thz_link as link

_PLACEMENT_TAG = 7

# the most users, replications or stage services per user a config may
# ask for: sizes past it are typos that end in a memory error, not in a result
MOST = 1_000_000


class ConfigError(ValueError):
    """Configuration file problem; message carries the offending field path."""


class SweepVariable(enum.Enum):
    NUM_USERS = "num_users"
    BANDWIDTH = "bandwidth"


class ArrivalRateMode(enum.Enum):
    """How the compute-queue arrival rate is derived from the stages."""

    BURKE = "burke"            # sum of stage service rates, as published
    THROUGHPUT = "throughput"  # sum of finite-buffer stage throughputs


@dataclass(frozen=True)
class Room:
    side_length: float = 50.0

    def __post_init__(self):
        if not self.side_length > 0:
            raise ValueError("side_length must be strictly positive")

    @property
    def ris_positions(self) -> tuple[tuple[float, float], ...]:
        """The reflecting surfaces: the midpoint of each of the four walls."""
        side, h = self.side_length, self.side_length / 2.0
        return ((h, 0.0), (side, h), (h, side), (0.0, h))


@dataclass(frozen=True)
class Scenario:
    room: Room
    num_users: int
    link_params: link.LinkParams
    queue: qs.QueueConfig
    placement_seed: int

    def __post_init__(self):
        if self.num_users < 0:
            raise ValueError("num_users must be non-negative")


@dataclass(frozen=True)
class Sweep:
    variable: SweepVariable
    values: tuple[float, ...]
    replications: int
    base: Scenario
    ruin_level: float
    threshold_z: float
    horizon: float
    master_seed: int
    arrival_mode: ArrivalRateMode = ArrivalRateMode.BURKE

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("sweep values must be strictly increasing")
        if not self.ruin_level > 0:
            raise ValueError("ruin_level must be strictly positive")
        if not (self.threshold_z > 0 and self.horizon > 0):
            raise ValueError("threshold and horizon must be strictly positive")


# ---------------------------------------------------------------------------
# geometry -> rates

def place_users(scenario: Scenario) -> np.ndarray:
    """I.i.d. uniform positions strictly inside the room, one substream per user."""
    side = scenario.room.side_length
    pts = np.empty((scenario.num_users, 2))
    for u in range(scenario.num_users):
        rng = qs._rng(scenario.placement_seed, _PLACEMENT_TAG, u)
        x, y = rng.uniform(0.0, side, size=2)
        while x <= 0.0 or x >= side or y <= 0.0 or y >= side:
            x, y = rng.uniform(0.0, side, size=2)
        pts[u] = (x, y)
    return pts


def surface_distances(users: np.ndarray, room: Room) -> np.ndarray:
    """(N, 4) Euclidean distances from each user, a row of the (N, 2) ``users``, to each surface."""
    ris = np.asarray(room.ris_positions, dtype=float)
    return np.hypot(ris[:, 0] - users[:, :1], ris[:, 1] - users[:, 1:])


def realize_rates(scenario: Scenario, positions: np.ndarray | None = None) -> np.ndarray:
    """Per-user update rates from the link-budget chain, run on Python floats: libm's
    ``exp`` and ``log2``, whose last bits numpy's vectorized ones need not match."""
    if positions is None:
        positions = place_users(scenario)
    rows = surface_distances(positions, scenario.room).tolist()
    p = scenario.link_params
    return np.array([link.update_rate(link.rate_bps(d, p), p) for d in rows], dtype=float)


def compute_arrival_rate(rates: Sequence[float], mu_u: float,
                         mode: ArrivalRateMode) -> float:
    if mode is ArrivalRateMode.BURKE:
        return mu_u * len(rates)
    return float(sum(an.stage_throughput(r, mu_u) for r in rates))


# ---------------------------------------------------------------------------
# sweep execution

SWEEP_COLUMNS = [
    "sweep_var", "value", "replication", "discipline",
    "avg_analytic_mode", "avg_analytic", "avg_sim", "avg_sim_ci",
    "severity_mode", "j_z", "j_validity", "ks_stage", "drops", "preemptions",
    "avg_analytic_per_user", "avg_sim_per_user",
    "sim_severity_below_z", "sim_excursions",
    "lambda_c", "burke_gap", "error",
]


def _derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def replication_positions(base: Scenario, variable: SweepVariable, values: Sequence[float],
                          rep: int) -> np.ndarray:
    """Replication ``rep``'s user positions, as many as the largest of the sweep
    ``values`` holds: each cell's users are a prefix of them."""
    most = int(max(values)) if variable is SweepVariable.NUM_USERS else base.num_users
    seed = _derived_seed(base.placement_seed, 1000 + rep)
    return place_users(replace(base, num_users=most, placement_seed=seed))


def cell_rates(base: Scenario, variable: SweepVariable, value: float,
               positions: np.ndarray) -> np.ndarray:
    """Per-user update rates of ``base`` at sweep ``value``, for users at a
    replication's ``positions``."""
    if variable is SweepVariable.NUM_USERS:
        return realize_rates(base, positions[:int(value)])
    link_params = replace(base.link_params, bandwidth_hz=float(value))
    return realize_rates(replace(base, link_params=link_params), positions)


def run_sweep(sweep: Sweep, sample_sink=None) -> list[dict]:
    """One row per (value, replication, discipline, avg mode, severity mode).

    Cell failures (a user with a zero update rate, too few simulated
    samples, an unstable compute queue in corrected mode) are recorded in
    the row's ``error`` column; any other exception propagates.
    ``sample_sink(value, replication, discipline, samples, excursions)``
    receives each cell's raw simulator output and one ``ExcursionStats``
    pooling its users' stage excursions above the ruin level, in user
    order, e.g. for CSV export.  Each cell keeps only its stage and compute-queue
    peaks for its ``ks_stage`` and ``avg_sim`` columns, which come, once every cell
    is run, from one pass per discipline over its cells that are not error rows.
    """
    positions = [replication_positions(sweep.base, sweep.variable, sweep.values, rep)
                 for rep in range(sweep.replications)]
    mu_u, mu_c = sweep.base.queue.stage_service_rate, sweep.base.queue.compute_service_rate
    rows: list[dict] = []
    pending: dict[an.Discipline, list] = {}
    for vi, value in enumerate(sweep.values):
        for rep in range(sweep.replications):
            rates = cell_rates(sweep.base, sweep.variable, value, positions[rep])
            if np.any(rates <= 0):   # the link budget's SNR underflowed to a zero Shannon rate
                rows.extend(_row(sweep, value, rep, disc, "a user's link gives a zero update "
                                 "rate and no samples") for disc in an.Discipline)
                continue
            # both disciplines from one set of cycle draws, under the FCFS seed
            runs = qs.cell_runs(an.Discipline, rates, mu_u, mu_c, sweep.horizon,
                                _derived_seed(sweep.master_seed, vi, rep, 0))
            for disc, samples in zip(an.Discipline, runs):
                cell = _run_cell(sweep, rates, value, rep, disc, samples, sample_sink)
                rows.extend(cell[0])
                if cell[1]:   # not an error row
                    pending.setdefault(disc, []).append(cell)
    for cells in pending.values():
        _estimate_cells(cells)
    return rows


def _row(sweep, value, rep, disc, error=""):
    return {"sweep_var": sweep.variable.value, "value": value, "replication": rep,
            "discipline": disc.value, "error": error}


def _run_cell(sweep, rates, value, rep, disc, samples, sample_sink):
    """A cell's rows, stage laws and ``qs._e2e_samples`` from its ``samples`` (an error row:
    no laws, no samples)."""
    mu_u, mu_c = sweep.base.queue.stage_service_rate, sweep.base.queue.compute_service_rate
    base_row = _row(sweep, value, rep, disc)
    try:
        lam_c = compute_arrival_rate(rates, mu_u, sweep.arrival_mode)
        stages = tuple(an.StageLaw(float(r), mu_u, disc) for r in rates)
        sys_law = an.SystemLaw(stages)

        # completed excursions pooled across users; empirical P(M - a <= z)
        exceed = qs.exceedances([samples.stage1[u] for u in range(len(rates))], sweep.ruin_level)
        if sample_sink is not None:
            sample_sink(value, rep, disc, samples, qs.ExcursionStats(sweep.ruin_level, exceed))
        estimated = qs._e2e_samples(samples)
        sev_below = float(np.mean(exceed <= sweep.threshold_z)) if exceed.size else math.nan
        drops = sum(c.drops for c in samples.stage_counters.values())
        preempts = sum(c.preemptions for c in samples.stage_counters.values())
        burke_gap = mu_u * len(rates) - samples.compute_arrival_rate
    except qs.EmptyDataError as exc:
        return [_row(sweep, value, rep, disc, str(exc))], (), ()

    sev_pair = an.severity_both_modes(sys_law, sweep.ruin_level, sweep.threshold_z)
    out = []
    for avg_mode in (an.AvgMode.CORRECTED, an.AvgMode.AS_WRITTEN):
        try:
            comp = an.ComputeQueueLaw(lam_c, mu_c, avg_mode)
            avg_val = an.avg_paoi_e2e(sys_law, comp)
            avg_err = ""
        except an.InstabilityError as exc:
            avg_val = math.nan
            avg_err = str(exc)
        for psi_mode in (an.PsiMode.AS_WRITTEN_CDF, an.PsiMode.SURVIVAL):
            sev = sev_pair[psi_mode]
            row = dict(base_row)
            # the simulator's estimates and ks_stage are filled in by _estimate_cells
            row.update({
                "avg_analytic_mode": avg_mode.value,
                "avg_analytic": avg_val,
                "avg_sim": None, "avg_sim_ci": None,
                "severity_mode": psi_mode.value,
                "j_z": sev.value, "j_validity": sev.validity.value,
                "ks_stage": None, "drops": drops, "preemptions": preempts,
                "avg_analytic_per_user": avg_val / len(rates),
                "avg_sim_per_user": None,
                "sim_severity_below_z": sev_below, "sim_excursions": exceed.size,
                "lambda_c": lam_c, "burke_gap": burke_gap,
                "error": avg_err,
            })
            out.append(row)
    return out, stages, estimated


def _estimate_cells(cells):
    """Fill in the ``ks_stage`` and ``avg_sim`` columns of one discipline's ``cells`` (rows,
    stages, samples): each cell's largest user distance of one ``stage_ks`` pass, and its
    samples' estimates of one ``_estimate_avgs`` pass, composed as for one cell."""
    users = np.array([len(stages) for _, stages, _ in cells])
    ks = stage_ks([p for *_, samples in cells for p in samples[:-1]],
                  [law for _, stages, _ in cells for law in stages])
    cell_ks = np.maximum.reduceat(ks, np.cumsum(users) - users).tolist()
    ests = iter(qs._estimate_avgs([v for *_, samples in cells for v in samples]))
    for (rows, stages, samples), k in zip(cells, cell_ks):
        avg = qs._e2e_composed([next(ests) for _ in samples])
        for row in rows:
            row.update(avg_sim=avg.mean, avg_sim_ci=avg.halfwidth, ks_stage=k,
                       avg_sim_per_user=avg.mean / len(stages))


def stage_ks(peaks: Sequence[np.ndarray], stages: Sequence[an.StageLaw]) -> np.ndarray:
    """Each user's KS distance between ``peaks[u]`` and the reference CDF of
    ``stages[u]``, for stages of one discipline and service rate, from one or many cells.

    The users' sorted peaks are one array, and the reference kernel reads it with
    each user's update rate repeated per point: the kernels are elementwise in
    (r, a), so every value is the one a user's own ``cdf_reference`` gives."""
    points = np.concatenate([np.sort(p) for p in peaks])
    lengths = [len(p) for p in peaks]
    rates = np.repeat([law.update_rate for law in stages], lengths)
    kernel = an._cdf_kernel(stages[0], an.CdfSource.REFERENCE)
    mu = stages[0].service_rate
    return qs.ks_segments(points, lengths, lambda idx: kernel(rates[idx], mu, points[idx]))


def aggregate_sweep(rows: Sequence[dict]) -> list[dict]:
    """Replication means and 95% half-widths per (value, discipline, modes): the
    groups of one replication count are reduced together, a row per (group, metric)."""
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        if row.get("error"):
            continue
        key = (row["sweep_var"], row["value"], row["discipline"],
               row["avg_analytic_mode"], row["severity_mode"])
        groups.setdefault(key, []).append(row)
    metrics = ["avg_analytic", "avg_sim", "avg_analytic_per_user",
               "avg_sim_per_user", "j_z", "ks_stage", "sim_severity_below_z"]
    out = {key: {"sweep_var": key[0], "value": key[1], "discipline": key[2],
                 "avg_analytic_mode": key[3], "severity_mode": key[4],
                 "replications": len(groups[key])} for key in sorted(groups)}
    for n in {len(members) for members in groups.values()}:
        keys = [key for key in out if len(groups[key]) == n]
        # each reduction runs along a contiguous row, so it sums as the
        # one-dimensional call on that metric's replications would
        vals = np.array([[r[m] for r in groups[key]] for key in keys for m in metrics],
                        dtype=float)
        means = np.full(len(vals), math.nan)
        some = ~np.isnan(vals).all(axis=1)
        means[some] = np.nanmean(vals[some], axis=1)
        hws = np.zeros(len(vals))
        if n > 1:
            finite = np.isfinite(vals).all(axis=1)
            hws[finite] = (qs.student_t_975(n - 1)
                           * np.std(vals[finite], axis=1, ddof=1) / math.sqrt(n))
        for key, mean_row, hw_row in zip(keys, means.reshape(len(keys), -1).tolist(),
                                         hws.reshape(len(keys), -1).tolist()):
            for m, mean, hw in zip(metrics, mean_row, hw_row):
                out[key][f"{m}_mean"] = mean
                out[key][f"{m}_hw"] = hw
    return list(out.values())


# ---------------------------------------------------------------------------
# JSON configuration

def check_keys(d: dict, required: set[str], optional: set[str], path: str):
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = set(d) - required - optional
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    missing = required - set(d)
    if missing:
        raise ConfigError(f"{path}: missing keys {sorted(missing)}")


@contextlib.contextmanager
def config_errors(path: str):
    """Report a TypeError or ValueError raised inside as a ConfigError at ``path``."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def number(value, field: str, least: float | None = None) -> float:
    """A finite JSON number, at least ``least`` if given; booleans and strings are not numbers."""
    x = math.nan
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):   # an integer beyond float range
            x = float(value)
    if not math.isfinite(x):
        raise ConfigError(f"{field}: expected a finite number, got {value!r}")
    if least is not None and x < least:
        raise ConfigError(f"{field}: expected a number of at least {least:g}, got {value!r}")
    return x


def count(value, field: str, least: int | None = None, most: int | None = None) -> int:
    """A whole JSON number within [``least``, ``most``] where given; 2 and 2.0 pass,
    2.7 and true do not."""
    x = number(value, field, least)
    if not x.is_integer():
        raise ConfigError(f"{field}: expected a whole number, got {value!r}")
    if most is not None and x > most:
        raise ConfigError(f"{field}: expected a whole number of at most {most:,}, got {value!r}")
    return int(value)


def entries(value, field: str, least: int = 0) -> list:
    """A JSON list of at least ``least`` entries; a string or an object is not a list."""
    if not (isinstance(value, list) and len(value) >= least):
        kind = "a non-empty list" if least else "a list"
        raise ConfigError(f"{field}: expected {kind}, got {value!r}")
    return value


def positive(value, field: str) -> float:
    """A finite JSON number above zero."""
    x = number(value, field)
    if x <= 0:
        raise ConfigError(f"{field}: expected a number above zero, got {value!r}")
    return x


def horizon(value, field: str, service_rate: float) -> float:
    """A horizon above zero holding at most ``MOST`` stage services at ``service_rate``."""
    x = positive(value, field)
    if x * service_rate > MOST:
        raise ConfigError(f"{field}: expected at most {MOST / service_rate:g} s "
                          f"({MOST:,} services at {service_rate:g}/s), got {value!r}")
    return x


def parse_link(d: dict, path: str = "link") -> link.LinkParams:
    check_keys(d, {"bandwidth_hz", "carrier_hz", "tx_power_w", "absorption_per_m",
                   "temperature_k", "meta_surfaces", "image_size_bits"}, set(), path)
    with config_errors(path):
        return link.LinkParams(
            bandwidth_hz=positive(d["bandwidth_hz"], f"{path}.bandwidth_hz"),
            carrier_hz=positive(d["carrier_hz"], f"{path}.carrier_hz"),
            tx_power_w=positive(d["tx_power_w"], f"{path}.tx_power_w"),
            absorption_per_m=positive(d["absorption_per_m"], f"{path}.absorption_per_m"),
            temperature_k=positive(d["temperature_k"], f"{path}.temperature_k"),
            meta_surfaces=count(d["meta_surfaces"], f"{path}.meta_surfaces", least=1),
            image_size_bits=positive(d["image_size_bits"], f"{path}.image_size_bits"))


def parse_room(d: dict, path: str = "room") -> Room:
    check_keys(d, {"side_length"}, set(), path)
    return Room(side_length=positive(d["side_length"], f"{path}.side_length"))


def parse_queue(d: dict, path: str = "queue") -> qs.QueueConfig:
    """The two service rates; the discipline is a placeholder, as each sweep
    cell runs both."""
    check_keys(d, {"stage_service_rate", "compute_service_rate"}, set(), path)
    with config_errors(path):
        return qs.QueueConfig(
            an.Discipline.FCFS_MM12,
            positive(d["stage_service_rate"], f"{path}.stage_service_rate"),
            positive(d["compute_service_rate"], f"{path}.compute_service_rate"))


def parse_scenario(d: dict, path: str = "scenario") -> Scenario:
    check_keys(d, {"link", "room", "queue", "num_users", "placement_seed"}, set(), path)
    with config_errors(path):
        return Scenario(
            room=parse_room(d["room"], f"{path}.room"),
            num_users=count(d["num_users"], f"{path}.num_users", least=1, most=MOST),
            link_params=parse_link(d["link"], f"{path}.link"),
            queue=parse_queue(d["queue"], f"{path}.queue"),
            placement_seed=count(d["placement_seed"], f"{path}.placement_seed", least=0))


def parse_sweep(d: dict, base: Scenario, master_seed: int = 0, path: str = "sweep") -> Sweep:
    check_keys(d, {"variable", "values", "replications", "ruin_level_s",
                   "threshold_z_s", "horizon_s"},
               {"arrival_mode"}, path)
    with config_errors(path):
        variable = SweepVariable(d["variable"])
        read = (lambda v, field: count(v, field, least=1, most=MOST)) \
            if variable is SweepVariable.NUM_USERS else positive
        values = tuple(float(read(v, f"{path}.values[{i}]"))
                       for i, v in enumerate(entries(d["values"], f"{path}.values", least=1)))
        replications = count(d["replications"], f"{path}.replications", least=1, most=MOST)
        ruin_level = positive(d["ruin_level_s"], f"{path}.ruin_level_s")
        threshold_z = positive(d["threshold_z_s"], f"{path}.threshold_z_s")
        horizon_s = horizon(d["horizon_s"], f"{path}.horizon_s", base.queue.stage_service_rate)
        arrival_mode = ArrivalRateMode(d.get("arrival_mode", "burke"))
        with config_errors(f"{path}.values"):   # the one check left to Sweep is on the values
            return Sweep(variable, values, replications, base, ruin_level, threshold_z,
                         horizon_s, master_seed, arrival_mode)


def load_json(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except ValueError as exc:   # malformed JSON, or an integer over the digit limit
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
