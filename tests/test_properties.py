"""Property tests: stage kernels and simulator bookkeeping over wide rate ranges,
and the config boundary over malformed numbers.

r/mu is drawn log-uniformly over [1e-3, 1e5], from lightly loaded stages to
the saturated ones the THz link budget produces.  Examples are derandomized
so every run draws the same cases.
"""

import copy
import io
import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thzaoi import aoi_analytic as an
from thzaoi import cli
from thzaoi import queue_sim as qs


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


RATIO = log_uniform(1e-3, 1e5)
MU = log_uniform(1e-2, 1e2)
DISCIPLINE = st.sampled_from(list(an.Discipline))
# ages in units of the slower of the two stage time scales
AGES = st.lists(log_uniform(1e-4, 1e4), min_size=1, max_size=12)
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)


def stage_and_ages(ratio, mu, disc, ages):
    law = an.StageLaw(ratio * mu, mu, disc)
    scaled = np.sort(np.asarray(ages)) / min(law.update_rate, mu)
    return law, np.concatenate([[0.0], scaled])


@PROPERTY
@given(RATIO, MU, DISCIPLINE, AGES)
def test_reference_cdf_is_a_cdf(ratio, mu, disc, ages):
    law, a = stage_and_ages(ratio, mu, disc, ages)
    cdf = an.cdf_reference(law)(a)
    assert np.all(np.isfinite(cdf))
    assert np.all(cdf >= -1e-12) and np.all(cdf <= 1.0 + 1e-12)
    assert np.all(np.diff(cdf) >= -1e-12)


@PROPERTY
@given(RATIO, MU, DISCIPLINE, AGES)
def test_density_is_finite_and_non_negative(ratio, mu, disc, ages):
    law, a = stage_and_ages(ratio, mu, disc, ages)
    pdf = an.pdf_paoi(law, a)
    assert np.all(np.isfinite(pdf)) and np.all(pdf >= 0.0)


@PROPERTY
@given(log_uniform(1e-2, 5e3), st.sampled_from([1.0, 5.0]), DISCIPLINE, AGES)
def test_quadrature_matches_the_reference_cdf(ratio, mu, disc, ages):
    law, a = stage_and_ages(ratio, mu, disc, ages)
    quad = an._quad_pdf(law, a)
    assert np.max(np.abs(quad - an.cdf_reference(law)(a))) <= 1e-12


def test_negative_float_age_is_rejected():
    with pytest.raises(ValueError):
        an._check_age(-1.0)
    with pytest.raises(ValueError):
        an.pdf_paoi(an.StageLaw(2.0, 1.0), -1.0)


@PROPERTY
@given(RATIO, MU)
def test_throughput_is_positive_and_below_the_service_rate(ratio, mu):
    assert 0.0 < an.stage_throughput(ratio * mu, mu) < mu


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.lists(RATIO, min_size=1, max_size=3), DISCIPLINE,
       st.floats(1.0, 200.0), st.integers(0, 2 ** 32 - 1))
def test_simulator_accounts_for_every_packet(ratios, disc, horizon, seed):
    out = qs.run(qs.QueueConfig(disc, 1.0, 10.0), ratios, horizon, seed)
    for c in out.stage_counters.values():
        assert c.arrivals == c.deliveries + c.drops + c.preemptions + c.in_system
        assert 0 <= c.in_system <= 2
    assert out.compute_arrivals == out.compute_delivered + out.compute_in_system
    again = qs.run(qs.QueueConfig(disc, 1.0, 10.0), ratios, horizon, seed)
    assert again.stage_counters == out.stage_counters
    for u in out.stage1:
        for a, b in ((again.stage1[u], out.stage1[u]), (again.e2e[u], out.e2e[u])):
            assert all(getattr(a, f).tobytes() == getattr(b, f).tobytes()
                       for f in ("times", "peaks", "post_ages"))


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def tiny_user_sweep():
    cfg = json.loads((CONFIG_DIR / "reference_sweep.json").read_text())
    cfg["sweep"].update(values=[2], replications=1, horizon_s=5)
    return cfg


CONFIGS = {"analytic": json.loads((CONFIG_DIR / "analytic_grid.json").read_text()),
           "sweep": tiny_user_sweep()}


def numeric_leaves(node, keys=()):
    """Key paths of every JSON number (list elements included) under ``node``."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from numeric_leaves(child, keys + (key,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield keys


def field_path(keys):
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys).lstrip(".")


LEAVES = [(command, keys) for command, cfg in CONFIGS.items() for keys in numeric_leaves(cfg)]
MALFORMED = [math.nan, math.inf, -math.inf, True, "1", -1, 0, 2.5, 10 ** 400]


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(st.sampled_from(LEAVES), st.sampled_from(MALFORMED))
def test_malformed_config_number_is_rejected_by_field_path(leaf, value):
    command, keys = leaf
    cfg = copy.deepcopy(CONFIGS[command])
    node = cfg
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            rc = cli.main([command, "--config", str(path), "--out", str(Path(tmp) / "out")])
    assert rc in (0, 3)
    if rc == 3:
        assert field_path(keys) in err.getvalue()
