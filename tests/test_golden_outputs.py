"""The four shipped commands write the CSVs they have written since these digests were taken.

Each command runs in process on its shipped config, into a temporary
directory, and every CSV it writes is compared by full sha256 with the
recorded digest: a refactor that moves one bit of one cell fails here.
The bytes depend on the last bit of float64 math that differs between CPUs
and numpy builds (numpy's SIMD ``exp``, ``expm1`` and ``power``, libm's
``exp`` and ``log2``), so the test skips, and says so, where a fingerprint
of that math differs from the CPU the digests were taken on.
"""

import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from thzaoi import cli

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# command line (without --out) -> {file under --out: sha256}; "samples/" is the
# digest of the sorted "<name> <sha256>" lines of the exported sample files.  The
# sweep digests were last retaken when both disciplines of a cell began sharing one
# set of cycle draws under the FCFS seed, with LCFS's gaps on a substream of their
# own: the LCFS simulated columns and sample files moved, every FCFS byte did not
GOLDEN = {
    ("analytic", "analytic_grid.json"): {
        "analytic.csv": "8924485d2faf2abdc9e951a410a1bd2f3ec07061e4d72fbd138785083d3c363d",
    },
    ("sweep", "reference_sweep.json"): {
        "sweep.csv": "3aae2e7e3659c95d982598f3a2b4d57167513f2c85f6bddd398954f6e6934a3a",
        "sweep_aggregate.csv": "6f66c22962a328a980cb894ac6b015ffc09754257baf53db1f0bbf992fdac844",
    },
    ("sweep", "bandwidth_sweep.json", "--export-samples"): {
        "sweep.csv": "0596efb97c759de1e0cf27791a904a00653f4ee2d3fb90cb659e7d02d0887198",
        "sweep_aggregate.csv": "47259eda01391b45a6348bc6b61a484f44072c744e13a24a1aebe204044041dd",
        "samples/": "18053cd0e7c299c9816e3bcd79adada0465dd279f4ad6830df026cd0b8bbc21b",
    },
    ("validate", "analytic_grid.json"): {
        "lcfs_cdf_discrepancy.csv":
            "bc0145ce284cb539ee14a8a77843bedb4382f0901c749737aecbe85e3ff39dc3",
        "severity_deviation.csv":
            "a69d99dc5517fb3547f80a32b5f64d787e3b6866a1c5625271d603b97112639b",
    },
}
FLOAT_MATH_SHA256 = "b38b8402a24b3f5dbd8dafb6d209c66fb80f0bdd118345332b5742e54672ca6e"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def float_math_fingerprint() -> str:
    x = np.linspace(-700.0, 700.0, 8193)
    tables = [np.exp(x), np.expm1(x / 100.0),
              np.linspace(0.01, 0.99, 4096) ** (1.0 / np.arange(1, 4097)),
              np.array([math.exp(v) for v in x.tolist()]),
              np.array([math.log2(v) for v in np.geomspace(1.0, 1e12, 4097).tolist()])]
    return _sha256(b"".join(t.tobytes() for t in tables))


def written_digests(out: Path) -> dict:
    digests = {str(p.relative_to(out)): _sha256(p.read_bytes()) for p in out.rglob("*.csv")}
    samples = sorted(name for name in digests if name.startswith("samples/"))
    if samples:
        digests["samples/"] = _sha256("".join(f"{name} {digests.pop(name)}\n"
                                              for name in samples).encode())
    return digests


@pytest.mark.parametrize("command", list(GOLDEN), ids=lambda c: "-".join(c[:2]))
def test_shipped_command_writes_the_recorded_bytes(tmp_path, command):
    if float_math_fingerprint() != FLOAT_MATH_SHA256:
        pytest.skip("float64 exp/expm1/power/log2 round differently on this CPU or numpy "
                    "build than where the digests were taken")
    name, config, *flags = command
    argv = [name, "--config", str(CONFIG_DIR / config), *flags, "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    assert written_digests(tmp_path) == GOLDEN[command]
