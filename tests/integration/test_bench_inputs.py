"""The benchmark inputs ``benchmarks/bench_micro.py`` generates, frozen.

perfbench's ``archive`` workload loads that file by path and imports a
seeded synthetic SWF archive onto ``large_cluster_platforms(64)``; the
``stream`` and ``queue`` smoke steps import a 50,000-row archive from
it. If either helper's output moved, ``archive`` results from two
commits would measure different inputs. The digests were computed once
and are never regenerated: a mismatch means the inputs changed.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

MODULE_PATH = (Path(__file__).resolve().parents[2]
               / "benchmarks" / "bench_micro.py")

# (rows, seed) -> SHA-256 of the written file. 461296 is the archive
# seed perfbench derives from benchmark seed 7 (``derive(7,
# "archive.swf")``), at the full size's 6,000 rows; (1,000, 0) is its
# warm-up archive; (50,000, 0) is what the smoke steps import.
SWF_DIGESTS = {
    (6_000, 461296):
        "4d6041a0b302d27493662de00a5e0c5763409ced4501aafafe68aaeebe92513b",
    (1_000, 0):
        "4646571e36134e4d34b3e6e1efcd6c97b965b2373c73c69f44840917c10a0088",
    (50_000, 0):
        "e9f88da05c666e52d46b2cf8ffc51b3b18a29e18953753d6b25eee8449bb8d77",
}


@pytest.fixture(scope="module")
def bench_micro():
    """The module, loaded by path as ``perfbench/workloads.py`` loads it."""
    spec = importlib.util.spec_from_file_location("bench_micro", MODULE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("rows,seed", sorted(SWF_DIGESTS))
def test_write_synthetic_swf_bytes(bench_micro, tmp_path, rows, seed):
    path = tmp_path / "archive.swf"
    bench_micro.write_synthetic_swf(str(path), rows, seed=seed)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        SWF_DIGESTS[rows, seed]


def test_large_cluster_platforms(bench_micro):
    platforms = bench_micro.large_cluster_platforms(64)
    assert [(p.name, p.capacity, p.base_speed) for p in platforms] == \
        [("cpu", 6144, 1.0), ("gpu", 2048, 2.0)]
