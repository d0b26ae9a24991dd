"""Frozen digests of the trace normalizer's output.

The normalizer's behavioural oracle. Each group (input x config) is one
SHA-256 over both platform sets x every seed of

* the canonical payload of the jobs normalized with an
  :class:`~repro.workload.ingest.IngestStats` attached,
* the filled stats (selection and clamp counts),
* the payload of the same normalization without stats (the scan that
  stops at the ``max_jobs`` cap).

``normalize_records`` (any input order) and ``stream_normalize`` (input
sorted by the record order) must both reproduce every digest. The
digests were frozen under the numpy version pinned in
``requirements-ci.txt``: a mismatch is a behaviour change of the
normalizer, never a digest to regenerate.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.sim.platform import Platform
from repro.workload.ingest import (
    ALIBABA_LIKE_SPEC,
    IngestConfig,
    IngestStats,
    RawJobRecord,
    columnar_fixture_path,
    normalize_records,
    parse_columnar,
    parse_swf,
    stream_normalize,
    swf_fixture_path,
)
from repro.workload.ingest.normalize import _record_order
from repro.workload.traces import trace_payload


def rec(job_id, submit, run=600.0, procs=4, status=1):
    return RawJobRecord(job_id=job_id, submit_time=submit, run_time=run,
                        processors=procs, status=status)


RECORDS = [rec(i, i * 120.0, run=300.0 + 60 * (i % 5), procs=1 << (i % 5))
           for i in range(40)]

CONFIGS = {
    "default": IngestConfig(),
    "load": IngestConfig(tick_seconds=120.0, target_load=0.8),
    "subsample-load": IngestConfig(tick_seconds=60.0, subsample=0.5,
                                   target_load=0.7, seed=2),
    "window-cap": IngestConfig(tick_seconds=30.0, window=(1000.0, 60000.0),
                               max_jobs=20),
    "status-width": IngestConfig(include_statuses=(1,),
                                 max_parallelism_cap=8),
    "every-knob": IngestConfig(tick_seconds=60.0, subsample=0.3,
                               window=(500.0, 90000.0), max_jobs=15,
                               target_load=0.9, seed=5),
}

SEEDS = (None, 0, 1, 7, 123)

PLATFORM_SETS = (
    (Platform("cpu", 16, 1.0), Platform("gpu", 6, 1.0)),
    (Platform("cpu", 32, 1.0),),
)


def load_input(name):
    """The raw records of one input, in the order they are offered."""
    if name == "records":
        return list(RECORDS)
    if name == "columnar":
        return parse_columnar(columnar_fixture_path(), ALIBABA_LIKE_SPEC)[1]
    records = parse_swf(swf_fixture_path())[1]
    if name == "swf-shuffled":
        order = np.random.default_rng(20).permutation(len(records))
        records = [records[i] for i in order]
    return records


def materialized(records, config, platforms, seed, stats):
    return normalize_records(records, config, platforms, seed=seed,
                             stats=stats)


def streamed(records, config, platforms, seed, stats):
    ordered = sorted(records, key=_record_order)
    return list(stream_normalize(lambda: iter(ordered), config, platforms,
                                 seed=seed, stats=stats))


PATHS = {"normalize_records": materialized, "stream_normalize": streamed}


def group_digest(normalize, input_name, config_name):
    records = load_input(input_name)
    config = CONFIGS[config_name]
    h = hashlib.sha256()
    for platforms in PLATFORM_SETS:
        for seed in SEEDS:
            stats = IngestStats()
            jobs = normalize(records, config, list(platforms), seed, stats)
            h.update(json.dumps(trace_payload(jobs), sort_keys=True).encode())
            h.update(json.dumps(stats.as_dict(), sort_keys=True).encode())
            jobs = normalize(records, config, list(platforms), seed, None)
            h.update(json.dumps(trace_payload(jobs), sort_keys=True).encode())
    return h.hexdigest()


#: ``"<input>/<config>" -> digest``, frozen from the implementation
#: before ``normalize_records`` became sort + ``stream_normalize``.
DIGESTS = {
    "records/default":
        "43a99e19b63127500997090064818b97dbec892b2ada46ecf5c37d1f04052a66",
    "records/load":
        "fcf07b4e2b726f0d5457a0c9de93624a58d4877f3bd77406f894fea98163b495",
    "records/subsample-load":
        "f9c1c91830e9748a0887eb104a1250f5c5d99f06a7b0eab1cb2d46783b414ce5",
    "records/window-cap":
        "20afe6b57bbd02eef1bdde1d3043e00295569558994908d3f4d7ea54acbcf1e9",
    "records/status-width":
        "19ed7452c998a216d2ef512e230c5e0ebbb06f1b47495b8f8f52ed322439eb3a",
    "records/every-knob":
        "d64e9dbdd7a2a82c7ff5119ffbe96ae64b326700f74d6558eb9926aa98d52dff",
    "swf/default":
        "953951a572e53bb2de2f9e02d56abe2614f786600df2cf92ea9a67b46617e867",
    "swf/load":
        "35c359c8f27ea1c97348851a5d329430612e4accfe68c39d6d341d81f0b08fe1",
    "swf/subsample-load":
        "9e26e731fdf44ca2579302bdf3d447f37af8c4e2671d461dfdba7277445a689a",
    "swf/window-cap":
        "36390aeea268a3e886a43089af5108f1eca23255d39a3965b73f676f927cee00",
    "swf/status-width":
        "04f4cf24ac354b164b13b614c986765916c22da824f797941661bf787dea1d87",
    "swf/every-knob":
        "2b51d6f1f311ce169a8d0ed62f13748c44a897707bda2f5c0bb472cbbf1e22aa",
    "swf-shuffled/default":
        "953951a572e53bb2de2f9e02d56abe2614f786600df2cf92ea9a67b46617e867",
    "swf-shuffled/load":
        "35c359c8f27ea1c97348851a5d329430612e4accfe68c39d6d341d81f0b08fe1",
    "swf-shuffled/subsample-load":
        "9e26e731fdf44ca2579302bdf3d447f37af8c4e2671d461dfdba7277445a689a",
    "swf-shuffled/window-cap":
        "36390aeea268a3e886a43089af5108f1eca23255d39a3965b73f676f927cee00",
    "swf-shuffled/status-width":
        "04f4cf24ac354b164b13b614c986765916c22da824f797941661bf787dea1d87",
    "swf-shuffled/every-knob":
        "2b51d6f1f311ce169a8d0ed62f13748c44a897707bda2f5c0bb472cbbf1e22aa",
    "columnar/default":
        "d36dd17244f1f35b3c85821c1ad9d3120c29fd296e1986bd67b2db4ad7d93a1a",
    "columnar/load":
        "87437c6a22dccc6ba154a36dbd98bd452fd5250703f64ca349b4b0e69d046f7d",
    "columnar/subsample-load":
        "f078fc7129d72bab996e57472af468c972f72e5a501983ebad480632f637079f",
    "columnar/window-cap":
        "fd63e9a088cdac58d29c0d4c14880051c755778da12200c4d89938d3e7c80416",
    "columnar/status-width":
        "ffdcc844c3045575ed117583f37c8a504c237c3dcf27d3a68e7aa54f6e345660",
    "columnar/every-knob":
        "3ad093da866a5031fb2810060bbbb06d960b1a760b30f6b9245f35c053fe3975",
}


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("group", sorted(DIGESTS))
def test_normalizer_digest(group, path):
    input_name, config_name = group.split("/")
    got = group_digest(PATHS[path], input_name, config_name)
    assert got == DIGESTS[group], (
        f"{path} digest mismatch for group {group!r} under numpy "
        f"{np.__version__}: the normalizer's output changed")


def test_every_input_and_config_is_pinned():
    inputs = ("records", "swf", "swf-shuffled", "columnar")
    assert sorted(DIGESTS) == sorted(f"{i}/{c}" for i in inputs
                                     for c in CONFIGS)
