"""The ``backend`` argument of :func:`~repro.harness.run_cells`.

``--workers`` alone picks the in-process loop or the spawn pool;
``backend`` survives only as ``None`` or ``"serial"``:

* ``backend="serial"`` runs the cells in process, whatever ``workers``
  says, with rows byte-identical to ``workers=1``;
* any other name, the retired ``"pool"`` and ``"queue"`` included, is a
  ``ValueError`` naming it.
"""

import json

import pytest

from repro.core import CoreConfig
from repro.harness import BaselineFactory, EvalCell, run_cells, standard_scenario


def small_cells():
    scenario = standard_scenario(
        load=0.6, horizon=20, cpu_capacity=8, gpu_capacity=4,
        core=CoreConfig(queue_slots=3, running_slots=2, horizon=6),
        max_ticks=80)
    return [EvalCell("base", scenario, name, BaselineFactory(name),
                     trace_index=0, trace_seed=1000, max_ticks=80)
            for name in ("edf", "fifo")]


def rows_bytes(reports) -> str:
    return json.dumps([r.as_dict() for r in reports], sort_keys=True)


class TestBackendParity:
    def test_string_backend_spec_accepted(self):
        cells = small_cells()
        assert rows_bytes(run_cells(cells, workers=2, backend="serial")) \
            == rows_bytes(run_cells(cells, workers=1))


class TestMakeBackend:
    def test_unknown_name_rejected(self):
        cells = small_cells()
        for backend in ("pool", "queue", "mesh"):
            with pytest.raises(ValueError, match=f"backend {backend!r}"):
                run_cells(cells, workers=2, backend=backend)
