"""A served energy equals the in-process one bit for bit.

Frames are written with sorted keys, so a client reads ``memory_pj`` in
another order than :class:`~repro.energy.energy_model.EnergyModel`
inserts it, and ``EnergyReport.total_pj`` sums in that order. The client
restores the machine's order, so ``total_pj`` (not just each entry)
matches the in-process engine for every mapping.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import connect
from repro.dse.mapper import MapperConfig, TemporalMapper
from repro.engine import EvaluationEngine
from repro.hardware.presets import case_study_accelerator, inhouse_accelerator
from repro.serve import ServerConfig
from repro.workload.generator import dense_layer
from tests.serve.conftest import ServerThread

PRESETS = {"case-study": case_study_accelerator(), "in-house": inhouse_accelerator()}


@pytest.fixture(scope="module")
def clients():
    """One daemon and one client per preset, for every example."""
    handles = {name: ServerThread(ServerConfig(preset=p)).start() for name, p in PRESETS.items()}
    clients = {name: connect(handle.url) for name, handle in handles.items()}
    yield clients
    for name, handle in handles.items():
        clients[name].close()
        handle.stop()


def _energies(evaluator, mappings):
    return [
        (r.energy.total_pj, list(r.energy.memory_pj.items()))
        for r in evaluator.evaluate_many(mappings, with_energy=True)
        if r is not None
    ]


@settings(max_examples=24, deadline=None)
@given(
    name=st.sampled_from(sorted(PRESETS)),
    k=st.sampled_from([16, 32, 64, 96]),
    c=st.sampled_from([8, 32, 64, 128]),
    b=st.sampled_from([50, 60, 300, 1200]),
    seed=st.integers(0, 3),
)
def test_served_energy_equals_in_process_energy(clients, name, k, c, b, seed):
    preset = PRESETS[name]
    mappings = list(TemporalMapper(
        preset.accelerator, preset.spatial_unrolling,
        MapperConfig(max_enumerated=24, samples=24, seed=seed),
    ).mappings(dense_layer(k, c, b)))
    local = _energies(EvaluationEngine.from_preset(preset), mappings)
    assert _energies(clients[name], mappings) == local
