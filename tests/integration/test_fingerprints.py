"""The "same behaviour" contract: the seven recorded simulator fingerprints.

Each ``bench_simcore`` scenario digests its full commit trace and protocol
counters into a 32-hex fingerprint (see ``benchmarks/bench_simcore.py``).
A refactor that leaves the simulator's behaviour unchanged leaves every
fingerprint byte-identical to the one recorded in ``BENCH_simcore.json``.
The n <= 16 scenarios run in tier-1; the n >= 64 ones are marked ``scale``
and run in CI's ``scale-smoke`` job.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[2]
_BENCHMARKS = _ROOT / "benchmarks"
if str(_BENCHMARKS) not in sys.path:
    sys.path.insert(0, str(_BENCHMARKS))

from bench_simcore import run_scenario  # noqa: E402

#: Scenario -> fingerprint at seed 1, as last recorded in BENCH_simcore.json.
FINGERPRINTS = {
    "fallback-n4": "77d4e90d89a97c4d8f8a435c8a2f8717",
    "lossy20-n4": "462b5b7a679ee3f76d54c9c9a6efa967",
    "steady-n4": "173e7e636bb2cd1e36f5f1a4534654a5",
    "steady-n16": "94afe853c45ff182ebf9b18ce4cdfd5b",
    "fallback-n64": "2f6216abec2b0adbcf0a972e6481be69",
    "steady-n64": "da3832fa81673fc0e057d17043d1b04a",
    "steady-n256": "10b8900c05c240dcf29b5db3ec50ea4f",
}

SCALE = {"fallback-n64", "steady-n64", "steady-n256"}


def test_pinned_fingerprints_match_the_latest_record():
    record = json.loads((_ROOT / "BENCH_simcore.json").read_text())[-1]
    recorded = {
        entry["scenario"]: entry["fingerprint"]
        for entry in record["results"]
        if entry["seed"] == 1
    }
    assert recorded == FINGERPRINTS


@pytest.mark.parametrize(
    "scenario",
    [
        pytest.param(name, marks=pytest.mark.scale) if name in SCALE else name
        for name in FINGERPRINTS
    ],
)
def test_fingerprint_is_byte_identical(scenario):
    assert run_scenario(scenario, seed=1)["fingerprint"] == FINGERPRINTS[scenario]
