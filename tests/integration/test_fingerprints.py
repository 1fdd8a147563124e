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
    "fallback-n4": "46da7df7f425ea94a5b2b686ab2552c6",
    "lossy20-n4": "5db6410f6c6c34fcd8cb5cce1aa211f4",
    "steady-n4": "fa438d284730ea09a10940de06533656",
    "steady-n16": "bed9ae10fa01b118ebe94dfacee9f0a7",
    "fallback-n64": "75beebb7803800c8f070471bf359e2a8",
    "steady-n64": "49f2b75685a1921022b4c2b33f6e0739",
    "steady-n256": "379a718d00304a17b24045d93579b433",
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
