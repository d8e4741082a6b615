"""Golden trace digests: every registry workload, byte for byte.

``trace_digests.json`` holds one SHA-256 per registry workload, scale,
seed and input set.  The digests were recorded with the per-event
generator implementation that predates column blocks, so any change to
trace generation that moves a single draw, page or cycle fails here.
Never regenerate the file to make this test pass: a mismatch means the
traces changed.

Run ``PYTHONPATH=src python tests/workloads/test_trace_digests.py`` to
print the digests of the current implementation as JSON.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from array import array
from pathlib import Path
from typing import Dict

import pytest

from repro.sim.tracecache import materialize
from repro.workloads.registry import WORKLOAD_NAMES, build_workload

GOLDEN = Path(__file__).with_name("trace_digests.json")
SCALES = (8, 16)
SEEDS = (0, 7)
INPUT_SETS = ("train", "ref")


def _le_bytes(column: array) -> bytes:
    if sys.byteorder == "big":
        column = array(column.typecode, column)
        column.byteswap()
    return column.tobytes()


def trace_digest(name: str, scale: int, seed: int, input_set: str) -> str:
    """SHA-256 of one trace: its length, then its three int64 columns."""
    trace = materialize(build_workload(name, scale=scale), seed=seed, input_set=input_set)
    digest = hashlib.sha256(str(len(trace)).encode())
    for column in (trace.instructions, trace.pages, trace.cycles):
        digest.update(_le_bytes(column))
    return digest.hexdigest()


def current_digests(name: str) -> Dict[str, str]:
    return {
        f"{name}|{scale}|{seed}|{input_set}": trace_digest(name, scale, seed, input_set)
        for scale in SCALES
        for seed in SEEDS
        for input_set in INPUT_SETS
    }


@pytest.fixture(scope="module")
def golden() -> Dict[str, str]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_registry(golden):
    expected = {
        f"{name}|{scale}|{seed}|{input_set}"
        for name in WORKLOAD_NAMES
        for scale in SCALES
        for seed in SEEDS
        for input_set in INPUT_SETS
    }
    assert set(golden) == expected


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_trace_matches_golden_digest(name, golden):
    for key, digest in current_digests(name).items():
        assert digest == golden[key], key


@pytest.mark.parametrize("name", ["mcf", "lbm", "bwaves", "deepsjeng", "exchange2"])
def test_lazy_trace_equals_materialized_columns(name):
    """``Workload.trace`` yields exactly the materialized events."""
    workload = build_workload(name, scale=16)
    for input_set in INPUT_SETS:
        trace = materialize(workload, seed=7, input_set=input_set)
        assert list(workload.trace(seed=7, input_set=input_set)) == list(trace)


def _widths():
    widths = set(range(1, 70))
    for bits in range(1, 21):
        widths.update({(1 << bits) - 1, 1 << bits, (1 << bits) + 1})
    widths.update({1000, 12_345, 99_999, 1 << 20})
    return sorted(w for w in widths if 1 <= w <= 1 << 20)


@pytest.mark.parametrize("seed", [0, 1, 42, "3/7/ref"])
def test_bounded_draw_matches_randrange(seed):
    """The generators' bounded draw is ``Random.randrange``, draw for draw."""
    from repro.workloads.synthetic import draw_below

    ours = random.Random(seed)
    theirs = random.Random(seed)
    for width in _widths():
        for lo in (0, -width // 2, 17):
            for _ in range(3):
                assert lo + draw_below(ours, width) == theirs.randrange(lo, lo + width)
    assert ours.getstate() == theirs.getstate()


if __name__ == "__main__":
    out: Dict[str, str] = {}
    for workload_name in WORKLOAD_NAMES:
        out.update(current_digests(workload_name))
    print(json.dumps(out, indent=1, sort_keys=True))
