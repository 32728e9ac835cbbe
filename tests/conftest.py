"""Fixtures and helpers shared by the test modules."""

import csv
import math
import shutil
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"


def read_csv_rows(path):
    with path.open(newline="") as handle:
        return list(csv.DictReader(handle))


@pytest.fixture
def mini_store(tmp_path):
    """A copy of the bundled replay store in the test's own directory: a replay
    open writes its index beside the store it reads, so the source tree stays
    clean, and each test starts with no index."""
    store = tmp_path / "mini_store.jsonl"
    shutil.copyfile(FIXTURES / "mini_store.jsonl", store)
    return store


def overtake_streams():
    """Streams of (label, confidence) on which a drawn competitor overtakes the
    top while the screen's floor holds: by one hair (one ulp of confidence
    above the top's), on an exact tie, and under a fixed K of 8 only, where
    its larger count outweighs the top's one confident sample."""
    hair = math.nextafter(0.9, 1.0)
    return [
        [("a", 0.9), ("a", 0.9), ("b", 0.9), ("b", hair), ("a", 0.6), ("c", 0.5), ("b", 0.7), ("a", 0.9)],
        [("a", 0.8), ("b", 0.8), ("a", 0.7), ("b", 0.7), ("a", 0.6), ("b", 0.4), ("b", 0.9), ("a", 0.9)],
        [("a", 0.95)] + [("b", 0.3)] * 5 + [("a", 0.5), ("b", 0.3)],
    ]


def overflow_streams():
    """Streams of (label, confidence) on which the tracked top is drawn at
    5e-324, a loss of ~744 nats whose e^(-gap) overflows: right after its
    first draw set the bounds, and after a read that a new label forced."""
    tiny = 5e-324
    return [
        [("a", 0.9), ("a", tiny), ("a", 0.9), ("b", 0.6), ("a", 0.9), ("b", 0.9), ("a", 0.9), ("a", 0.9)],
        [("a", 0.9), ("b", 0.6), ("a", tiny), ("b", 0.9), ("b", 0.9), ("a", 0.9), ("b", 0.9), ("b", 0.9)],
    ]
