"""Fixtures and helpers shared by the test modules."""

import csv
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
