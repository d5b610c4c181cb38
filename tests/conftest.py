import os
import sys
from pathlib import Path
from unittest import mock

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from dptraj import reader  # noqa: E402
from dptraj.model import LocationUniverse, load_db, write_db, write_universe  # noqa: E402
from oracles import records_db  # noqa: E402

# Small transit-style database used as a hand-checked oracle throughout the
# suite; expected values in tests were counted directly from these lines.
SAMPLE_LINES = [
    "L1 L2 L3",
    "L1 L2",
    "L3 L2 L1",
    "L1 L2 L4",
    "L1 L2 L3",
    "L3 L2",
    "L1 L2 L4 L1",
    "L3 L1",
]


@pytest.fixture()
def sample_file(tmp_path):
    path = tmp_path / "sample.txt"
    path.write_text("\n".join(SAMPLE_LINES) + "\n", encoding="utf-8")
    return path


@pytest.fixture()
def sample_universe_file(tmp_path):
    """The sample's tokens in first-appearance order, so L1..L4 get ids 0..3."""
    path = tmp_path / "sample-universe.txt"
    path.write_text("L1\nL2\nL3\nL4\n", encoding="utf-8")
    return path


@pytest.fixture()
def sample_db(sample_file, sample_universe_file):
    return load_db(str(sample_file), str(sample_universe_file))


def make_universe(size):
    return LocationUniverse(tuple(f"L{i}" for i in range(size)))


def load_split(rows, universe, cache_lines, directory):
    """``rows`` written to a file in ``directory``, read back with a ``cache_lines``-line cache.

    A small cache is cleared between repeats of a record, so the loaded
    database holds that record as several entries.
    """
    data = os.path.join(directory, "split.txt")
    universe_path = os.path.join(directory, "split-universe.txt")
    write_db(records_db(rows), universe, data)
    write_universe(universe, universe_path)
    with mock.patch.object(reader, "_CACHE_LINES", cache_lines):
        db, _ = load_db(data, universe_path)
    return db
