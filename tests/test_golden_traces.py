"""The runtime reproduces the committed golden trace fingerprints.

``tests/golden/traces.json`` pins the full- and milestone-mode trace
fingerprint and the ``events_executed`` gauge of every run in a fixed
matrix (E1 fault kinds, the E17/E19 engine scenarios, the E22 geo
deployments, a delivery-hook run and the corpus replays); see
``tools/golden.py``. Rows above 100 nodes are checked by E19 only.
"""

import pytest

from tools import golden

#: Rows this large run in E19, not in the tier-1 suite.
MAX_NODES = 99

ROWS = [row for row in golden.load() if golden.nodes_of(row) <= MAX_NODES]


def test_table_covers_the_matrix():
    """The committed table and the generator describe the same runs."""
    described = [{k: v for k, v in row.items()
                  if k not in ("fingerprint", "events_executed")}
                 for row in golden.load()]
    assert described == golden.matrix()


@pytest.mark.parametrize("row", ROWS, ids=[row["id"] for row in ROWS])
def test_run_matches_golden_row(row):
    fingerprint, events = golden.run_row(row)
    assert fingerprint == row["fingerprint"]
    assert events == row["events_executed"]
