"""The capacity frontier: how far `drive --count 20000` gets on each instance
at the default caps, and why a run stops.  Counters decide it, not time."""

import hashlib
import re

import pytest

from miflab import LimitGroup
from miflab import mif_search as ms

COUNT = 20_000

# (p, c): rows reached, run complete, stop (cap, index set), index-set
# tables built, widest window table built
FRONTIER = {
    (2, "n"): (20_000, True, None, 9, 3),
    (3, "n"): (20_000, True, None, 5, 2),
    (5, "n"): (12_566, False, ("max_cosets", "index set {0,4}"), 4, 2),
    (3, "2"): (20_000, True, None, 5, 2),
    (2, "2"): (20_000, True, None, 9, 3),
    (2, "1,3"): (20_000, True, None, 9, 3),
    (2, "1,2"): (20_000, True, None, 9, 3),
}

# the SHA-256 of the `drive(3000)` log of (2, "n"), as tests/test_mif_search.py pins it
DRIVE_3000_SHA256 = "5a2e044a18f30e449172731724e469eac0c0ec4e4ef841a7db6da8c7715b644b"

_INDEX_SET = re.compile(r"index set \{[-\d,]+\}|window -?\d+\.\.-?\d+")


def _stop(reason):
    """The cap and the first index set a drive's stop reason names; None if
    the run is complete."""
    if reason is None:
        return None
    cap = "max_window_width" if "the configured bound" in reason else "max_cosets"
    found = _INDEX_SET.search(reason)
    return cap, found and found.group()


@pytest.fixture(scope="module")
def frontier():
    """The drive of an instance, run once for the tests of this module."""
    runs = {}

    def run(p, c):
        if (p, c) not in runs:
            group = LimitGroup(p, c)
            runs[p, c] = group, ms.drive(group, COUNT)
        return runs[p, c]

    return run


@pytest.mark.parametrize("p,c", sorted(FRONTIER))
def test_drive_frontier(frontier, p, c):
    group, result = frontier(p, c)
    rows, complete, stop, sets, widest = FRONTIER[p, c]
    assert (len(result.certificates), result.complete, _stop(result.reason)) == (rows, complete, stop)
    assert all(cert.status == ms.WITNESS_FOUND for cert in result.certificates)
    assert (len(group.index_set_tables()), max(group.cached_tables())) == (sets, widest)


def test_the_refusal_names_the_index_set_and_its_retract(frontier):
    _, result = frontier(5, "n")
    assert result.reason == (
        "live coset count would exceed max_cosets=1000000 for index set {0,4} (p=5, c=n): "
        "200000 cosets of B(0..0) (order 5) were live in B({0,4})"
    )


def test_the_frontier_run_keeps_the_pinned_rows(frontier):
    group, result = frontier(2, "n")
    head = ms.DriveResult(result.certificates[:3000], None, result.bounds)
    lines = ms.certificates_to_lines(head, group)
    assert hashlib.sha256(lines.encode()).hexdigest() == DRIVE_3000_SHA256


@pytest.mark.parametrize("p,c", [(2, "n"), (3, "n")])
def test_verify_accepts_the_frontier_logs(frontier, p, c):
    group, result = frontier(p, c)
    report = ms.verify_certificates(ms.certificates_to_lines(result, group))
    assert report.ok and report.checked == report.witnesses_ok == COUNT
