"""Golden verdict table: the counts of every default sweep, frozen.

Each entry is ``[scanned, holds, hypothesis_not_met, counterexamples]`` of
``verify_corpus(tid)`` over ``DEFAULT_CORPORA[tid]``; any change to a kernel,
a corpus or the sweep engine that moves a single count fails here.
"""

import pytest

from domlab.theorems import THEOREMS
from domlab.verify import verify_corpus

GOLDEN = {
    "T1": [900, 900, 0, 0],
    "T2": [121, 121, 0, 0],
    "T3": [900, 324, 576, 0],
    "T4": [81, 81, 0, 0],
    "P1": [12113, 12113, 0, 0],
    "CHAIN": [12113, 12113, 0, 0],
    "UB3": [900, 900, 0, 0],
    "WCFACTOR": [900, 900, 0, 0],
    "G4CART": [121, 121, 0, 0],
    "PRISM": [12112, 12112, 0, 0],
    "BC": [996, 995, 1, 0],
    "DK": [900, 180, 720, 0],
    "L3G": [900, 900, 0, 0],
    "TV": [900, 900, 0, 0],
    "PX": [12112, 12112, 0, 0],
    "LK2": [12112, 12112, 0, 0],
    "L2P": [12113, 12113, 0, 0],
    "LK3": [12112, 12112, 0, 0],
    "LNE": [12113, 12113, 0, 0],
    "DIND": [81, 81, 0, 0],
    "DTOT": [81, 81, 0, 0],
    "DNE": [81, 36, 45, 0],
    "DKN": [81, 27, 54, 0],
    "E1": [81, 0, 81, 0],
    "TF11": [357, 357, 0, 0],
    "G5WD": [12113, 9, 12104, 0],
}

TF11_TAGS = ["C4", "C5", "C7", "H1", "H2", "H3", "H4", "K1", "K2", "P3-corona", "P4"]


def test_golden_covers_the_table():
    assert set(GOLDEN) == set(THEOREMS)


@pytest.mark.parametrize("tid", sorted(GOLDEN))
def test_default_sweep_counts(tid):
    report = verify_corpus(tid)
    counts = [report.scanned, report.holds, report.hypothesis_not_met,
              report.counterexample_count]
    assert counts == GOLDEN[tid]
    if tid == "TF11":
        assert report.details == {"members": len(TF11_TAGS), "member_tags": TF11_TAGS}
    else:
        assert report.details == {}
