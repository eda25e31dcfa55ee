"""Golden-vector suite: every fixture must reproduce its hand-derived vector."""

import pytest

from ontoprof import extract_all, parse_ontology
from ontoprof.schema import FEATURE_IDS

from golden_data import DEGENERATE, DEGENERATE_DIR, GOLDEN, GOLDEN_DIR, expected_vector, zero_vector

RATIO_TOL = 1e-9


def load(path):
    return parse_ontology(path.read_text(encoding="utf-8"), origin=str(path))


def assert_vector_matches(actual, expected, label):
    mismatches = []
    for fid in FEATURE_IDS:
        want = expected[fid]
        got = actual[fid]
        if isinstance(want, str):
            ok = got == want
        elif isinstance(want, int) and isinstance(got, int):
            ok = got == want
        else:
            ok = abs(got - want) <= RATIO_TOL
        if not ok:
            mismatches.append(f"{fid}: expected {want!r}, got {got!r}")
    assert not mismatches, f"{label}: " + "; ".join(mismatches)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_vector(name):
    onto = load(GOLDEN_DIR / f"{name}.ofn")
    assert 5 <= len(onto.axioms) <= 30
    assert_vector_matches(extract_all(onto), expected_vector(name), name)


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_degenerate_vector(name):
    onto = load(DEGENERATE_DIR / f"{name}.ofn")
    expected = zero_vector()
    expected.update(DEGENERATE[name])
    assert_vector_matches(extract_all(onto), expected, name)


def test_golden_corpus_is_large_enough():
    assert len(GOLDEN) >= 10


@pytest.mark.parametrize("name", sorted(GOLDEN) + sorted(DEGENERATE))
def test_golden_vectors_also_match_oracles(name):
    import random
    from equivalence import check_against_oracles, check_invariance

    directory = GOLDEN_DIR if name in GOLDEN else DEGENERATE_DIR
    onto = load(directory / f"{name}.ofn")
    check_against_oracles(onto)
    check_invariance(onto, random.Random(hash(name) & 0xFFFF))
