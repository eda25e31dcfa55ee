"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import random
import shutil
import time

import pytest

from ontoprof import (
    OntologyParseError, ProfileLabel, dl_family_name, extract_all, owl_profile,
    parse_ontology, serialize,
)
from ontoprof.features import FEATURE_IDS
from ontoprof.runner import RunConfig, emit_matrix, run

from equivalence import check_against_oracles, check_invariance
from gen import random_ontology
from golden_data import DEGENERATE_DIR, GOLDEN, GOLDEN_DIR, expected_vector
from test_golden import assert_vector_matches
from test_parser import MALFORMED

RATIO_TOL = 1e-9
N_RANDOM = 1000


@pytest.fixture(scope="module")
def random_corpus():
    rng = random.Random(0xC0FFEE)
    return [random_ontology(rng) for _ in range(N_RANDOM)]


@pytest.fixture(scope="module")
def every_form_corpus():
    """Random ontologies that also use the non-logical axiom forms, every
    data range and every data restriction."""
    rng = random.Random(0xF0F0)
    return [random_ontology(rng, every_form=True) for _ in range(N_RANDOM)]


@pytest.fixture(scope="module")
def golden_ontologies():
    out = {}
    for name in sorted(GOLDEN):
        text = (GOLDEN_DIR / f"{name}.ofn").read_text(encoding="utf-8")
        out[name] = parse_ontology(text, origin=f"{name}.ofn")
    return out


def test_criterion_1_golden_vectors(golden_ontologies):
    assert len(golden_ontologies) >= 10
    family_kb = golden_ontologies["family_kb"]
    family_kb_types = {ax.axiom_type for ax in family_kb.axioms}
    # every textbook axiom form is present
    assert {"SubClassOf", "EquivalentClasses", "EquivalentObjectProperties",
            "SubObjectPropertyOf", "InverseObjectProperties",
            "TransitiveObjectProperty", "FunctionalObjectProperty",
            "InverseFunctionalObjectProperty", "ClassAssertion",
            "ObjectPropertyAssertion", "SameIndividual",
            "DifferentIndividuals"} <= family_kb_types
    started = time.perf_counter()
    for name, onto in golden_ontologies.items():
        assert 5 <= len(onto.axioms) <= 30
        assert_vector_matches(extract_all(onto), expected_vector(name), name)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"golden suite took {elapsed:.3f}s"
    print(f"\n[criterion 1] PASS: {len(golden_ontologies)} golden vectors exact "
          f"(counts) / 1e-9 (ratios) in {elapsed * 1000:.0f} ms")


def test_criterion_2_formula_spot_checks(golden_ontologies):
    chain = extract_all(golden_ontologies["chain3"])
    assert chain["CCOH"] == pytest.approx(1.0, abs=RATIO_TOL)
    opcoh = extract_all(golden_ontologies["oprop_cohesion"])
    assert opcoh["OPCOH"] == pytest.approx(1.0, abs=RATIO_TOL)
    occd = extract_all(golden_ontologies["occd"])
    assert occd["OCCD"] == pytest.approx(2 / 3, abs=RATIO_TOL)
    opcf = extract_all(golden_ontologies["opcf"])
    assert opcf["OPCF_Transitive"] == 0.8
    assert opcf["OPCF_Symmetric"] == 0.2
    print("\n[criterion 2] PASS: CCOH=1.0, OPCOH=1.0, OCCD=2/3, OPCF=0.8/0.2")


def test_criterion_3_frequency_closure(golden_ontologies, random_corpus):
    from ontoprof.model import CLASS_CONSTRUCTORS, LOGICAL_AXIOM_TYPES
    from ontoprof.features import PROPERTY_CHARACTERISTICS

    checked = 0
    for onto in list(golden_ontologies.values()) + random_corpus:
        v = extract_all(onto)
        if v["SLA"] > 0:
            checked += 1
            assert sum(v[f"ATF_{t}"] for t in LOGICAL_AXIOM_TYPES) == pytest.approx(
                1.0, abs=RATIO_TOL)
            assert v["RTBx"] + v["RRBx"] + v["RABx"] == pytest.approx(1.0, abs=RATIO_TOL)
        ccf_sum = sum(v[f"CCF_{c}"] for c in CLASS_CONSTRUCTORS)
        if ccf_sum:
            assert ccf_sum == pytest.approx(1.0, abs=RATIO_TOL)
        opcf_sum = sum(v[f"OPCF_{c}"] for c in PROPERTY_CHARACTERISTICS)
        if opcf_sum:
            assert opcf_sum == pytest.approx(1.0, abs=RATIO_TOL)
    print(f"\n[criterion 3] PASS: frequency families close to 1 +/- 1e-9 on "
          f"{checked} ontologies with SLA > 0")


def test_criterion_4_oracle_equivalence(random_corpus, every_form_corpus):
    for onto in random_corpus + every_form_corpus:
        check_against_oracles(onto)
    print(f"\n[criterion 4] PASS: {len(random_corpus) + len(every_form_corpus)} random "
          f"ontologies match the naive re-traversal oracles (incl. reachability and cycles)")


def test_criterion_5_invariance(random_corpus, every_form_corpus):
    rng = random.Random(0xFACADE)
    for onto in random_corpus + every_form_corpus:
        check_invariance(onto, rng)
    print(f"\n[criterion 5] PASS: permutation and renaming leave all "
          f"{len(FEATURE_IDS)} features unchanged on "
          f"{len(random_corpus) + len(every_form_corpus)} ontologies")


def test_criterion_6_round_trip_and_malformed(golden_ontologies, random_corpus,
                                              every_form_corpus):
    for name, onto in golden_ontologies.items():
        assert parse_ontology(serialize(onto)) == onto, name
    for onto in random_corpus + every_form_corpus:
        assert parse_ontology(serialize(onto)) == onto
    assert len(MALFORMED) >= 20
    for text in MALFORMED:
        with pytest.raises(OntologyParseError) as exc:
            parse_ontology(text, origin="bad.ofn")
        assert exc.value.diagnostics
        for diag in exc.value.diagnostics:
            assert diag.severity == "error"
            assert diag.line >= 1 and diag.column >= 1
    print(f"\n[criterion 6] PASS: round-trip equality on "
          f"{len(golden_ontologies) + len(random_corpus) + len(every_form_corpus)} ontologies; "
          f"{len(MALFORMED)} malformed inputs all positioned, no partial models")


def test_criterion_7_determinism_and_parallelism(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for f in sorted(GOLDEN_DIR.glob("*.ofn")):
        shutil.copy(f, corpus / f.name)

    def matrix(jobs):
        report = run(RunConfig(inputs=[str(corpus)], parallelism=jobs,
                               per_file_timeout=120))
        assert report.totals["ok"] == len(GOLDEN)
        return emit_matrix(report.vectors())

    serial = matrix(1)
    parallel = matrix(8)
    again = matrix(1)
    assert serial == parallel
    assert serial == again
    print(f"\n[criterion 7] PASS: jobs=1 and jobs=8 byte-identical CSV "
          f"({len(serial)} bytes); consecutive runs byte-identical")


def test_criterion_8_degenerate_totality(golden_ontologies):
    cases = {
        "empty": parse_ontology((DEGENERATE_DIR / "empty.ofn").read_text()),
        "single_class": parse_ontology((DEGENERATE_DIR / "single_class.ofn").read_text()),
        "abox_only": golden_ontologies["abox_only"],
        "cyclic_hierarchy": golden_ontologies["cycles"],
    }
    for label, onto in cases.items():
        vector = extract_all(onto)
        assert set(vector.values) == set(FEATURE_IDS), label
        for fid in FEATURE_IDS:
            value = vector[fid]
            if not isinstance(value, str):
                assert value == value and value >= 0, f"{label}:{fid} = {value!r}"
    empty = extract_all(cases["empty"])
    assert all(v == 0 for k, v in empty.items() if k not in ("OPR", "DFN"))
    assert empty["OPR"] == "PFULL" and empty["DFN"] == "AL"
    print("\n[criterion 8] PASS: empty, single-class, assertions-only and "
          "cyclic-hierarchy inputs yield complete vectors (decision-rule zeros)")


def test_criterion_9_expressivity(golden_ontologies):
    assert dl_family_name(golden_ontologies["family_kb"]).value == "SHIF"
    assert owl_profile(golden_ontologies["profiles_ql"]) is ProfileLabel.QL  # tie-break
    assert owl_profile(golden_ontologies["chain3"]) is ProfileLabel.PFULL
    assert owl_profile(golden_ontologies["pnan"]) is ProfileLabel.PNAN
    assert owl_profile(golden_ontologies["occd"]) is ProfileLabel.DL
    assert owl_profile(golden_ontologies["el_chain"]) is ProfileLabel.EL
    assert owl_profile(golden_ontologies["nominals"]) is ProfileLabel.RL
    print("\n[criterion 9] PASS: SHIF composition, EL>QL>RL tie-break, "
          "PFULL and PNAN fixtures all classified as expected")
