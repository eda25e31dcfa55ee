"""Extractor operations against hand-evaluated cases."""

import importlib
import importlib.util
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from ontoprof import runner
from ontoprof.features import extract_all
from ontoprof.parser import parse_ontology
from ontoprof.schema import CLASS_CONSTRUCTORS, FEATURE_IDS, FEATURE_SCHEMA, PROPERTY_CHARACTERISTICS

from equivalence import check_against_oracles
from gen import random_ontology
from golden_data import GOLDEN_DIR
from ontoprof.model import (
    ClassAssertion, DataPropertyAssertion, Declaration, Entity, EntityKind,
    EquivalentClasses, Literal, NamedClass, ObjectAllValuesFrom,
    ObjectComplementOf, ObjectExactCardinality, ObjectHasValue,
    ObjectIntersectionOf, ObjectMaxCardinality, ObjectMinCardinality,
    ObjectPropertyDomain, ObjectPropertyRange, ObjectSomeValuesFrom,
    ObjectUnionOf, Ontology, SameIndividual, SubClassOf,
    SymmetricObjectProperty, TransitiveObjectProperty,
)

NS = "http://example.org/f#"
TOL = 1e-9


def c(name):
    return NamedClass(NS + name)


def onto(*axioms):
    return Ontology(axioms=tuple(axioms))


SIZE_IDS = tuple(s.id for s in FEATURE_SCHEMA if s.group == "size")


def test_schema_is_fixed_and_ordered():
    assert len(FEATURE_IDS) == 100
    assert len(set(FEATURE_IDS)) == 100
    groups = [s.group for s in FEATURE_SCHEMA]
    # groups appear as contiguous blocks in catalogue order
    order = ["size", "expressivity", "structural", "syntactic"]
    assert groups == sorted(groups, key=order.index)


def test_size_features_empty():
    vector = extract_all(onto())
    assert all(vector[fid] == 0 for fid in SIZE_IDS)


def test_size_features_logical_vs_total():
    o = onto(SubClassOf(c("A"), c("B")),
             SubClassOf(c("B"), c("C")),
             TransitiveObjectProperty(NS + "r"),
             Declaration(Entity(NS + "A", EntityKind.CLASS)),
             Declaration(Entity(NS + "r", EntityKind.OBJECT_PROPERTY)))
    vector = extract_all(o)
    assert vector["SLA"] == 3
    assert vector["SA"] == 5


def test_cohesion_chain_is_one():
    o = onto(SubClassOf(c("A"), c("B")), SubClassOf(c("B"), c("C")))
    assert extract_all(o)["CCOH"] == pytest.approx(1.0, abs=TOL)


def test_cohesion_degenerate_single_class():
    o = onto(ClassAssertion(c("A"), NS + "i"))
    assert extract_all(o)["CCOH"] == 0


def test_object_property_cohesion_case():
    o = onto(ObjectPropertyDomain(NS + "p", c("A")),
             ObjectPropertyRange(NS + "p", c("B")))
    assert extract_all(o)["OPCOH"] == pytest.approx(1.0, abs=TOL)


def test_domain_intersection_flattened():
    o = onto(ObjectPropertyDomain(NS + "p", ObjectIntersectionOf(
                 (c("A"), c("B"), ObjectSomeValuesFrom(NS + "q", c("C"))))),
             ObjectPropertyRange(NS + "p", c("D")))
    # NdC=2 (A and B), NrC=1, NC=4, NOProp=2.
    expected = 2 * (2 * 1) / (2 * (16 - 4))
    assert extract_all(o)["OPCOH"] == pytest.approx(expected, abs=TOL)


def test_richness_examples():
    o = onto(SubClassOf(c("A"), c("B")), SubClassOf(c("B"), c("C")),
             Declaration(Entity(NS + "p", EntityKind.OBJECT_PROPERTY)),
             Declaration(Entity(NS + "q", EntityKind.OBJECT_PROPERTY)))
    assert extract_all(o)["RRichness"] == pytest.approx(0.5, abs=TOL)

    empty_rel = onto(SubClassOf(c("A"), c("B")))
    assert extract_all(empty_rel)["RRichness"] == 0

    o = onto(Declaration(Entity(NS + "d1", EntityKind.DATA_PROPERTY)),
             Declaration(Entity(NS + "d2", EntityKind.DATA_PROPERTY)),
             Declaration(Entity(NS + "d3", EntityKind.DATA_PROPERTY)),
             Declaration(Entity(NS + "d4", EntityKind.DATA_PROPERTY)),
             Declaration(Entity(NS + "A", EntityKind.CLASS)),
             Declaration(Entity(NS + "B", EntityKind.CLASS)))
    assert extract_all(o)["AttrRichness"] == pytest.approx(2.0, abs=TOL)


def test_axiom_level_degenerate():
    out = extract_all(onto())
    assert out["RTBx"] == out["RRBx"] == out["RABx"] == 0
    assert out["AMP"] == 0 and out["AAP"] == 0


def test_axiom_level_partition():
    o = onto(SubClassOf(c("A"), c("B")),
             EquivalentClasses((c("C"), c("D"))),
             TransitiveObjectProperty(NS + "r"),
             ClassAssertion(c("A"), NS + "i"))
    out = extract_all(o)
    assert out["RTBx"] == pytest.approx(0.5, abs=TOL)
    assert out["RRBx"] == pytest.approx(0.25, abs=TOL)
    assert out["RABx"] == pytest.approx(0.25, abs=TOL)
    assert out["RTBx"] + out["RRBx"] + out["RABx"] == pytest.approx(1.0, abs=TOL)


def test_axiom_level_depths():
    o = onto(SubClassOf(c("A"), c("B")),
             SubClassOf(c("C"), ObjectSomeValuesFrom(
                 NS + "r", ObjectSomeValuesFrom(NS + "r", c("D")))))
    out = extract_all(o)
    assert out["AMP"] == 2
    assert out["AAP"] == pytest.approx(1.0, abs=TOL)


def test_constructor_ratios():
    o = onto(SubClassOf(c("A"), ObjectIntersectionOf(
                 (c("B"), ObjectIntersectionOf((c("C"), ObjectIntersectionOf((c("D"), c("E")))))))),
             SubClassOf(c("F"), ObjectUnionOf((c("G"), c("H")))))
    out = extract_all(o)
    assert out["CCF_ObjectIntersectionOf"] == pytest.approx(0.75, abs=TOL)
    assert out["CCF_ObjectUnionOf"] == pytest.approx(0.25, abs=TOL)
    # two axioms with 3 and 1 occurrences
    assert out["OCCD"] == pytest.approx(4 / 6, abs=TOL)


def test_constructor_atomic_tbox_all_zero():
    out = extract_all(onto(SubClassOf(c("A"), c("B"))))
    assert all(out[f"CCF_{name}"] == 0 for name in CLASS_CONSTRUCTORS) and out["OCCD"] == 0


def test_pattern_iu():
    o = onto(SubClassOf(c("A"), ObjectIntersectionOf((c("B"), ObjectUnionOf((c("C"), c("D")))))))
    assert extract_all(o)["IU"] == 1


def test_pattern_euvi_same_role():
    o = onto(SubClassOf(c("A"), ObjectIntersectionOf((
        ObjectSomeValuesFrom(NS + "r", c("C")),
        ObjectAllValuesFrom(NS + "r", c("D"))))))
    assert extract_all(o)["EUvI"] == 1


def test_pattern_euvi_role_mismatch():
    o = onto(SubClassOf(c("A"), ObjectIntersectionOf((
        ObjectSomeValuesFrom(NS + "r", c("C")),
        ObjectAllValuesFrom(NS + "s", c("D"))))))
    assert extract_all(o)["EUvI"] == 0


def test_pattern_axiom_pair_forms():
    o = onto(SubClassOf(c("A"), ObjectSomeValuesFrom(NS + "r", c("C"))),
             SubClassOf(c("A"), ObjectAllValuesFrom(NS + "r", c("D"))),
             SubClassOf(c("A"), ObjectMaxCardinality(2, NS + "r", c("E"))))
    vector = extract_all(o)
    assert vector["EUvI"] == 1
    assert vector["CUvI"] == 1


def test_patterns_ignore_abox():
    o = onto(ClassAssertion(ObjectIntersectionOf((
        ObjectSomeValuesFrom(NS + "r", c("C")),
        ObjectAllValuesFrom(NS + "r", c("D")))), NS + "i"))
    vector = extract_all(o)
    assert (vector["IU"], vector["EUvI"], vector["CUvI"]) == (0, 0, 0)


# ObjectInverseOf: the census counts properties by name and keeps only a flag
# that an inverse occurred; each value below is derived by hand.

INVERSE_HEADER = "Prefix(:=<http://example.org/f#>)\nOntology(\n"


def inverse_case(body: str):
    """The model of `body`, its vector checked against the oracles and
    against a worker's, which folds it through the parser-fed Summary."""
    text = INVERSE_HEADER + body + "\n)\n"
    o = parse_ontology(text)
    check_against_oracles(o)
    vector = extract_all(o)
    worker = runner._extract_file("w.ofn", text, False, (1 / 3, 1 / 3, 1 / 3))
    assert worker.status == "ok" and worker.vector.values == vector.values
    return o, vector


@pytest.mark.parametrize("inverse,plain,dfn,profile,plain_dfn,plain_profile", [
    # RBox only: EL forbids ObjectInverseOf; QL, RL and DL do not.
    ("SubObjectPropertyOf(ObjectInverseOf(:p) :q)", "SubObjectPropertyOf(:p :q)",
     "ALHI", "QL", "ALH", "PFULL"),
    # ABox only.
    ("ObjectPropertyAssertion(ObjectInverseOf(:p) :a :b)", "ObjectPropertyAssertion(:p :a :b)",
     "ALI", "QL", "AL", "PFULL"),
    # Only in a key: QL forbids HasKey, EL the inverse, so RL is first.
    ("HasKey(:A (ObjectInverseOf(:p)) ())", "HasKey(:A (:p) ())", "ALI", "RL", "AL", "EL"),
])
def test_an_inverse_outside_any_restriction_sets_the_tag(inverse, plain, dfn, profile,
                                                         plain_dfn, plain_profile):
    o, vector = inverse_case("SubClassOf(:A :B)\n" + inverse)
    assert o.census.tags == {"ObjectInverseOf"}
    assert (vector["DFN"], vector["OPR"]) == (dfn, profile)
    o, vector = inverse_case("SubClassOf(:A :B)\n" + plain)
    assert o.census.tags == set()
    assert (vector["DFN"], vector["OPR"]) == (plain_dfn, plain_profile)


def test_restrictions_on_a_property_and_its_inverse_count_toward_its_name():
    o, vector = inverse_case("TransitiveObjectProperty(:p)\n"
                             "SymmetricObjectProperty(:q)\n"
                             "SubClassOf(:A ObjectSomeValuesFrom(ObjectInverseOf(:p) :B))\n"
                             "SubClassOf(:B ObjectAllValuesFrom(:p :C))\n"
                             "HasKey(:C (ObjectInverseOf(:q)) ())\n"
                             "ClassAssertion(ObjectSomeValuesFrom(ObjectInverseOf(:p) :A) :a)")
    # The ABox restriction is no TBox usage; the key is.
    assert o.census.property_usage == {NS + "p": 2, NS + "q": 1}
    assert vector["OPCF_Transitive"] == pytest.approx(2 / 3, abs=TOL)
    assert vector["OPCF_Symmetric"] == pytest.approx(1 / 3, abs=TOL)
    assert "ObjectInverseOf" in o.census.tags and vector["DFN"] == "SI"


def test_pattern_pairs_keep_a_property_and_its_inverse_apart():
    inv, plain = "ObjectInverseOf(:r)", ":r"
    # In one intersection: only the inverse with the inverse is a pair.
    for univ, euvi in ((plain, 0), (inv, 1)):
        _, vector = inverse_case(f"SubClassOf(:A ObjectIntersectionOf("
                                 f"ObjectSomeValuesFrom({inv} :C) ObjectAllValuesFrom({univ} :D) "
                                 f"ObjectMaxCardinality(1 {inv} :E)))")
        assert (vector["EUvI"], vector["CUvI"]) == (euvi, euvi)
    # Across SubClassOf axioms on one named class.
    body = (f"SubClassOf(:X ObjectSomeValuesFrom({inv} :C))\n"
            f"SubClassOf(:X ObjectAllValuesFrom({plain} :D))\n"
            f"SubClassOf(:X ObjectMinCardinality(2 {inv} :E))\n")
    _, vector = inverse_case(body)
    assert (vector["EUvI"], vector["CUvI"]) == (0, 0)
    _, vector = inverse_case(body + f"SubClassOf(:X ObjectAllValuesFrom({inv} :F))\n"
                                    f"SubClassOf(:X ObjectAllValuesFrom({inv} :G))")
    assert (vector["EUvI"], vector["CUvI"]) == (2, 2)


def test_class_definition_classification():
    o = onto(SubClassOf(c("Man"), c("Human")))
    out = extract_all(o)
    assert out["PCD"] == pytest.approx(1.0, abs=TOL)
    assert out["NPCD"] == 0 and out["GCI"] == 0

    o = onto(SubClassOf(ObjectUnionOf((c("A"), c("B"))), c("C")))
    out = extract_all(o)
    assert out["GCI"] == pytest.approx(1.0, abs=TOL)

    o = onto(EquivalentClasses((c("Adult"), ObjectHasValue(NS + "status", NS + "grownUp"))))
    out = extract_all(o)
    assert out["CNOM"] == pytest.approx(1.0, abs=TOL)


def test_property_characteristic_frequencies():
    o = onto(TransitiveObjectProperty(NS + "p"),
             SymmetricObjectProperty(NS + "q"),
             SubClassOf(c("A"), ObjectSomeValuesFrom(NS + "p", c("B"))),
             SubClassOf(c("B"), ObjectSomeValuesFrom(NS + "p", ObjectSomeValuesFrom(NS + "p", c("C")))),
             SubClassOf(c("C"), ObjectAllValuesFrom(NS + "p", c("D"))),
             SubClassOf(c("D"), ObjectSomeValuesFrom(NS + "q", c("A"))))
    out = extract_all(o)
    assert out["OPCF_Transitive"] == pytest.approx(0.8, abs=TOL)
    assert out["OPCF_Symmetric"] == pytest.approx(0.2, abs=TOL)


def test_no_characteristics_all_zero():
    out = extract_all(onto(SubClassOf(c("A"), c("B"))))
    for name in PROPERTY_CHARACTERISTICS:
        assert out[f"OPCF_{name}"] == 0


def test_cardinality_summaries():
    o = onto(SubClassOf(c("A"), ObjectMinCardinality(2, NS + "r", c("C"))),
             SubClassOf(c("A"), ObjectMaxCardinality(5, NS + "r", c("C"))),
             SubClassOf(c("B"), ObjectExactCardinality(3, NS + "s", c("D"))))
    out = extract_all(o)
    assert (out["HVC_Min"], out["HVC_Max"], out["HVC_Exact"]) == (2, 5, 3)
    assert out["AVC"] == pytest.approx(10 / 3, abs=TOL)


def test_individual_features():
    o = onto(SameIndividual((NS + "PresidentKennedy", NS + "JFK")))
    out = extract_all(o)
    assert out["ISAM"] == pytest.approx(1.0, abs=TOL)

    empty = extract_all(onto())
    assert all(empty[fid] == 0 for fid in ("NomTB", "TBNom", "IDISJ", "ISAM"))

    o = onto(SubClassOf(c("A"), ObjectHasValue(NS + "p", NS + "a")),
             SubClassOf(c("B"), c("C")))
    out = extract_all(o)
    assert out["TBNom"] == pytest.approx(0.5, abs=TOL)
    assert out["NomTB"] == pytest.approx(1.0, abs=TOL)


def test_extract_all_empty():
    vector = extract_all(onto())
    assert vector["OPR"] == "PFULL"
    assert vector["DFN"] == "AL"
    assert all(v == 0 for k, v in vector.items() if k not in ("OPR", "DFN"))


def test_extract_all_matches_component_extractors():
    o = onto(SubClassOf(c("A"), ObjectSomeValuesFrom(NS + "r", c("B"))),
             TransitiveObjectProperty(NS + "r"),
             DataPropertyAssertion(NS + "d", NS + "i", Literal("1")))
    vector = extract_all(o)
    assert dict(vector.items()) | {} == {fid: vector[fid] for fid in FEATURE_IDS}
    sizes = {fid: vector[fid] for fid in SIZE_IDS}
    assert sizes == {"SC": 2, "SOP": 1, "SDP": 1, "SI": 1, "SDT": 0, "SLA": 3, "SA": 3}


def test_extract_all_writes_schema_order():
    """The values are written in schema order; nothing reorders them after."""
    for path in sorted(GOLDEN_DIR.glob("*.ofn")):
        vector = extract_all(parse_ontology(path.read_text(encoding="utf-8")))
        assert list(vector.values) == list(FEATURE_IDS), path.name
    rng = random.Random(15)
    for _ in range(40):
        vector = extract_all(random_ontology(rng, every_form=True))
        assert list(vector.values) == list(FEATURE_IDS)


def test_cohesion_weights_are_configurable():
    o = onto(SubClassOf(c("A"), c("B")), SubClassOf(c("B"), c("C")))
    default = extract_all(o)
    weighted = extract_all(o, cohesion_weights=(1.0, 0.0, 0.0))
    assert default["OCOH"] == pytest.approx(1 / 3, abs=TOL)
    assert weighted["OCOH"] == pytest.approx(1.0, abs=TOL)
    assert weighted["CCOH"] == default["CCOH"]  # weights touch only the aggregate


def test_extract_all_order_invariant():
    rng = random.Random(2)
    axioms = [SubClassOf(c("A"), ObjectSomeValuesFrom(NS + "r", c("B"))),
              TransitiveObjectProperty(NS + "r"),
              ClassAssertion(c("A"), NS + "i"),
              EquivalentClasses((c("B"), c("C")))]
    base = extract_all(Ontology(axioms=tuple(axioms))).values
    for _ in range(5):
        rng.shuffle(axioms)
        assert extract_all(Ontology(axioms=tuple(axioms))).values == base


def test_extraction_has_no_recursion_limit():
    expr = c("B")
    for _ in range(5000):
        expr = ObjectComplementOf(expr)
    vector = extract_all(onto(SubClassOf(c("A"), expr)))
    assert vector["AMP"] == 5000


class _Unwalkable(tuple):
    """An axiom tuple that keeps its length but refuses to be walked."""

    def __iter__(self):
        raise AssertionError("an axiom walk outside the census")


def test_census_is_the_only_axiom_walk():
    text = (GOLDEN_DIR / "family_kb.ofn").read_text(encoding="utf-8")
    expected = extract_all(parse_ontology(text)).values
    o = parse_ontology(text)  # the census is taken as the model is built
    assert sum(o.census.category_sizes) == len(o.axioms)
    object.__setattr__(o, "axioms", _Unwalkable(o.axioms))
    assert extract_all(o).values == expected


def test_extract_all_calls_each_traced_layer_once(monkeypatch):
    """The traced benchmark times the layers by swapping wrappers in for the
    module globals in its LAYER_CALLS; a layer that stops being called by
    that name would drop out of the trace unnoticed."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    calls: Counter = Counter()
    for module_name, attr, span in tracing.LAYER_CALLS:
        module = importlib.import_module(module_name)

        def spy(*args, _original=getattr(module, attr), _span=span, **kwargs):
            calls[_span] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, attr, spy)
    o = parse_ontology((GOLDEN_DIR / "family_kb.ofn").read_text(encoding="utf-8"))
    assert calls == {"model.build": 1}
    extract_all(o)
    assert calls == {span: 1 for _, _, span in tracing.LAYER_CALLS}
