"""Profile classification and DL family naming."""

import random

from ontoprof.expressivity import dl_family_name, owl_profile, profile_checks, ProfileLabel
from ontoprof.model import (
    XSD, ClassAssertion, DataComplementOf, DataIntersectionOf, DataOneOf,
    DataPropertyRange, DataRestriction, DatatypeDefinition, DatatypeRef,
    DataUnionOf, Literal, NamedClass, ObjectAllValuesFrom, ObjectInverseOf,
    ObjectMinCardinality, ObjectSomeValuesFrom, Ontology, SubClassOf, OWL_THING,
)
from ontoprof.parser import parse_ontology

from equivalence import check_against_oracles
from gen import random_axiom, random_ontology, Vocabulary
from golden_data import GOLDEN_DIR

NS = "http://example.org/e#"


def c(name):
    return NamedClass(NS + name)


def onto(*axioms):
    return Ontology(axioms=tuple(axioms))


def load(name):
    return parse_ontology((GOLDEN_DIR / f"{name}.ofn").read_text(encoding="utf-8"))


def test_empty_is_pfull():
    assert owl_profile(onto()) is ProfileLabel.PFULL


def test_universal_restriction_lands_in_dl():
    o = onto(SubClassOf(c("A"), ObjectAllValuesFrom(NS + "r", c("B"))))
    checks = profile_checks(o)
    assert not checks["EL"] and not checks["QL"] and not checks["RL"]
    assert checks["DL"]
    assert owl_profile(o) is ProfileLabel.DL


def test_existential_restriction_is_el_admissible():
    o = onto(SubClassOf(c("A"), ObjectSomeValuesFrom(NS + "r", c("B"))))
    checks = profile_checks(o)
    assert checks["EL"]
    # a bare existential sits inside every profile's table, hence PFULL
    assert all(checks.values())
    assert owl_profile(o) is ProfileLabel.PFULL


def test_tie_break_priority_el_ql_rl():
    assert owl_profile(load("profiles_ql")) is ProfileLabel.QL
    assert owl_profile(load("el_chain")) is ProfileLabel.EL
    assert owl_profile(load("nominals")) is ProfileLabel.RL


def test_pnan_fixture_fails_all_checks():
    o = load("pnan")
    assert not any(profile_checks(o).values())
    assert owl_profile(o) is ProfileLabel.PNAN


def test_pfull_implies_dl():
    rng = random.Random(11)
    for _ in range(300):
        o = random_ontology(rng, max_axioms=12)
        if owl_profile(o) is ProfileLabel.PFULL:
            assert profile_checks(o)["DL"]


def test_dl_name_minimal_base():
    assert dl_family_name(onto(SubClassOf(c("A"), c("B")))).value == "AL"


def test_dl_name_family_kb_composition():
    assert dl_family_name(load("family_kb")).value == "SHIF"


def test_dl_name_qualified_cardinality():
    o = onto(SubClassOf(c("A"), ObjectMinCardinality(2, NS + "r", c("B"))))
    assert dl_family_name(o).value == "ALQ"


def test_dl_name_unqualified_cardinality():
    o = onto(SubClassOf(c("A"), ObjectMinCardinality(2, NS + "r")))
    assert dl_family_name(o).value == "ALN"
    o = onto(SubClassOf(c("A"), ObjectMinCardinality(2, NS + "r", NamedClass(OWL_THING))))
    assert dl_family_name(o).value == "ALN"


def test_limited_existential_stays_al():
    o = onto(SubClassOf(c("A"), ObjectSomeValuesFrom(NS + "r", NamedClass(OWL_THING))))
    assert dl_family_name(o).value == "AL"


def test_flags_monotone_under_axiom_addition():
    rng = random.Random(77)
    for _ in range(200):
        vocab = Vocabulary(rng)
        axioms = [random_axiom(rng, vocab) for _ in range(rng.randint(0, 10))]
        base = dl_family_name(Ontology(axioms=tuple(axioms)))
        extended = dl_family_name(Ontology(axioms=tuple(axioms + [random_axiom(rng, vocab)])))
        assert base.flags <= extended.flags


def test_dl_rejects_class_datatype_punning():
    o = parse_ontology(
        "Prefix(:=<http://x#>)\nOntology(\n"
        "Declaration(Class(:Mixed))\n"
        "Declaration(Datatype(:Mixed))\n"
        "SubClassOf(:Mixed :Other)\n)")
    assert not profile_checks(o)["DL"]


def test_dl_rejects_object_data_property_punning():
    o = parse_ontology(
        "Prefix(:=<http://x#>)\nOntology(\n"
        "ObjectPropertyDomain(:p :A)\n"
        "DataPropertyRange(:p xsd:string)\n)")
    assert not profile_checks(o)["DL"]


def test_dl_nonsimple_propagates_through_hierarchy():
    # q is transitive, q is a subproperty of p, p sits in a cardinality
    o = parse_ontology(
        "Prefix(:=<http://x#>)\nOntology(\n"
        "TransitiveObjectProperty(:q)\n"
        "SubObjectPropertyOf(:q :p)\n"
        "SubClassOf(:A ObjectMaxCardinality(1 :p :B))\n)")
    assert not profile_checks(o)["DL"]
    # max-cardinality 1 keeps the axiom inside the RL table, so the label
    # falls to RL even though the DL check fails
    assert owl_profile(o) is ProfileLabel.RL


def test_dl_nonsimple_propagates_through_inverse():
    o = parse_ontology(
        "Prefix(:=<http://x#>)\nOntology(\n"
        "TransitiveObjectProperty(:q)\n"
        "InverseObjectProperties(:q :p)\n"
        "SubClassOf(:A ObjectHasSelf(:p))\n)")
    assert not profile_checks(o)["DL"]


def test_dl_allows_simple_property_in_cardinality():
    o = parse_ontology(
        "Prefix(:=<http://x#>)\nOntology(\n"
        "TransitiveObjectProperty(:q)\n"
        "SubClassOf(:A ObjectMaxCardinality(1 :p :B))\n)")
    assert profile_checks(o)["DL"]


def test_order_invariance():
    rng = random.Random(88)
    for _ in range(100):
        o = random_ontology(rng, max_axioms=10)
        shuffled = list(o.axioms)
        rng.shuffle(shuffled)
        p = Ontology(axioms=tuple(shuffled))
        assert owl_profile(o) is owl_profile(p)
        assert dl_family_name(o) == dl_family_name(p)


def _random_data_range(rng, depth):
    """The data ranges tests/gen.py never builds: OneOf of arity 1-3 and
    nested Boolean combinations."""
    kind = rng.randrange(5 if depth else 2)
    if kind == 0:
        return DataOneOf(tuple(Literal(str(i), XSD + "integer")
                               for i in range(rng.randint(1, 3))))
    if kind == 1:
        return DatatypeRef(XSD + "integer")
    if kind == 4:
        return DataComplementOf(_random_data_range(rng, depth - 1))
    operands = (_random_data_range(rng, depth - 1), _random_data_range(rng, depth - 1))
    return (DataIntersectionOf if kind == 2 else DataUnionOf)(operands)


def test_profile_and_dl_name_match_the_oracles_on_data_ranges():
    rng = random.Random(2015)
    labels = set()
    for _ in range(300):
        prop = ObjectInverseOf(NS + "r") if rng.random() < 0.2 else NS + "r"
        axioms = [SubClassOf(c("A"), ObjectSomeValuesFrom(prop, c("B")))]
        for _ in range(rng.randint(1, 3)):
            dr = _random_data_range(rng, 2)
            restriction = DataRestriction(kind=rng.choice(("DataSomeValuesFrom",
                                                           "DataAllValuesFrom")),
                                          props=(NS + "d",), range=dr)
            axioms.append(rng.choice((DataPropertyRange(NS + "d", dr),
                                      DatatypeDefinition(NS + "dt", dr),
                                      SubClassOf(c("A"), restriction),
                                      ClassAssertion(restriction, NS + "i"))))
        vector = check_against_oracles(onto(*axioms))
        labels.add(vector["OPR"])
    assert labels == {"EL", "QL", "DL", "PFULL"}
