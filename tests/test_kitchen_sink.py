"""One realistic document touching every grammar corner at once."""

from collections import Counter

from ontoprof import extract_all, parse_ontology, serialize
from ontoprof.model import Category, axiom_category

import oracles
from equivalence import check_against_oracles

DOC = """# compiled menu ontology, hand written
Prefix(:=<http://example.org/menu#>)
Prefix(food:=<http://example.org/food#>)
Prefix(xsd:=<http://www.w3.org/2001/XMLSchema#>)
Ontology(<http://example.org/menu> <http://example.org/menu/2.0>
Import(<http://example.org/base>)
Annotation(rdfs:comment "A menu ontology with most constructs")
Annotation(rdfs:label "menu"@en)

Declaration(Class(:Pizza))
Declaration(Class(food:Topping))
Declaration(ObjectProperty(:hasTopping))
Declaration(DataProperty(:calories))
Declaration(NamedIndividual(:margherita))
Declaration(Datatype(:CalorieRange))
Declaration(AnnotationProperty(:source))

SubClassOf(Annotation(:source "menu card") :Pizza food:Dish)
EquivalentClasses(:VegetarianPizza ObjectIntersectionOf(:Pizza ObjectAllValuesFrom(:hasTopping ObjectComplementOf(food:Meat))))
DisjointClasses(food:Meat food:Vegetable ObjectOneOf(:tofu))
DisjointUnion(:Size :Small :Medium :Large)
SubClassOf(:InterestingPizza ObjectMinCardinality(3 :hasTopping))
SubClassOf(:PlainPizza ObjectMaxCardinality(0 :hasTopping food:Meat))
SubClassOf(:DoubleCheese ObjectExactCardinality(2 :hasTopping food:Cheese))
SubClassOf(:SelfSaucing ObjectHasSelf(:sauces))
SubClassOf(:Margherita ObjectHasValue(:namedAfter :queen))
SubClassOf(:LowCal DataSomeValuesFrom(:calories DatatypeRestriction(xsd:integer xsd:maxExclusive "400"^^xsd:integer)))
SubClassOf(:NoCal DataAllValuesFrom(:calories DataOneOf("0"^^xsd:integer)))
SubClassOf(:MidCal DataHasValue(:calories "350"^^xsd:integer))
SubClassOf(:OddCal DataMinCardinality(1 :calories DataComplementOf(DataUnionOf(xsd:string xsd:boolean))))
HasKey(:Pizza (:hasTopping) (:calories))
DatatypeDefinition(:CalorieRange DataIntersectionOf(xsd:integer xsd:nonNegativeInteger))

SubObjectPropertyOf(:hasCheeseTopping :hasTopping)
SubObjectPropertyOf(ObjectPropertyChain(:hasBase :madeFrom) :contains)
EquivalentObjectProperties(:hasTopping :topping)
DisjointObjectProperties(:hasTopping :lacksTopping)
InverseObjectProperties(:hasTopping ObjectInverseOf(:lacksTopping))
ObjectPropertyDomain(:hasTopping :Pizza)
ObjectPropertyRange(ObjectInverseOf(:hasTopping) :Pizza)
FunctionalObjectProperty(:hasBase)
InverseFunctionalObjectProperty(:namedAfter)
ReflexiveObjectProperty(:similarTo)
IrreflexiveObjectProperty(:strictlyBetter)
SymmetricObjectProperty(:similarTo)
AsymmetricObjectProperty(:strictlyBetter)
TransitiveObjectProperty(:contains)
SubDataPropertyOf(:kcal :calories)
EquivalentDataProperties(:calories :energy)
DisjointDataProperties(:calories :price)
DataPropertyDomain(:calories :Pizza)
DataPropertyRange(:calories xsd:integer)
FunctionalDataProperty(:calories)

ClassAssertion(:Pizza :margherita)
ClassAssertion(ObjectSomeValuesFrom(:hasTopping food:Cheese) _:anon1)
ObjectPropertyAssertion(:hasTopping :margherita :mozzarella)
NegativeObjectPropertyAssertion(:hasTopping :margherita :pepperoni)
DataPropertyAssertion(:calories :margherita "850"^^xsd:integer)
NegativeDataPropertyAssertion(:calories :margherita "10"^^xsd:integer)
SameIndividual(:margherita :pizzaMargherita)
DifferentIndividuals(:margherita :pepperoni _:anon1)

AnnotationAssertion(rdfs:comment :Pizza "the main dish \\"menu\\" entry")
SubAnnotationPropertyOf(:source rdfs:comment)
AnnotationPropertyDomain(:source :Pizza)
AnnotationPropertyRange(:source xsd:string)
DLSafeRule(Body(ClassAtom(:Pizza Variable(:x))) Head(ClassAtom(food:Dish Variable(:x))))
)
"""


def test_kitchen_sink_parses_and_categorizes():
    o = parse_ontology(DOC, origin="menu.ofn")
    assert o.iri == "http://example.org/menu"
    assert o.version_iri == "http://example.org/menu/2.0"
    assert o.imports == ("http://example.org/base",)
    assert len(o.annotations) == 2
    logical = [ax for ax in o.axioms if axiom_category(ax) is not Category.NON_LOGICAL]
    # every one of the 32 logical types appears exactly once or more
    assert {ax.axiom_type for ax in logical} == set(
        __import__("ontoprof").LOGICAL_AXIOM_TYPES)
    assert o.signature.anonymous_individuals == {"anon1"}


def test_kitchen_sink_round_trip():
    o = parse_ontology(DOC, origin="menu.ofn")
    assert parse_ontology(serialize(o)) == o


def test_kitchen_sink_vector_total_and_oracle_clean():
    o = parse_ontology(DOC, origin="menu.ofn")
    check_against_oracles(o)
    vector = extract_all(o)
    assert vector["SA"] == len(o.axioms)
    # :contains is non-simple (transitive, chain-defined) but never sits in a
    # restricted position, so the DL check holds while EL/QL/RL all fail
    assert vector["OPR"] == "DL"
    assert vector["DFN"] == "SROIQ(D)"
    assert vector["DFN"].endswith("(D)")
    assert vector["SDT"] >= 4


def test_kitchen_sink_category_counts():
    o = parse_ontology(DOC, origin="menu.ofn")
    counts = Counter(axiom_category(ax).value for ax in o.axioms)
    assert counts == {"TBox": 15, "RBox": 20, "ABox": 8, "NonLogical": 12}
    assert o.census.category_sizes == [15, 20, 8, 12]
