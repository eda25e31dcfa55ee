"""The random generator: the default stream is pinned, and the every-form
generator reaches the whole grammar."""

import hashlib
import random
from collections import Counter

import pytest

from ontoprof import serialize
from ontoprof.model import Ontology

import oracles
from gen import Vocabulary, random_axiom, random_ontology

# Hand-listed from the OWL 2 functional-syntax grammar; never derived from
# the library's node table.
AXIOM_FORMS = (
    "SubClassOf", "EquivalentClasses", "DisjointClasses", "DisjointUnion",
    "SubObjectPropertyOf", "EquivalentObjectProperties", "DisjointObjectProperties",
    "InverseObjectProperties", "ObjectPropertyDomain", "ObjectPropertyRange",
    "FunctionalObjectProperty", "InverseFunctionalObjectProperty",
    "ReflexiveObjectProperty", "IrreflexiveObjectProperty", "SymmetricObjectProperty",
    "AsymmetricObjectProperty", "TransitiveObjectProperty", "SubDataPropertyOf",
    "EquivalentDataProperties", "DisjointDataProperties", "DataPropertyDomain",
    "DataPropertyRange", "FunctionalDataProperty", "DatatypeDefinition", "HasKey",
    "SameIndividual", "DifferentIndividuals", "ClassAssertion",
    "ObjectPropertyAssertion", "NegativeObjectPropertyAssertion",
    "DataPropertyAssertion", "NegativeDataPropertyAssertion", "Declaration",
    "AnnotationAssertion", "SubAnnotationPropertyOf", "AnnotationPropertyDomain",
    "AnnotationPropertyRange", "UnknownAxiom",
)
CLASS_CONSTRUCTORS = (
    "ObjectIntersectionOf", "ObjectUnionOf", "ObjectComplementOf", "ObjectOneOf",
    "ObjectSomeValuesFrom", "ObjectAllValuesFrom", "ObjectHasValue", "ObjectHasSelf",
    "ObjectMinCardinality", "ObjectMaxCardinality", "ObjectExactCardinality",
    "DataSomeValuesFrom", "DataAllValuesFrom", "DataHasValue", "DataMinCardinality",
    "DataMaxCardinality", "DataExactCardinality",
)
DATA_RANGE_CONSTRUCTORS = (
    "DatatypeRef", "DataIntersectionOf", "DataUnionOf", "DataComplementOf",
    "DataOneOf", "DatatypeRestriction",
)


def forms_in(o: Ontology) -> set[str]:
    """Axiom, class-constructor and data-range names the ontology uses,
    found with the oracle walkers."""
    found = set()
    for ax in o.axioms:
        found.add(oracles.tag(ax))
        for top in oracles.top_expressions(ax):
            for node in oracles.walk_expr(top):
                found.add(node.kind if oracles.tag(node) == "DataRestriction"
                          else oracles.tag(node))
        for r in oracles.axiom_data_ranges(ax):
            found.update(oracles.tag(node) for node in oracles.walk_data_range(r))
    return found


def test_every_form_reaches_the_whole_grammar():
    rng = random.Random(0xF0F0)
    n = 1000
    seen = Counter()
    for _ in range(n):
        seen.update(forms_in(random_ontology(rng, every_form=True)))
    rare = {name: seen[name] for name in AXIOM_FORMS + CLASS_CONSTRUCTORS
            + DATA_RANGE_CONSTRUCTORS if seen[name] < n // 100}
    assert not rare, f"in fewer than 1% of {n} ontologies: {rare}"


@pytest.mark.parametrize("digest,build", [
    ("d324acd8c2c006768327984bd8d05551e31496a5d24a367ebb3c17f37d5ba073",
     lambda: [random_ontology(random.Random(seed), max_axioms=60) for seed in range(50)]),
    ("69c3b6351dc24cf4dd5e813696ac786fb24a4ee8dc12bdc34cdacecdd7bd3d5c",
     lambda: _axioms_from_one_vocabulary(7, 500)),
], ids=["random_ontology", "random_axiom"])
def test_default_stream_is_pinned(digest, build):
    """Benchmark corpora are built from these calls, so a seed must keep
    giving the same document bytes."""
    h = hashlib.sha256()
    for o in build():
        h.update(serialize(o).encode())
    assert h.hexdigest() == digest


def _axioms_from_one_vocabulary(seed: int, count: int) -> list[Ontology]:
    rng = random.Random(seed)
    vocab = Vocabulary(rng)
    return [Ontology(axioms=tuple(random_axiom(rng, vocab) for _ in range(count)))]
