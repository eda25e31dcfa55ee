"""Expressivity classification: OWL 2 profile label and DL family name.

Both are pure functions of the axiom multiset.  Profile membership is driven
by the rule table `_RULES`, a flat syntactic approximation of the W3C
profile grammars; the DL check adds punning and simple-role structural
rules.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from itertools import chain

from .census import Census
from .model import Ontology


class ProfileLabel(Enum):
    DL = "DL"
    EL = "EL"
    QL = "QL"
    RL = "RL"
    PFULL = "PFULL"
    PNAN = "PNAN"


ProfileRules = namedtuple("ProfileRules", "forbidden_axioms forbidden_constructors "
                          "oneof_max_arity max_cardinality_bound", defaults=(None, None))

# OWL 2 profile membership rules, version 1.
#
# These are syntactic approximations of the W3C profile grammars.  Each
# profile lists logical axiom types and expression constructors that the
# profile rejects wherever they occur; position-sensitive distinctions
# (subclass vs superclass side) and datatype whitelists of the normative
# grammars are deliberately collapsed into these flat lists so the table
# stays auditable.  Names match the functional-style syntax keywords, with
# two pseudo-names: SubObjectPropertyChain marks the chain form of
# SubObjectPropertyOf, and ObjectInverseOf marks inverse property
# expressions.  `oneof_max_arity` is the largest admissible
# ObjectOneOf/DataOneOf arity, `max_cardinality_bound` the largest
# admissible ObjectMaxCardinality/DataMaxCardinality value.
#
# The DL check is structural and lives in `_passes_dl`: it rejects
# class/datatype and object/data/annotation property punning, and rejects
# non-simple object properties (transitive or chain-defined, closed over
# sub-property, equivalence and inverse links) inside cardinality
# restrictions, self restrictions, functional/inverse-functional/
# irreflexive/asymmetric characteristics and property disjointness.
#
# A change here changes `OPR` values and needs a new SCHEMA_VERSION.
_RULES = {
    "EL": ProfileRules(
        forbidden_axioms=frozenset("""
            DisjointUnion InverseObjectProperties FunctionalObjectProperty
            InverseFunctionalObjectProperty SymmetricObjectProperty
            AsymmetricObjectProperty IrreflexiveObjectProperty
            DisjointObjectProperties DisjointDataProperties""".split()),
        forbidden_constructors=frozenset("""
            ObjectUnionOf ObjectComplementOf ObjectAllValuesFrom
            ObjectMinCardinality ObjectMaxCardinality ObjectExactCardinality
            ObjectInverseOf DataAllValuesFrom DataMinCardinality DataMaxCardinality
            DataExactCardinality DataUnionOf DataComplementOf""".split()),
        oneof_max_arity=1),
    "QL": ProfileRules(
        forbidden_axioms=frozenset("""
            DisjointUnion TransitiveObjectProperty FunctionalObjectProperty
            InverseFunctionalObjectProperty FunctionalDataProperty HasKey
            SameIndividual NegativeObjectPropertyAssertion
            NegativeDataPropertyAssertion SubObjectPropertyChain DatatypeDefinition""".split()),
        forbidden_constructors=frozenset("""
            ObjectUnionOf ObjectOneOf ObjectHasValue ObjectHasSelf
            ObjectAllValuesFrom ObjectMinCardinality ObjectMaxCardinality
            ObjectExactCardinality DataAllValuesFrom DataHasValue DataMinCardinality
            DataMaxCardinality DataExactCardinality DataUnionOf DataComplementOf
            DataOneOf""".split())),
    "RL": ProfileRules(
        forbidden_axioms=frozenset("""
            DisjointUnion ReflexiveObjectProperty DatatypeDefinition""".split()),
        forbidden_constructors=frozenset("""
            ObjectAllValuesFrom ObjectComplementOf ObjectHasSelf
            ObjectMinCardinality ObjectExactCardinality DataAllValuesFrom
            DataMinCardinality DataExactCardinality DataUnionOf DataComplementOf
            DataOneOf""".split()),
        max_cardinality_bound=1),
}


def _fits_profile(census: Census, rules: ProfileRules) -> bool:
    """Every logical axiom fits the rules exactly when the axiom types and
    tags seen in any of them miss the forbidden ones and the maxima stay
    within the bounds."""
    return (rules.forbidden_axioms.isdisjoint(census.axiom_types)
            and rules.forbidden_constructors.isdisjoint(census.tags)
            and (rules.oneof_max_arity is None
                 or census.largest("ObjectOneOf", "DataOneOf") <= rules.oneof_max_arity)
            and (rules.max_cardinality_bound is None
                 or census.largest("ObjectMaxCardinality", "DataMaxCardinality")
                 <= rules.max_cardinality_bound))


def _non_simple_properties(o: Ontology) -> set[str]:
    """Transitive or chain-defined properties, closed over sub-property,
    equivalence and inverse links (an upward approximation of simplicity)."""
    census = o.census
    links = census.property_links
    non_simple = census.characteristics["Transitive"] | census.characteristics["Chain"]
    frontier = list(non_simple)
    while frontier:
        p = frontier.pop()
        for q in links.get(p, ()):
            if q not in non_simple:
                non_simple.add(q)
                frontier.append(q)
    return non_simple


def _passes_dl(o: Ontology) -> bool:
    sig = o.signature
    if sig.classes & sig.datatypes:
        return False
    props = (sig.object_properties, sig.data_properties, sig.annotation_properties)
    for i in range(len(props)):
        for j in range(i + 1, len(props)):
            if props[i] & props[j]:
                return False
    return _non_simple_properties(o).isdisjoint(o.census.simple_required)


def profile_checks(o: Ontology) -> dict[str, bool]:
    """Outcome of each of the four membership checks."""
    return {
        "EL": _fits_profile(o.census, _RULES["EL"]),
        "QL": _fits_profile(o.census, _RULES["QL"]),
        "RL": _fits_profile(o.census, _RULES["RL"]),
        "DL": _passes_dl(o),
    }


def owl_profile(o: Ontology) -> ProfileLabel:
    """Single profile label; ties among EL/QL/RL break in that order."""
    checks = profile_checks(o)
    if all(checks.values()):
        return ProfileLabel.PFULL
    for name in ("EL", "QL", "RL"):
        if checks[name]:
            return ProfileLabel[name]
    if checks["DL"]:
        return ProfileLabel.DL
    return ProfileLabel.PNAN


# ---------------------------------------------------------------------------
# DL family name.

# The composed family name plus the raw feature flags behind it.
DlName = namedtuple("DlName", "value flags")


# Axiom types and node tags that put letters into the DL family name; the
# census adds the letters that hang on fillers, keys and declarations.
_LETTERS = {
    "TransitiveObjectProperty": "S",
    "SubObjectPropertyChain": "R", "ReflexiveObjectProperty": "R",
    "IrreflexiveObjectProperty": "R", "DisjointObjectProperties": "R",
    "ObjectHasSelf": "R",
    "InverseObjectProperties": "I", "ObjectInverseOf": "I",
    "FunctionalObjectProperty": "F", "InverseFunctionalObjectProperty": "F",
    "FunctionalDataProperty": "DF",
    "ObjectComplementOf": "C", "ObjectUnionOf": "C",
    "ObjectOneOf": "O", "ObjectHasValue": "O",
    **dict.fromkeys(("SubDataPropertyOf", "EquivalentDataProperties",
                     "DisjointDataProperties", "DataPropertyDomain", "DataPropertyRange",
                     "DatatypeDefinition", "DataPropertyAssertion",
                     "NegativeDataPropertyAssertion", "DataSomeValuesFrom",
                     "DataAllValuesFrom", "DataHasValue", "DataMinCardinality",
                     "DataMaxCardinality", "DataExactCardinality"), "D"),
}


def dl_family_name(o: Ontology) -> DlName:
    """Letter-composed constructor-group name for the ontology's logic."""
    census = o.census
    flags = set(census.dl_flags)
    for name in chain(census.axiom_types, census.tags):
        flags.update(_LETTERS.get(name, ""))
    base = "S" if "S" in flags else ("ALC" if "C" in flags else "AL")
    role = "R" if "R" in flags else ("H" if "H" in flags else "")
    nominal = "O" if "O" in flags else ""
    inverse = "I" if "I" in flags else ""
    if "Q" in flags:
        number = "Q"
    elif "N" in flags:
        number = "N"
    elif "F" in flags:
        number = "F"
    else:
        number = ""
    suffix = "(D)" if "D" in flags else ""
    return DlName(value=base + role + nominal + inverse + number + suffix,
                  flags=frozenset(flags))
