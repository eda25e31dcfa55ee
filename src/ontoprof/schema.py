"""The feature catalogue: the fixed, ordered list of the 100 features.

This module imports nothing from the rest of ontoprof, so `ontoprof schema`
prints the catalogue without compiling the model.  The catalogue is frozen
per SCHEMA_VERSION, and with it the order of the three name tuples it is
built from; `tests/test_model.py` checks those tuples against the node types.
"""

from __future__ import annotations

from collections import namedtuple

SCHEMA_VERSION = "1"

# A run's matrix formats and on-error policies, for the CLI and RunConfig alike.
FORMATS, ON_ERROR_POLICIES = ("csv", "json"), ("skip", "abort")

# The frozen enumeration of logical axiom types, in vector-schema order.
LOGICAL_AXIOM_TYPES: tuple[str, ...] = (
    "SubClassOf", "EquivalentClasses", "DisjointClasses", "DisjointUnion",
    "SubObjectPropertyOf", "EquivalentObjectProperties", "DisjointObjectProperties",
    "InverseObjectProperties", "ObjectPropertyDomain", "ObjectPropertyRange",
    "FunctionalObjectProperty", "InverseFunctionalObjectProperty", "ReflexiveObjectProperty",
    "IrreflexiveObjectProperty", "SymmetricObjectProperty", "AsymmetricObjectProperty",
    "TransitiveObjectProperty", "SubDataPropertyOf", "EquivalentDataProperties",
    "DisjointDataProperties", "DataPropertyDomain", "DataPropertyRange",
    "FunctionalDataProperty", "DatatypeDefinition", "HasKey",
    "SameIndividual", "DifferentIndividuals", "ClassAssertion", "ObjectPropertyAssertion",
    "NegativeObjectPropertyAssertion", "DataPropertyAssertion",
    "NegativeDataPropertyAssertion",
)

# The counted class-constructor set: the eleven non-named object constructors.
# Data restrictions are deliberately outside it.
CLASS_CONSTRUCTORS: tuple[str, ...] = (
    "ObjectIntersectionOf", "ObjectUnionOf", "ObjectComplementOf", "ObjectOneOf",
    "ObjectSomeValuesFrom", "ObjectAllValuesFrom", "ObjectHasValue", "ObjectHasSelf",
    "ObjectMinCardinality", "ObjectMaxCardinality", "ObjectExactCardinality",
)

# The declared characteristics the OPCF features count, in schema order: the
# seven characteristic axioms, then InverseObjectProperties and property chains.
PROPERTY_CHARACTERISTICS: tuple[str, ...] = (
    "Transitive", "Symmetric", "Asymmetric", "Reflexive", "Irreflexive", "Functional",
    "InverseFunctional", "Inverse", "Chain",
)

# `kind` is "count", "ratio" or "categorical".
FeatureSpec = namedtuple("FeatureSpec", "id group kind domain description")


def _build_schema() -> tuple[FeatureSpec, ...]:
    entries: list[FeatureSpec] = []

    def add(fid, group, kind, domain, description):
        entries.append(FeatureSpec(fid, group, kind, domain, description))

    add("SC", "size", "count", "nat", "number of named classes")
    add("SOP", "size", "count", "nat", "number of named object properties")
    add("SDP", "size", "count", "nat", "number of named data properties")
    add("SI", "size", "count", "nat", "number of named individuals")
    add("SDT", "size", "count", "nat", "number of datatypes mentioned")
    add("SLA", "size", "count", "nat", "number of logical axioms")
    add("SA", "size", "count", "nat", "total axioms including declarations and annotations")
    add("OPR", "expressivity", "categorical", "DL|EL|QL|RL|PFULL|PNAN", "OWL 2 profile label")
    add("DFN", "expressivity", "categorical", "letter string", "DL family name")
    add("C_MD", "structural", "count", "nat", "max depth of the class hierarchy")
    add("C_MSB", "structural", "count", "nat", "max direct subclasses of a class")
    add("C_ASB", "structural", "ratio", "[0,inf)", "direct subclass links per class")
    add("C_Tangledness", "structural", "count", "nat", "classes with multiple direct superclasses")
    add("C_MTangledness", "structural", "count", "nat", "max direct superclasses of a class")
    add("P_MD", "structural", "count", "nat", "max depth of the object property hierarchy")
    add("P_MSB", "structural", "count", "nat", "max direct subproperties of a property")
    add("P_ASB", "structural", "ratio", "[0,inf)", "direct subproperty links per property")
    add("P_Tangledness", "structural", "count", "nat", "properties with multiple direct superproperties")
    add("P_MTangledness", "structural", "count", "nat", "max direct superproperties of a property")
    add("CCOH", "structural", "ratio", "[0,1]", "class hierarchy cohesion")
    add("PCOH", "structural", "ratio", "[0,1]", "property hierarchy cohesion")
    add("OPCOH", "structural", "ratio", "[0,1]", "object property domain/range cohesion")
    add("OCOH", "structural", "ratio", "[0,1]", "weighted aggregate cohesion")
    add("RRichness", "structural", "ratio", "[0,1]", "non-hierarchical relation share")
    add("AttrRichness", "structural", "ratio", "[0,inf)", "data properties per class")
    add("RTBx", "syntactic", "ratio", "[0,1]", "TBox share of logical axioms")
    add("RRBx", "syntactic", "ratio", "[0,1]", "RBox share of logical axioms")
    add("RABx", "syntactic", "ratio", "[0,1]", "ABox share of logical axioms")
    for t in LOGICAL_AXIOM_TYPES:
        add(f"ATF_{t}", "syntactic", "ratio", "[0,1]", f"frequency of {t} axioms")
    add("AMP", "syntactic", "count", "nat", "max axiom nesting depth")
    add("AAP", "syntactic", "ratio", "[0,inf)", "mean axiom nesting depth")
    for c in CLASS_CONSTRUCTORS:
        add(f"CCF_{c}", "syntactic", "ratio", "[0,1]", f"share of {c} among constructor uses")
    add("OCCD", "syntactic", "ratio", "[0,1]", "constructor density over TBox axioms")
    add("IU", "syntactic", "count", "nat", "intersection/union direct couplings")
    add("EUvI", "syntactic", "count", "nat", "same-role existential+universal couplings")
    add("CUvI", "syntactic", "count", "nat", "same-role cardinality+universal couplings")
    add("PCD", "syntactic", "ratio", "[0,1]", "primitive class definition share of TBox")
    add("NPCD", "syntactic", "ratio", "[0,1]", "non-primitive class definition share of TBox")
    add("GCI", "syntactic", "ratio", "[0,1]", "general inclusion share of TBox")
    add("CCyc", "syntactic", "ratio", "[0,1]", "share of classes on definition cycles")
    add("CDIJ", "syntactic", "ratio", "[0,1]", "share of classes under disjointness")
    add("CNOM", "syntactic", "ratio", "[0,1]", "share of classes defined with nominals")
    for c in PROPERTY_CHARACTERISTICS:
        add(f"OPCF_{c}", "syntactic", "ratio", "[0,1]",
            f"TBox usage share of {c}-declared properties")
    add("HVC_Min", "syntactic", "count", "nat", "largest min-cardinality value")
    add("HVC_Max", "syntactic", "count", "nat", "largest max-cardinality value")
    add("HVC_Exact", "syntactic", "count", "nat", "largest exact-cardinality value")
    add("AVC", "syntactic", "ratio", "[0,inf)", "mean cardinality value")
    add("NomTB", "syntactic", "ratio", "[0,inf)", "nominal occurrences in TBox per individual")
    add("TBNom", "syntactic", "ratio", "[0,1]", "share of TBox axioms containing nominals")
    add("IDISJ", "syntactic", "ratio", "[0,1]", "share of individuals asserted different")
    add("ISAM", "syntactic", "ratio", "[0,1]", "share of individuals asserted same")
    return tuple(entries)


FEATURE_SCHEMA: tuple[FeatureSpec, ...] = _build_schema()
FEATURE_IDS: tuple[str, ...] = tuple(s.id for s in FEATURE_SCHEMA)
FEATURE_GROUPS: tuple[str, ...] = ("size", "expressivity", "structural", "syntactic")
# The weights of CCOH, PCOH and OPCOH in OCOH.
COHESION_WEIGHTS: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)


def schema_as_dict() -> dict:
    """Machine-readable schema document, as `ontoprof schema` prints it."""
    return {"schema_version": SCHEMA_VERSION,
            "features": [s._asdict() for s in FEATURE_SCHEMA]}
