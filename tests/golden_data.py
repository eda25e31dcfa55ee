"""Hand-derived expected feature vectors for the golden micro-ontologies.

Each entry lists only the features that differ from the all-zero baseline
(OPR=PFULL, DFN=AL); every value below was derived by hand from the fixture
axioms.  Fixtures live in fixtures/golden/.
"""

from pathlib import Path

from ontoprof.schema import FEATURE_SCHEMA

GOLDEN_DIR = Path(__file__).parent / "fixtures" / "golden"
DEGENERATE_DIR = Path(__file__).parent / "fixtures" / "degenerate"


def zero_vector() -> dict:
    values: dict = {}
    for spec in FEATURE_SCHEMA:
        if spec.id == "OPR":
            values[spec.id] = "PFULL"
        elif spec.id == "DFN":
            values[spec.id] = "AL"
        elif spec.kind == "count":
            values[spec.id] = 0
        else:
            values[spec.id] = 0.0
    return values


def expected_vector(name: str) -> dict:
    values = zero_vector()
    values.update(GOLDEN[name])
    return values


GOLDEN: dict[str, dict] = {
    # Textbook 13-axiom family knowledge base: class equivalences with
    # intersection and complement, every property axiom form, four assertions.
    "family_kb": {
        "SC": 6, "SOP": 8, "SI": 5, "SLA": 13, "SA": 13,
        "OPR": "DL", "DFN": "SHIF",
        "P_MD": 1, "P_MSB": 1, "P_ASB": 1 / 8, "P_MTangledness": 1,
        "PCOH": 2 / 56, "OCOH": (2 / 56) / 3,
        "RRichness": 1.0,
        "RTBx": 3 / 13, "RRBx": 6 / 13, "RABx": 4 / 13,
        "ATF_SubClassOf": 1 / 13, "ATF_EquivalentClasses": 2 / 13,
        "ATF_EquivalentObjectProperties": 1 / 13, "ATF_SubObjectPropertyOf": 1 / 13,
        "ATF_InverseObjectProperties": 1 / 13, "ATF_TransitiveObjectProperty": 1 / 13,
        "ATF_FunctionalObjectProperty": 1 / 13,
        "ATF_InverseFunctionalObjectProperty": 1 / 13,
        "ATF_ClassAssertion": 1 / 13, "ATF_ObjectPropertyAssertion": 1 / 13,
        "ATF_SameIndividual": 1 / 13, "ATF_DifferentIndividuals": 1 / 13,
        "AMP": 1, "AAP": 3 / 13,
        "CCF_ObjectIntersectionOf": 2 / 3, "CCF_ObjectComplementOf": 1 / 3,
        "OCCD": 1.0,
        "PCD": 1 / 3, "NPCD": 2 / 3,
        "IDISJ": 2 / 5, "ISAM": 2 / 5,
    },
    # Three named classes in a subsumption chain, padded with declarations.
    "chain3": {
        "SC": 3, "SLA": 2, "SA": 5,
        "OPR": "PFULL", "DFN": "AL",
        "C_MD": 2, "C_MSB": 1, "C_ASB": 2 / 3, "C_MTangledness": 1,
        "CCOH": 1.0, "OCOH": 1 / 3,
        "RTBx": 1.0, "ATF_SubClassOf": 1.0,
        "PCD": 1.0,
    },
    # One object property with a named domain and range over two classes.
    "oprop_cohesion": {
        "SC": 2, "SOP": 1, "SLA": 2, "SA": 5,
        "OPR": "PFULL", "DFN": "AL",
        "OPCOH": 1.0, "OCOH": 1 / 3,
        "RRichness": 1.0,
        "RRBx": 1.0,
        "ATF_ObjectPropertyDomain": 0.5, "ATF_ObjectPropertyRange": 0.5,
    },
    # Two TBox axioms carrying three and one constructor occurrences.
    "occd": {
        "SC": 6, "SOP": 1, "SLA": 2, "SA": 9,
        "OPR": "DL", "DFN": "ALC",
        "RRichness": 1.0,
        "RTBx": 1.0, "ATF_SubClassOf": 1.0,
        "AMP": 3, "AAP": 2.0,
        "CCF_ObjectIntersectionOf": 0.25, "CCF_ObjectUnionOf": 0.25,
        "CCF_ObjectComplementOf": 0.25, "CCF_ObjectSomeValuesFrom": 0.25,
        "OCCD": 2 / 3,
        "IU": 1,
        "PCD": 1.0,
    },
    # Transitive property used four times in TBox positions, symmetric once.
    "opcf": {
        "SC": 4, "SOP": 2, "SLA": 6, "SA": 6,
        "OPR": "DL", "DFN": "S",
        "RRichness": 1.0,
        "RTBx": 4 / 6, "RRBx": 2 / 6,
        "ATF_SubClassOf": 4 / 6, "ATF_TransitiveObjectProperty": 1 / 6,
        "ATF_SymmetricObjectProperty": 1 / 6,
        "AMP": 2, "AAP": 5 / 6,
        "CCF_ObjectSomeValuesFrom": 4 / 5, "CCF_ObjectAllValuesFrom": 1 / 5,
        "OCCD": 5 / 8,
        "PCD": 1.0,
        "CCyc": 1.0,
        "OPCF_Transitive": 0.8, "OPCF_Symmetric": 0.2,
    },
    # One of each coupling pattern plus near-miss variants.
    "patterns": {
        "SC": 7, "SOP": 2, "SLA": 6, "SA": 6,
        "OPR": "DL", "DFN": "ALCQ",
        "RRichness": 1.0,
        "RTBx": 1.0, "ATF_SubClassOf": 1.0,
        "AMP": 2, "AAP": 10 / 6,
        "CCF_ObjectIntersectionOf": 4 / 13, "CCF_ObjectUnionOf": 1 / 13,
        "CCF_ObjectSomeValuesFrom": 3 / 13, "CCF_ObjectAllValuesFrom": 4 / 13,
        "CCF_ObjectMinCardinality": 1 / 13,
        "OCCD": 13 / 18,
        "IU": 1, "EUvI": 2, "CUvI": 1,
        "PCD": 1.0,
        "HVC_Min": 2, "AVC": 2.0,
    },
    # Nominal-based definitions plus individual similarity assertions.
    "nominals": {
        "SC": 2, "SOP": 1, "SI": 5, "SLA": 4, "SA": 7,
        "OPR": "RL", "DFN": "ALO",
        "RRichness": 1.0,
        "RTBx": 0.5, "RABx": 0.5,
        "ATF_EquivalentClasses": 0.25, "ATF_SubClassOf": 0.25,
        "ATF_SameIndividual": 0.25, "ATF_DifferentIndividuals": 0.25,
        "AMP": 1, "AAP": 0.5,
        "CCF_ObjectHasValue": 0.5, "CCF_ObjectOneOf": 0.5,
        "OCCD": 1.0,
        "PCD": 0.5, "NPCD": 0.5,
        "CNOM": 1.0,
        "NomTB": 3 / 5, "TBNom": 1.0,
        "IDISJ": 3 / 5, "ISAM": 2 / 5,
    },
    # Definition cycles of all three kinds plus an asserted hierarchy cycle.
    "cycles": {
        "SC": 6, "SOP": 3, "SLA": 6, "SA": 6,
        "OPR": "PFULL", "DFN": "ALC",
        "C_MD": 1, "C_MSB": 1, "C_ASB": 0.5,
        "C_Tangledness": 1, "C_MTangledness": 2,
        "CCOH": 0.4, "OCOH": 0.4 / 3,
        "RRichness": 0.5,
        "RTBx": 1.0,
        "ATF_SubClassOf": 4 / 6, "ATF_EquivalentClasses": 2 / 6,
        "AMP": 1, "AAP": 0.5,
        "CCF_ObjectSomeValuesFrom": 1.0, "OCCD": 0.5,
        "PCD": 4 / 6, "NPCD": 2 / 6,
        "CCyc": 5 / 6,
    },
    # Inverse properties pass QL and RL but not EL: tie-break fixture.
    "profiles_ql": {
        "SC": 1, "SOP": 2, "SLA": 2, "SA": 5,
        "OPR": "QL", "DFN": "ALCI",
        "RRichness": 1.0,
        "RTBx": 0.5, "RRBx": 0.5,
        "ATF_SubClassOf": 0.5, "ATF_InverseObjectProperties": 0.5,
        "AMP": 1, "AAP": 0.5,
        "CCF_ObjectSomeValuesFrom": 1.0, "OCCD": 1.0,
        "PCD": 1.0,
        "CCyc": 1.0,
        "OPCF_Inverse": 1.0,
    },
    # Transitive property inside a cardinality restriction violates every
    # profile including DL.
    "pnan": {
        "SC": 3, "SOP": 1, "SLA": 2, "SA": 5,
        "OPR": "PNAN", "DFN": "SQ",
        "RRichness": 1.0,
        "RTBx": 0.5, "RRBx": 0.5,
        "ATF_SubClassOf": 0.5, "ATF_TransitiveObjectProperty": 0.5,
        "AMP": 3, "AAP": 1.5,
        "CCF_ObjectMinCardinality": 1 / 3, "CCF_ObjectUnionOf": 1 / 3,
        "CCF_ObjectAllValuesFrom": 1 / 3,
        "OCCD": 1.0,
        "PCD": 1.0,
        "OPCF_Transitive": 1.0,
        "HVC_Min": 2, "AVC": 2.0,
    },
    # Data property spread: restriction, range, assertion, sub-property.
    "data_props": {
        "SC": 1, "SDP": 3, "SI": 1, "SDT": 2, "SLA": 5, "SA": 8,
        "OPR": "EL", "DFN": "ALF(D)",
        "AttrRichness": 3.0,
        "RTBx": 0.2, "RRBx": 0.6, "RABx": 0.2,
        "ATF_SubClassOf": 0.2, "ATF_FunctionalDataProperty": 0.2,
        "ATF_DataPropertyRange": 0.2, "ATF_DataPropertyAssertion": 0.2,
        "ATF_SubDataPropertyOf": 0.2,
        "AMP": 1, "AAP": 0.2,
        "PCD": 1.0,
    },
    # Min, max and exact cardinalities with values 2, 5 and 3.
    "cards": {
        "SC": 4, "SOP": 2, "SLA": 3, "SA": 5,
        "OPR": "DL", "DFN": "ALQ",
        "RRichness": 1.0,
        "RTBx": 1.0, "ATF_SubClassOf": 1.0,
        "AMP": 1, "AAP": 1.0,
        "CCF_ObjectMinCardinality": 1 / 3, "CCF_ObjectMaxCardinality": 1 / 3,
        "CCF_ObjectExactCardinality": 1 / 3,
        "OCCD": 1.0,
        "PCD": 1.0,
        "HVC_Min": 2, "HVC_Max": 5, "HVC_Exact": 3, "AVC": 10 / 3,
    },
    # Assertions only: TBox-denominated features all fall back to zero.
    "abox_only": {
        "SC": 1, "SOP": 1, "SDP": 1, "SI": 3, "SDT": 1, "SLA": 5, "SA": 5,
        "OPR": "EL", "DFN": "AL(D)",
        "RRichness": 1.0, "AttrRichness": 1.0,
        "RABx": 1.0,
        "ATF_ClassAssertion": 0.2, "ATF_ObjectPropertyAssertion": 0.2,
        "ATF_SameIndividual": 0.2, "ATF_DifferentIndividuals": 0.2,
        "ATF_DataPropertyAssertion": 0.2,
        "IDISJ": 2 / 3, "ISAM": 2 / 3,
    },
    # Complex-sided definitions, multi-parent tangling, disjointness.
    "gci_tangled": {
        "SC": 6, "SOP": 1, "SLA": 9, "SA": 9,
        "OPR": "DL", "DFN": "ALC",
        "C_MD": 1, "C_MSB": 2, "C_ASB": 5 / 6,
        "C_Tangledness": 2, "C_MTangledness": 3,
        "CCOH": 1 / 3, "OCOH": 1 / 9,
        "RRichness": 1 / 6,
        "RTBx": 1.0,
        "ATF_SubClassOf": 6 / 9, "ATF_EquivalentClasses": 1 / 9,
        "ATF_DisjointClasses": 1 / 9, "ATF_DisjointUnion": 1 / 9,
        "AMP": 1, "AAP": 2 / 9,
        "CCF_ObjectUnionOf": 1 / 3, "CCF_ObjectSomeValuesFrom": 2 / 3,
        "OCCD": 3 / 18,
        "PCD": 5 / 9, "GCI": 2 / 9,
        "CDIJ": 5 / 6,
    },
    # Property chain plus reflexivity: inside EL, outside QL and RL.
    "el_chain": {
        "SC": 1, "SOP": 3, "SLA": 4, "SA": 5,
        "OPR": "EL", "DFN": "ALCR",
        "RRichness": 1.0,
        "RTBx": 0.25, "RRBx": 0.75,
        "ATF_SubClassOf": 0.25, "ATF_SubObjectPropertyOf": 0.25,
        "ATF_ObjectPropertyDomain": 0.25, "ATF_ReflexiveObjectProperty": 0.25,
        "AMP": 1, "AAP": 0.25,
        "CCF_ObjectSomeValuesFrom": 1.0, "OCCD": 1.0,
        "PCD": 1.0,
        "CCyc": 1.0,
        "OPCF_Chain": 1.0,
    },
}

# Degenerate fixtures (outside the 5..30 axiom golden band, used by the
# totality criterion): expected vectors are still fully specified.
DEGENERATE: dict[str, dict] = {
    "empty": {},
    "single_class": {"SC": 1, "SA": 1},
}
