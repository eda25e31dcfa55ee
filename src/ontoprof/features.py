"""The ontology feature catalogue.

Every extractor is a pure function of the parsed ontology (plus its
hierarchy indexes), total on any well-formed input: ratio features whose
denominator is zero come out as 0 so the vector is always complete.  The
vector layout is frozen per schema version and mirrored in
data/feature_schema.json.
"""

from __future__ import annotations

import sys
from collections import namedtuple

from .expressivity import dl_family_name, owl_profile
from .hierarchy import (
    Hierarchy, build_class_hierarchy, build_property_hierarchy, cyclic_classes,
    fanout_stats, max_depth, tangledness,
)
from .model import (
    BUILTIN_CLASSES, BUILTIN_DATA_PROPERTIES, BUILTIN_OBJECT_PROPERTIES,
    CLASS_CONSTRUCTORS, LOGICAL_AXIOM_TYPES, PROPERTY_CHARACTERISTICS, Ontology, Record,
)

SCHEMA_VERSION = "1"

def _ratio(num, den) -> float:
    return num / den if den > 0 else 0.0


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


class FeatureVector(Record):
    """Ordered, fixed-arity feature map; treat as immutable once built."""

    __slots__ = _fields = ("schema_version", "values")

    def __init__(self, schema_version: str, values: dict[str, int | float | str]):
        self.schema_version, self.values = schema_version, values

    def __getitem__(self, fid: str):
        return self.values[fid]

    def items(self):
        return self.values.items()


PatternCount = namedtuple("PatternCount", "iu euvi cuvi")


def size_features(o: Ontology) -> dict:
    sig = o.signature
    return {
        "SC": len(sig.classes - BUILTIN_CLASSES),
        "SOP": len(sig.object_properties - BUILTIN_OBJECT_PROPERTIES),
        "SDP": len(sig.data_properties - BUILTIN_DATA_PROPERTIES),
        "SI": len(sig.individuals),
        "SDT": len(sig.datatypes),
        "SLA": o.logical_axiom_count,
        "SA": len(o.axioms),
    }


def hierarchy_features(ch: Hierarchy, ph: Hierarchy) -> dict:
    c_msb, c_asb = fanout_stats(ch)
    p_msb, p_asb = fanout_stats(ph)
    c_tng, c_mtng = tangledness(ch)
    p_tng, p_mtng = tangledness(ph)
    return {
        "C_MD": max_depth(ch), "C_MSB": c_msb, "C_ASB": c_asb,
        "C_Tangledness": c_tng, "C_MTangledness": c_mtng,
        "P_MD": max_depth(ph), "P_MSB": p_msb, "P_ASB": p_asb,
        "P_Tangledness": p_tng, "P_MTangledness": p_mtng,
    }


def cohesion_features(o: Ontology, ch: Hierarchy, ph: Hierarchy,
                      weights: tuple[float, float, float] = COHESION_WEIGHTS) -> dict:
    nc = len(ch.nodes)
    np_ = len(ph.nodes)
    ccoh = _ratio(2 * (ch.ndhc + ch.nidhc), nc * nc - nc)
    pcoh = _ratio(2 * (ph.ndhc + ph.nidhc), np_ * np_ - np_)
    census = o.census
    noprop = len(o.signature.object_properties - BUILTIN_OBJECT_PROPERTIES)
    coupling = sum(len(classes) * len(census.ranges.get(p, ()))
                   for p, classes in census.domains.items())
    opcoh = _ratio(2 * coupling, noprop * (nc * nc - nc))
    # Asserted cycles can push the link count past the tree-shaped bound the
    # formulas assume; cohesion stays within [0,1] by clamping.
    ccoh, pcoh, opcoh = min(ccoh, 1.0), min(pcoh, 1.0), min(opcoh, 1.0)
    wc, wp, wo = weights
    ocoh = min(wc * ccoh + wp * pcoh + wo * opcoh, 1.0)
    return {"CCOH": ccoh, "PCOH": pcoh, "OPCOH": opcoh, "OCOH": ocoh}


def richness_features(o: Ontology, ch: Hierarchy) -> dict:
    sizes = size_features(o)
    return {
        "RRichness": _ratio(sizes["SOP"], sizes["SOP"] + ch.ndhc),
        "AttrRichness": _ratio(sizes["SDP"], sizes["SC"]),
    }


def axiom_level_features(o: Ontology) -> dict:
    census = o.census
    sla = o.logical_axiom_count
    out = {
        "RTBx": _ratio(len(o.tbox), sla),
        "RRBx": _ratio(len(o.rbox), sla),
        "RABx": _ratio(len(o.abox), sla),
    }
    for t in LOGICAL_AXIOM_TYPES:
        out[f"ATF_{t}"] = _ratio(census.axiom_types[t], sla)
    out["AMP"] = census.depth_max
    out["AAP"] = census.depth_sum / sla if sla else 0.0
    return out


def constructor_features(o: Ontology) -> dict:
    census = o.census
    totals = census.constructors
    grand_total = sum(totals[c] for c in CLASS_CONSTRUCTORS)
    out = {f"CCF_{c}": _ratio(totals[c], grand_total) for c in CLASS_CONSTRUCTORS}
    out["OCCD"] = _ratio(grand_total, len(o.tbox) * census.constructor_max)
    return out


def pattern_counts(o: Ontology) -> PatternCount:
    census = o.census
    return PatternCount(iu=census.iu, euvi=census.euvi, cuvi=census.cuvi)


def class_level_features(o: Ontology, cyclic: frozenset[str]) -> dict:
    census = o.census
    tbox_size = len(o.tbox)
    sc = len(o.signature.classes - BUILTIN_CLASSES)
    return {
        "PCD": _ratio(census.pcd, tbox_size),
        "NPCD": _ratio(census.npcd, tbox_size),
        "GCI": _ratio(census.gci, tbox_size),
        "CCyc": _ratio(len(cyclic - BUILTIN_CLASSES), sc),
        "CDIJ": _ratio(len(census.disjoint_classes - BUILTIN_CLASSES), sc),
        "CNOM": _ratio(len(census.nominal_defined - BUILTIN_CLASSES), sc),
    }


def property_level_features(o: Ontology) -> dict:
    census = o.census
    usage = census.property_usage
    opco = {c: sum(usage[p] for p in census.characteristics[c])
            for c in PROPERTY_CHARACTERISTICS}
    total = sum(opco.values())
    out = {f"OPCF_{c}": _ratio(opco[c], total) for c in PROPERTY_CHARACTERISTICS}
    count = total_value = 0
    for (tag, n), k in census.sizes.items():
        if tag in ("ObjectMinCardinality", "ObjectMaxCardinality", "ObjectExactCardinality"):
            count += k
            total_value += n * k
    out["HVC_Min"] = census.largest("ObjectMinCardinality")
    out["HVC_Max"] = census.largest("ObjectMaxCardinality")
    out["HVC_Exact"] = census.largest("ObjectExactCardinality")
    try:
        out["AVC"] = total_value / count if count else 0.0
    except OverflowError:  # a mean beyond the float range saturates
        out["AVC"] = sys.float_info.max
    return out


def individual_level_features(o: Ontology) -> dict:
    census = o.census
    si = len(o.signature.individuals)
    return {
        "NomTB": _ratio(census.nominals, si),
        "TBNom": _ratio(census.nominal_axioms, len(o.tbox)),
        "IDISJ": _ratio(len(census.different_individuals), si),
        "ISAM": _ratio(len(census.same_individuals), si),
    }


def extract_all(o: Ontology,
                cohesion_weights: tuple[float, float, float] = COHESION_WEIGHTS) -> FeatureVector:
    """Full feature vector in schema order."""
    o.census  # the one walk over the axioms, before the layers that read it
    ch = build_class_hierarchy(o)
    ph = build_property_hierarchy(o)
    patterns = pattern_counts(o)
    computed: dict[str, int | float | str] = {}
    computed.update(size_features(o))
    computed["OPR"] = owl_profile(o).value
    computed["DFN"] = dl_family_name(o).value
    computed.update(hierarchy_features(ch, ph))
    computed.update(cohesion_features(o, ch, ph, cohesion_weights))
    computed.update(richness_features(o, ch))
    computed.update(axiom_level_features(o))
    computed.update(constructor_features(o))
    computed.update({"IU": patterns.iu, "EUvI": patterns.euvi, "CUvI": patterns.cuvi})
    computed.update(class_level_features(o, cyclic_classes(o)))
    computed.update(property_level_features(o))
    computed.update(individual_level_features(o))
    ordered = {fid: computed[fid] for fid in FEATURE_IDS}
    return FeatureVector(schema_version=SCHEMA_VERSION, values=ordered)


def schema_as_dict() -> dict:
    """Machine-readable schema document (mirrors data/feature_schema.json)."""
    return {
        "schema_version": SCHEMA_VERSION,
        "features": [
            {"id": s.id, "group": s.group, "kind": s.kind,
             "domain": s.domain, "description": s.description}
            for s in FEATURE_SCHEMA
        ],
    }
