"""The ontology feature catalogue.

`extract_all` is a pure function of the parsed ontology, arithmetic over
its census, signature and two hierarchies. It is total on any well-formed
input: ratio features whose denominator is zero come out as 0 so the
vector is always complete.  The vector layout is frozen per schema
version and mirrored in data/feature_schema.json.
"""

from __future__ import annotations

import sys
from collections import namedtuple

from .expressivity import dl_family_name, owl_profile
from .hierarchy import build_class_hierarchy, build_property_hierarchy, cyclic_classes
from .model import (
    BUILTIN_CLASSES, BUILTIN_DATA_PROPERTIES, BUILTIN_OBJECT_PROPERTIES,
    CLASS_CONSTRUCTORS, LOGICAL_AXIOM_TYPES, PROPERTY_CHARACTERISTICS, Ontology, Record,
)

SCHEMA_VERSION = "1"

def _ratio(num, den) -> float:
    return num / den if den > 0 else 0.0


def _count_without(names, excluded: frozenset) -> int:
    """len(names - excluded), without copying `names`."""
    return len(names) - len(excluded & names)


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


def extract_all(o: Ontology,
                cohesion_weights: tuple[float, float, float] = COHESION_WEIGHTS) -> FeatureVector:
    """Full feature vector, each value written once, in schema order."""
    census = o.census  # the one walk over the axioms, before the layers that read it
    ch = build_class_hierarchy(o)
    ph = build_property_hierarchy(o)
    sig = o.signature
    sc = _count_without(sig.classes, BUILTIN_CLASSES)
    sop = _count_without(sig.object_properties, BUILTIN_OBJECT_PROPERTIES)
    sdp = _count_without(sig.data_properties, BUILTIN_DATA_PROPERTIES)
    si = len(sig.individuals)
    sla = o.logical_axiom_count
    tbox_size = len(o.tbox)
    nc, np_ = len(ch.nodes), len(ph.nodes)
    values: dict[str, int | float | str] = {
        "SC": sc, "SOP": sop, "SDP": sdp, "SI": si, "SDT": len(sig.datatypes),
        "SLA": sla, "SA": len(o.axioms),
        "OPR": owl_profile(o).value,
        "DFN": dl_family_name(o).value,
    }

    for prefix, h in (("C_", ch), ("P_", ph)):
        values[prefix + "MD"] = h.depth
        values[prefix + "MSB"] = h.max_children
        values[prefix + "ASB"] = _ratio(h.ndhc, len(h.nodes))
        values[prefix + "Tangledness"] = h.tangled
        values[prefix + "MTangledness"] = h.max_parents

    coupling = sum(len(classes) * len(census.ranges.get(p, ()))
                   for p, classes in census.domains.items())
    # Asserted cycles can push the link count past the tree-shaped bound the
    # formulas assume; cohesion stays within [0,1] by clamping.
    ccoh = min(_ratio(2 * (ch.ndhc + ch.nidhc), nc * nc - nc), 1.0)
    pcoh = min(_ratio(2 * (ph.ndhc + ph.nidhc), np_ * np_ - np_), 1.0)
    opcoh = min(_ratio(2 * coupling, sop * (nc * nc - nc)), 1.0)
    wc, wp, wo = cohesion_weights
    values["CCOH"] = ccoh
    values["PCOH"] = pcoh
    values["OPCOH"] = opcoh
    values["OCOH"] = min(wc * ccoh + wp * pcoh + wo * opcoh, 1.0)
    values["RRichness"] = _ratio(sop, sop + ch.ndhc)
    values["AttrRichness"] = _ratio(sdp, sc)

    values["RTBx"] = _ratio(tbox_size, sla)
    values["RRBx"] = _ratio(len(o.rbox), sla)
    values["RABx"] = _ratio(len(o.abox), sla)
    for t in LOGICAL_AXIOM_TYPES:
        values[f"ATF_{t}"] = _ratio(census.axiom_types[t], sla)
    values["AMP"] = census.depth_max
    values["AAP"] = _ratio(census.depth_sum, sla)
    totals = census.constructors
    grand_total = sum(totals[c] for c in CLASS_CONSTRUCTORS)
    for c in CLASS_CONSTRUCTORS:
        values[f"CCF_{c}"] = _ratio(totals[c], grand_total)
    values["OCCD"] = _ratio(grand_total, tbox_size * census.constructor_max)
    values["IU"] = census.iu
    values["EUvI"] = census.euvi
    values["CUvI"] = census.cuvi

    values["PCD"] = _ratio(census.pcd, tbox_size)
    values["NPCD"] = _ratio(census.npcd, tbox_size)
    values["GCI"] = _ratio(census.gci, tbox_size)
    values["CCyc"] = _ratio(_count_without(cyclic_classes(o), BUILTIN_CLASSES), sc)
    values["CDIJ"] = _ratio(_count_without(census.disjoint_classes, BUILTIN_CLASSES), sc)
    values["CNOM"] = _ratio(_count_without(census.nominal_defined, BUILTIN_CLASSES), sc)

    usage = census.property_usage
    opco = {c: sum(usage[p] for p in census.characteristics[c])
            for c in PROPERTY_CHARACTERISTICS}
    opco_total = sum(opco.values())
    for c in PROPERTY_CHARACTERISTICS:
        values[f"OPCF_{c}"] = _ratio(opco[c], opco_total)
    count = total_value = 0
    for (tag, n), k in census.sizes.items():
        if tag in ("ObjectMinCardinality", "ObjectMaxCardinality", "ObjectExactCardinality"):
            count += k
            total_value += n * k
    values["HVC_Min"] = census.largest("ObjectMinCardinality")
    values["HVC_Max"] = census.largest("ObjectMaxCardinality")
    values["HVC_Exact"] = census.largest("ObjectExactCardinality")
    try:
        values["AVC"] = total_value / count if count else 0.0
    except OverflowError:  # a mean beyond the float range saturates
        values["AVC"] = sys.float_info.max

    values["NomTB"] = _ratio(census.nominals, si)
    values["TBNom"] = _ratio(census.nominal_axioms, tbox_size)
    values["IDISJ"] = _ratio(len(census.different_individuals), si)
    values["ISAM"] = _ratio(len(census.same_individuals), si)
    return FeatureVector(schema_version=SCHEMA_VERSION, values=values)


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
