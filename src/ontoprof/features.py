"""The feature vector of an ontology.

`extract_all` is a pure function of the parsed ontology, arithmetic over
its census, signature and two hierarchies. It is total on any well-formed
input: ratio features whose denominator is zero come out as 0 so the
vector is always complete.  The vector's layout is the catalogue in
`schema`, frozen per schema version.
"""

from __future__ import annotations

import sys

from .expressivity import dl_family_name, owl_profile
from .hierarchy import build_class_hierarchy, build_property_hierarchy, cyclic_classes
from .model import (BUILTIN_CLASSES, BUILTIN_DATA_PROPERTIES, BUILTIN_OBJECT_PROPERTIES,
                    Ontology, Record)
from .schema import (CLASS_CONSTRUCTORS, COHESION_WEIGHTS, LOGICAL_AXIOM_TYPES,
                     PROPERTY_CHARACTERISTICS, SCHEMA_VERSION)


def _ratio(num, den) -> float:
    return num / den if den > 0 else 0.0


def _count_without(names, excluded: frozenset) -> int:
    """len(names - excluded), without copying `names`."""
    return len(names) - len(excluded & names)


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
    largest = dict.fromkeys(("ObjectMinCardinality", "ObjectMaxCardinality",
                             "ObjectExactCardinality"), 0)
    count = total_value = 0
    for (tag, n), k in census.sizes.items():
        if tag in largest:
            largest[tag] = max(largest[tag], n)
            count += k
            total_value += n * k
    values["HVC_Min"], values["HVC_Max"], values["HVC_Exact"] = largest.values()
    try:
        values["AVC"] = total_value / count if count else 0.0
    except OverflowError:  # a mean beyond the float range saturates
        values["AVC"] = sys.float_info.max

    values["NomTB"] = _ratio(census.nominals, si)
    values["TBNom"] = _ratio(census.nominal_axioms, tbox_size)
    values["IDISJ"] = _ratio(len(census.different_individuals), si)
    values["ISAM"] = _ratio(len(census.same_individuals), si)
    return FeatureVector(schema_version=SCHEMA_VERSION, values=values)

