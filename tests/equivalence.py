"""Per-ontology equivalence checks between the extractor and the oracles.

Shared by the randomized acceptance criteria; every count-based feature is
recomputed here from oracle quantities and compared at 1e-9 for ratios.
"""

import random
from collections import Counter

from ontoprof.expressivity import profile_checks
from ontoprof.features import extract_all
from ontoprof.hierarchy import build_class_hierarchy, build_property_hierarchy
from ontoprof.model import CLASS_CONSTRUCTORS, LOGICAL_AXIOM_TYPES, Ontology

import oracles
from gen import rename_ontology

TOL = 1e-9


def ratio(num, den):
    return num / den if den > 0 else 0.0


def assert_close(got, want, label):
    assert abs(got - want) <= TOL, f"{label}: got {got!r}, oracle {want!r}"


def check_against_oracles(o: Ontology):
    vector = extract_all(o)
    logical = [ax for ax in o.axioms if oracles.category(ax) != "NonLogical"]
    sla = len(logical)

    # Size features against the scratch signature walker.
    names = oracles.signature_names(o)
    assert vector["SC"] == len(names["classes"])
    assert vector["SOP"] == len(names["object_properties"])
    assert vector["SDP"] == len(names["data_properties"])
    assert vector["SI"] == len(names["individuals"])
    assert vector["SDT"] == len(names["datatypes"])
    assert vector["SLA"] == sla
    assert vector["SA"] == len(o.axioms)
    sig = o.signature
    for field in ("classes", "object_properties", "data_properties", "individuals",
                  "datatypes", "annotation_properties"):
        assert getattr(sig, field) == names[field], field
    assert sig.anonymous_individuals == names["anonymous"]

    # KB partition and per-type frequencies.
    cats = Counter(oracles.category(ax) for ax in o.axioms)
    assert_close(vector["RTBx"], ratio(cats["TBox"], sla), "RTBx")
    assert_close(vector["RRBx"], ratio(cats["RBox"], sla), "RRBx")
    assert_close(vector["RABx"], ratio(cats["ABox"], sla), "RABx")
    types = Counter(oracles.tag(ax) for ax in logical)
    for t in LOGICAL_AXIOM_TYPES:
        assert_close(vector[f"ATF_{t}"], ratio(types[t], sla), f"ATF_{t}")
    if sla:
        assert_close(vector["RTBx"] + vector["RRBx"] + vector["RABx"], 1.0, "KBF closure")
        assert_close(sum(vector[f"ATF_{t}"] for t in LOGICAL_AXIOM_TYPES), 1.0,
                     "ATF closure")

    # Depths.
    depths = [oracles.axiom_depth(ax) for ax in logical]
    assert vector["AMP"] == max(depths, default=0)
    assert_close(vector["AAP"], ratio(sum(depths), sla), "AAP")

    # Constructor counts over TBox axioms.
    tbox = [ax for ax in o.axioms if oracles.category(ax) == "TBox"]
    per_cc = {c: sum(oracles.constructor_count(ax, c) for ax in tbox)
              for c in CLASS_CONSTRUCTORS}
    grand = sum(per_cc.values())
    for c in CLASS_CONSTRUCTORS:
        assert_close(vector[f"CCF_{c}"], ratio(per_cc[c], grand), f"CCF_{c}")
    per_axiom_max = max((oracles.constructor_total(ax) for ax in tbox), default=0)
    assert_close(vector["OCCD"], ratio(grand, len(tbox) * per_axiom_max), "OCCD")
    if grand:
        assert_close(sum(vector[f"CCF_{c}"] for c in CLASS_CONSTRUCTORS), 1.0,
                     "CCF closure")

    # Expressivity: the profile checks axiom by axiom, and the DL letters.
    assert profile_checks(o) == oracles.profile_checks(o)
    assert vector["OPR"] == oracles.profile_label(o)
    assert vector["DFN"] == oracles.dl_name(o)

    # Coupling patterns.
    iu, euvi, cuvi = oracles.pattern_counts(o)
    assert (vector["IU"], vector["EUvI"], vector["CUvI"]) == (iu, euvi, cuvi)

    # Hierarchies: direct/indirect links, depth, fan-out, tangledness.
    ch = build_class_hierarchy(o)
    ph = build_property_hierarchy(o)
    closure = {}
    for vecprefix, h, edges_oracle in (("C", ch, oracles.class_edges(o)),
                                       ("P", ph, oracles.property_edges(o))):
        assert h.direct_edges == edges_oracle
        pairs = oracles.reachability(h.nodes, edges_oracle)
        closure[vecprefix] = len(pairs)
        assert h.nidhc == len(pairs) - len(edges_oracle)
        assert vector[f"{vecprefix}_MD"] == oracles.longest_condensation_path(
            h.nodes, edges_oracle)
        msb, mtang, tangled = oracles.fanout_and_tangledness(h.nodes, edges_oracle)
        assert vector[f"{vecprefix}_MSB"] == msb
        assert vector[f"{vecprefix}_MTangledness"] == mtang
        assert vector[f"{vecprefix}_Tangledness"] == tangled
        assert_close(vector[f"{vecprefix}_ASB"],
                     ratio(len(edges_oracle), len(h.nodes)), f"{vecprefix}_ASB")

    # Cohesion: hierarchy links over node pairs, domain/range couplings.
    nc = len(names["classes"])
    np_ = len(names["object_properties"])
    ccoh = min(1.0, ratio(2 * closure["C"], nc * nc - nc))
    pcoh = min(1.0, ratio(2 * closure["P"], np_ * np_ - np_))
    opcoh = min(1.0, ratio(2 * oracles.domain_range_coupling(o),
                           vector["SOP"] * (nc * nc - nc)))
    assert_close(vector["CCOH"], ccoh, "CCOH")
    assert_close(vector["PCOH"], pcoh, "PCOH")
    assert_close(vector["OPCOH"], opcoh, "OPCOH")
    assert_close(vector["OCOH"], min(1.0, (ccoh + pcoh + opcoh) / 3), "OCOH")
    assert_close(vector["RRichness"],
                 ratio(vector["SOP"], vector["SOP"] + ch.ndhc), "RRichness")
    assert_close(vector["AttrRichness"], ratio(vector["SDP"], vector["SC"]),
                 "AttrRichness")

    # Class-level ratios.
    pcd, npcd, gci = oracles.class_definition_counts(o)
    assert_close(vector["PCD"], ratio(pcd, len(tbox)), "PCD")
    assert_close(vector["NPCD"], ratio(npcd, len(tbox)), "NPCD")
    assert_close(vector["GCI"], ratio(gci, len(tbox)), "GCI")
    dep_nodes, dep_edges = oracles.dependency_edges(o)
    cyc = oracles.nodes_on_cycles(dep_nodes, dep_edges)
    assert_close(vector["CCyc"], ratio(len(cyc), vector["SC"]), "CCyc")
    assert_close(vector["CDIJ"],
                 ratio(len(oracles.disjoint_class_names(o)), vector["SC"]), "CDIJ")
    assert_close(vector["CNOM"],
                 ratio(len(oracles.nominal_defined_classes(o)), vector["SC"]), "CNOM")

    # Property characteristics.
    opco = oracles.opco_sums(o)
    total = sum(opco.values())
    for name, value in opco.items():
        assert_close(vector[f"OPCF_{name}"], ratio(value, total), f"OPCF_{name}")
    if total:
        assert_close(sum(vector[f"OPCF_{n}"] for n in opco), 1.0, "OPCF closure")

    # Cardinality and nominal summaries.
    mins, maxs, exacts = oracles.cardinality_values(o)
    assert vector["HVC_Min"] == max(mins, default=0)
    assert vector["HVC_Max"] == max(maxs, default=0)
    assert vector["HVC_Exact"] == max(exacts, default=0)
    values = mins + maxs + exacts
    assert_close(vector["AVC"], ratio(sum(values), len(values)), "AVC")

    occurrences, containing = oracles.individual_tbox_occurrences(o)
    assert_close(vector["NomTB"], ratio(occurrences, vector["SI"]), "NomTB")
    assert_close(vector["TBNom"], ratio(containing, len(tbox)), "TBNom")
    same, different = oracles.same_and_different_individuals(o)
    assert_close(vector["ISAM"], ratio(len(same), vector["SI"]), "ISAM")
    assert_close(vector["IDISJ"], ratio(len(different), vector["SI"]), "IDISJ")

    # Range invariants.
    unit_features = ["CCOH", "PCOH", "OPCOH", "OCOH", "OCCD", "RTBx", "RRBx", "RABx",
                     "RRichness", "PCD", "NPCD", "GCI", "CCyc", "CDIJ", "CNOM",
                     "TBNom", "IDISJ", "ISAM"]
    unit_features += [f"ATF_{t}" for t in LOGICAL_AXIOM_TYPES]
    unit_features += [f"CCF_{c}" for c in CLASS_CONSTRUCTORS]
    unit_features += [f"OPCF_{n}" for n in opco]
    for fid in unit_features:
        assert -TOL <= vector[fid] <= 1 + TOL, f"{fid} out of [0,1]: {vector[fid]}"

    return vector


def check_invariance(o: Ontology, rng: random.Random):
    base = extract_all(o).values
    shuffled = list(o.axioms)
    rng.shuffle(shuffled)
    permuted = extract_all(Ontology(axioms=tuple(shuffled), iri=o.iri,
                                    version_iri=o.version_iri, imports=o.imports,
                                    annotations=o.annotations)).values
    assert permuted == base, "axiom permutation changed the vector"
    renamed = extract_all(rename_ontology(o)).values
    assert renamed == base, "consistent renaming changed the vector"
