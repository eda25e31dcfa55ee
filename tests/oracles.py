"""Naive re-traversal oracles for the randomized equivalence suite.

Everything here recomputes quantities from the model with deliberately
simple, separate code (type-name dispatch, matrix reachability, exhaustive
scans) so the library under test shares no traversal logic with it.
"""

import re
from collections import Counter

TBOX_NAMES = {"SubClassOf", "EquivalentClasses", "DisjointClasses", "DisjointUnion",
              "HasKey", "DatatypeDefinition"}
RBOX_NAMES = {"SubObjectPropertyOf", "EquivalentObjectProperties",
              "DisjointObjectProperties", "InverseObjectProperties",
              "ObjectPropertyDomain", "ObjectPropertyRange",
              "FunctionalObjectProperty", "InverseFunctionalObjectProperty",
              "ReflexiveObjectProperty", "IrreflexiveObjectProperty",
              "SymmetricObjectProperty", "AsymmetricObjectProperty",
              "TransitiveObjectProperty", "SubDataPropertyOf",
              "EquivalentDataProperties", "DisjointDataProperties",
              "DataPropertyDomain", "DataPropertyRange", "FunctionalDataProperty"}
ABOX_NAMES = {"SameIndividual", "DifferentIndividuals", "ClassAssertion",
              "ObjectPropertyAssertion", "NegativeObjectPropertyAssertion",
              "DataPropertyAssertion", "NegativeDataPropertyAssertion"}

CONSTRUCTOR_NAMES = {"ObjectIntersectionOf", "ObjectUnionOf", "ObjectComplementOf",
                     "ObjectOneOf", "ObjectSomeValuesFrom", "ObjectAllValuesFrom",
                     "ObjectHasValue", "ObjectHasSelf", "ObjectMinCardinality",
                     "ObjectMaxCardinality", "ObjectExactCardinality"}

RESTRICTION_NAMES = {"ObjectSomeValuesFrom", "ObjectAllValuesFrom", "ObjectHasValue",
                     "ObjectHasSelf", "ObjectMinCardinality", "ObjectMaxCardinality",
                     "ObjectExactCardinality"}


def tag(x) -> str:
    return type(x).__name__


def category(axiom) -> str:
    name = tag(axiom)
    if name in TBOX_NAMES:
        return "TBox"
    if name in RBOX_NAMES:
        return "RBox"
    if name in ABOX_NAMES:
        return "ABox"
    return "NonLogical"


def walk_expr(e):
    yield e
    name = tag(e)
    if name in ("ObjectIntersectionOf", "ObjectUnionOf"):
        for op in e.operands:
            yield from walk_expr(op)
    elif name == "ObjectComplementOf":
        yield from walk_expr(e.operand)
    elif name in ("ObjectSomeValuesFrom", "ObjectAllValuesFrom"):
        yield from walk_expr(e.filler)
    elif name in ("ObjectMinCardinality", "ObjectMaxCardinality", "ObjectExactCardinality"):
        if e.filler is not None:
            yield from walk_expr(e.filler)


def top_expressions(axiom):
    from ontoprof.model import NamedClass
    name = tag(axiom)
    if name == "SubClassOf":
        return [axiom.sub, axiom.sup]
    if name in ("EquivalentClasses", "DisjointClasses"):
        return list(axiom.operands)
    if name == "DisjointUnion":
        return [NamedClass(axiom.cls)] + list(axiom.operands)
    if name in ("ObjectPropertyDomain",):
        return [axiom.domain]
    if name in ("ObjectPropertyRange",):
        return [axiom.range]
    if name == "DataPropertyDomain":
        return [axiom.domain]
    if name == "HasKey":
        return [axiom.ce]
    if name == "ClassAssertion":
        return [axiom.ce]
    return []


def expr_depth(e) -> int:
    if tag(e) == "NamedClass":
        return 0
    kids = []
    name = tag(e)
    if name in ("ObjectIntersectionOf", "ObjectUnionOf"):
        kids = list(e.operands)
    elif name == "ObjectComplementOf":
        kids = [e.operand]
    elif name in ("ObjectSomeValuesFrom", "ObjectAllValuesFrom"):
        kids = [e.filler]
    elif name in ("ObjectMinCardinality", "ObjectMaxCardinality", "ObjectExactCardinality"):
        kids = [] if e.filler is None else [e.filler]
    if not kids:
        return 1
    return 1 + max(expr_depth(k) for k in kids)


def axiom_depth(axiom) -> int:
    tops = top_expressions(axiom)
    return max((expr_depth(e) for e in tops), default=0)


def constructor_count(axiom, constructor: str) -> int:
    total = 0
    for top in top_expressions(axiom):
        for node in walk_expr(top):
            if tag(node) == constructor:
                total += 1
    return total


def constructor_total(axiom) -> int:
    return sum(constructor_count(axiom, c) for c in CONSTRUCTOR_NAMES)


def reachability(nodes, edges):
    """All-pairs reachability (paths of length >= 1) via repeated relaxation."""
    nodes = sorted(nodes)
    idx = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    reach = [[False] * n for _ in range(n)]
    for a, b in edges:
        reach[idx[a]][idx[b]] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                row_k = reach[k]
                row_i = reach[i]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return {(nodes[i], nodes[j]) for i in range(n) for j in range(n) if reach[i][j]}


def nodes_on_cycles(nodes, edges):
    pairs = reachability(nodes, edges)
    return {n for n in nodes if (n, n) in pairs}


def longest_condensation_path(nodes, edges) -> int:
    """Brute-force SCC condensation by mutual reachability, then exhaustive
    path enumeration over the (small) component DAG."""
    pairs = reachability(nodes, edges)
    comp_of = {}
    comps = []
    for n in sorted(nodes):
        placed = False
        for ci, members in enumerate(comps):
            m = members[0]
            if ((n, m) in pairs and (m, n) in pairs) or n == m:
                comps[ci].append(n)
                comp_of[n] = ci
                placed = True
                break
        if not placed:
            comp_of[n] = len(comps)
            comps.append([n])
    dag = set()
    for a, b in edges:
        if comp_of[a] != comp_of[b]:
            dag.add((comp_of[a], comp_of[b]))
    succ = {}
    for a, b in dag:
        succ.setdefault(a, set()).add(b)

    best = 0
    for start in range(len(comps)):
        stack = [(start, 0)]
        while stack:
            node, length = stack.pop()
            best = max(best, length)
            for nxt in succ.get(node, ()):
                stack.append((nxt, length + 1))
    return best


def dependency_edges(o):
    """Class-definition dependency graph recomputed from scratch."""
    edges = set()
    nodes = set()
    for ax in o.axioms:
        name = tag(ax)
        if name == "SubClassOf" and tag(ax.sub) == "NamedClass":
            for node in walk_expr(ax.sup):
                if tag(node) == "NamedClass":
                    edges.add((ax.sub.iri, node.iri))
        elif name == "EquivalentClasses":
            ops = list(ax.operands)
            for i, op in enumerate(ops):
                if tag(op) != "NamedClass":
                    continue
                for j, other in enumerate(ops):
                    if i == j:
                        continue
                    for node in walk_expr(other):
                        if tag(node) == "NamedClass":
                            edges.add((op.iri, node.iri))
    for a, b in edges:
        nodes.add(a)
        nodes.add(b)
    return nodes, edges


def class_edges(o):
    edges = set()
    for ax in o.axioms:
        name = tag(ax)
        if name == "SubClassOf" and tag(ax.sub) == "NamedClass" and tag(ax.sup) == "NamedClass":
            edges.add((ax.sub.iri, ax.sup.iri))
        elif name == "EquivalentClasses" and all(tag(op) == "NamedClass" for op in ax.operands):
            names = [op.iri for op in ax.operands]
            for a in names:
                for b in names:
                    if a != b:
                        edges.add((a, b))
    return edges


def property_edges(o):
    edges = set()
    for ax in o.axioms:
        if tag(ax) == "SubObjectPropertyOf":
            if isinstance(ax.sub, str) and isinstance(ax.sup, str):
                edges.add((ax.sub, ax.sup))
    return edges


def domain_range_coupling(o):
    """Sum over named object properties of (named domain classes) times
    (named range classes); a top-level intersection gives its named operands."""
    domains, ranges = {}, {}
    for ax in o.axioms:
        name = tag(ax)
        if name not in ("ObjectPropertyDomain", "ObjectPropertyRange"):
            continue
        if not isinstance(ax.prop, str):
            continue
        ce = ax.domain if name == "ObjectPropertyDomain" else ax.range
        parts = list(ce.operands) if tag(ce) == "ObjectIntersectionOf" else [ce]
        target = domains if name == "ObjectPropertyDomain" else ranges
        target.setdefault(ax.prop, set()).update(
            p.iri for p in parts if tag(p) == "NamedClass")
    return sum(len(classes) * len(ranges.get(p, ())) for p, classes in domains.items())


def signature_names(o):
    """Entity names by kind, recollected with a scratch walker."""
    out = {"classes": set(), "object_properties": set(), "data_properties": set(),
           "individuals": set(), "datatypes": set(), "anonymous": set(),
           "annotation_properties": {a.prop for a in o.annotations}}

    def prop_of(ope):
        return ope.prop if tag(ope) == "ObjectInverseOf" else ope

    def ind(i):
        if tag(i) == "AnonymousIndividual":
            out["anonymous"].add(i.node_id)
        else:
            out["individuals"].add(i)

    def lit(value):
        if value.datatype:
            out["datatypes"].add(value.datatype)

    def dr(r):
        name = tag(r)
        if name == "DatatypeRef":
            out["datatypes"].add(r.iri)
        elif name in ("DataIntersectionOf", "DataUnionOf"):
            for op in r.operands:
                dr(op)
        elif name == "DataComplementOf":
            dr(r.operand)
        elif name == "DataOneOf":
            for l in r.literals:
                lit(l)
        elif name == "DatatypeRestriction":
            out["datatypes"].add(r.datatype)
            for _, l in r.facets:
                lit(l)

    def expr(e):
        for node in walk_expr(e):
            name = tag(node)
            if name == "NamedClass":
                out["classes"].add(node.iri)
            elif name in RESTRICTION_NAMES:
                out["object_properties"].add(prop_of(node.prop))
                if name == "ObjectHasValue":
                    ind(node.individual)
            elif name == "ObjectOneOf":
                for i in node.individuals:
                    ind(i)
            elif name == "DataRestriction":
                out["data_properties"].update(node.props)
                if node.range is not None:
                    dr(node.range)
                if node.value is not None:
                    lit(node.value)

    for ax in o.axioms:
        name = tag(ax)
        for top in top_expressions(ax):
            expr(top)
        if name == "SubObjectPropertyOf":
            subs = list(ax.sub.operands) if tag(ax.sub) == "PropertyChain" else [ax.sub]
            for s in subs:
                out["object_properties"].add(prop_of(s))
            out["object_properties"].add(prop_of(ax.sup))
        elif name in ("EquivalentObjectProperties", "DisjointObjectProperties"):
            out["object_properties"].update(prop_of(p) for p in ax.operands)
        elif name == "InverseObjectProperties":
            out["object_properties"].update((prop_of(ax.first), prop_of(ax.second)))
        elif name in ("ObjectPropertyDomain", "ObjectPropertyRange",
                      "FunctionalObjectProperty", "InverseFunctionalObjectProperty",
                      "ReflexiveObjectProperty", "IrreflexiveObjectProperty",
                      "SymmetricObjectProperty", "AsymmetricObjectProperty",
                      "TransitiveObjectProperty"):
            out["object_properties"].add(prop_of(ax.prop))
        elif name == "SubDataPropertyOf":
            out["data_properties"].update((ax.sub, ax.sup))
        elif name in ("EquivalentDataProperties", "DisjointDataProperties"):
            out["data_properties"].update(ax.operands)
        elif name in ("DataPropertyDomain", "FunctionalDataProperty"):
            out["data_properties"].add(ax.prop)
        elif name == "DataPropertyRange":
            out["data_properties"].add(ax.prop)
            dr(ax.range)
        elif name == "DatatypeDefinition":
            out["datatypes"].add(ax.datatype)
            dr(ax.range)
        elif name == "HasKey":
            out["object_properties"].update(prop_of(p) for p in ax.object_props)
            out["data_properties"].update(ax.data_props)
        elif name in ("SameIndividual", "DifferentIndividuals"):
            for i in ax.individuals:
                ind(i)
        elif name == "ClassAssertion":
            ind(ax.individual)
        elif name in ("ObjectPropertyAssertion", "NegativeObjectPropertyAssertion"):
            out["object_properties"].add(prop_of(ax.prop))
            ind(ax.source)
            ind(ax.target)
        elif name in ("DataPropertyAssertion", "NegativeDataPropertyAssertion"):
            out["data_properties"].add(ax.prop)
            ind(ax.source)
            lit(ax.value)
        elif name == "Declaration":
            kind = ax.entity.kind.value
            bucket = {"Class": "classes", "Datatype": "datatypes",
                      "ObjectProperty": "object_properties",
                      "DataProperty": "data_properties",
                      "NamedIndividual": "individuals",
                      "AnnotationProperty": "annotation_properties"}.get(kind)
            if bucket:
                out[bucket].add(ax.entity.iri)
        elif name == "AnnotationAssertion":
            out["annotation_properties"].add(ax.prop)
            for part in (ax.subject, ax.value):
                if tag(part) == "AnonymousIndividual":
                    out["anonymous"].add(part.node_id)
            if tag(ax.value) == "Literal":
                lit(ax.value)
        elif name == "SubAnnotationPropertyOf":
            out["annotation_properties"].update((ax.sub, ax.sup))
        elif name in ("AnnotationPropertyDomain", "AnnotationPropertyRange"):
            out["annotation_properties"].add(ax.prop)
    return out


def signature_sets(o) -> tuple:
    """`signature_names` as frozensets in the order of the library's
    Signature fields."""
    names = signature_names(o)
    return tuple(frozenset(names[key]) for key in (
        "classes", "object_properties", "data_properties", "individuals", "datatypes",
        "annotation_properties", "anonymous"))


def pattern_counts(o):
    """IU / EUvI / CUvI recounted from scratch on TBox axioms."""
    iu = euvi = cuvi = 0
    pair_e = Counter()
    pair_a = Counter()
    pair_c = Counter()
    card_names = ("ObjectMinCardinality", "ObjectMaxCardinality", "ObjectExactCardinality")
    for ax in o.axioms:
        if category(ax) != "TBox":
            continue
        for top in top_expressions(ax):
            for node in walk_expr(top):
                name = tag(node)
                if name == "ObjectIntersectionOf":
                    if any(tag(op) == "ObjectUnionOf" for op in node.operands):
                        iu += 1
                    exist_roles = {op.prop for op in node.operands
                                   if tag(op) == "ObjectSomeValuesFrom"}
                    univ_roles = {op.prop for op in node.operands
                                  if tag(op) == "ObjectAllValuesFrom"}
                    card_roles = {op.prop for op in node.operands if tag(op) in card_names}
                    euvi += len(exist_roles & univ_roles)
                    cuvi += len(card_roles & univ_roles)
                elif name == "ObjectUnionOf":
                    if any(tag(op) == "ObjectIntersectionOf" for op in node.operands):
                        iu += 1
        if tag(ax) == "SubClassOf" and tag(ax.sub) == "NamedClass":
            sup_name = tag(ax.sup)
            if sup_name == "ObjectSomeValuesFrom":
                pair_e[(ax.sub.iri, ax.sup.prop)] += 1
            elif sup_name == "ObjectAllValuesFrom":
                pair_a[(ax.sub.iri, ax.sup.prop)] += 1
            elif sup_name in card_names:
                pair_c[(ax.sub.iri, ax.sup.prop)] += 1
    for key, n in pair_e.items():
        euvi += n * pair_a.get(key, 0)
    for key, n in pair_c.items():
        cuvi += n * pair_a.get(key, 0)
    return iu, euvi, cuvi


def opco_sums(o):
    """Characteristic-wise TBox property occurrence totals, from scratch."""
    def prop_of(ope):
        return ope.prop if tag(ope) == "ObjectInverseOf" else ope

    declared = {c: set() for c in ("Transitive", "Symmetric", "Asymmetric", "Reflexive",
                                   "Irreflexive", "Functional", "InverseFunctional",
                                   "Inverse", "Chain")}
    mapping = {"TransitiveObjectProperty": "Transitive",
               "SymmetricObjectProperty": "Symmetric",
               "AsymmetricObjectProperty": "Asymmetric",
               "ReflexiveObjectProperty": "Reflexive",
               "IrreflexiveObjectProperty": "Irreflexive",
               "FunctionalObjectProperty": "Functional",
               "InverseFunctionalObjectProperty": "InverseFunctional"}
    for ax in o.axioms:
        name = tag(ax)
        if name in mapping:
            declared[mapping[name]].add(prop_of(ax.prop))
        elif name == "InverseObjectProperties":
            declared["Inverse"].update((prop_of(ax.first), prop_of(ax.second)))
        elif name == "SubObjectPropertyOf" and tag(ax.sub) == "PropertyChain":
            declared["Chain"].add(prop_of(ax.sup))
    usage = Counter()
    for ax in o.axioms:
        if category(ax) != "TBox":
            continue
        for top in top_expressions(ax):
            for node in walk_expr(top):
                if tag(node) in RESTRICTION_NAMES:
                    usage[prop_of(node.prop)] += 1
        if tag(ax) == "HasKey":
            for p in ax.object_props:
                usage[prop_of(p)] += 1
    return {c: sum(usage[p] for p in props) for c, props in declared.items()}


def individual_tbox_occurrences(o):
    """(total named-individual occurrences in TBox, axioms containing any)."""
    total = 0
    containing = 0
    for ax in o.axioms:
        if category(ax) != "TBox":
            continue
        found = 0
        for top in top_expressions(ax):
            for node in walk_expr(top):
                if tag(node) == "ObjectOneOf":
                    found += sum(1 for i in node.individuals if isinstance(i, str))
                elif tag(node) == "ObjectHasValue" and isinstance(node.individual, str):
                    found += 1
        total += found
        containing += 1 if found else 0
    return total, containing


def class_definition_counts(o):
    """(primitive, non-primitive, general) definition axiom counts."""
    pcd = npcd = gci = 0
    for ax in o.axioms:
        name = tag(ax)
        if name == "SubClassOf":
            if tag(ax.sub) == "NamedClass":
                pcd += 1
            else:
                gci += 1
        elif name == "EquivalentClasses":
            if any(tag(op) == "NamedClass" for op in ax.operands):
                npcd += 1
            else:
                gci += 1
    return pcd, npcd, gci


def disjoint_class_names(o):
    names = set()
    for ax in o.axioms:
        if tag(ax) in ("DisjointClasses", "DisjointUnion"):
            for top in top_expressions(ax):
                for node in walk_expr(top):
                    if tag(node) == "NamedClass":
                        names.add(node.iri)
    return names


def nominal_defined_classes(o):
    def has_nominal(e):
        return any(tag(n) in ("ObjectOneOf", "ObjectHasValue") for n in walk_expr(e))

    names = set()
    for ax in o.axioms:
        name = tag(ax)
        if name == "SubClassOf" and tag(ax.sub) == "NamedClass" and has_nominal(ax.sup):
            names.add(ax.sub.iri)
        elif name == "EquivalentClasses":
            ops = list(ax.operands)
            for i, op in enumerate(ops):
                if tag(op) == "NamedClass" and any(
                        has_nominal(other) for j, other in enumerate(ops) if j != i):
                    names.add(op.iri)
    return names


def same_and_different_individuals(o):
    same, different = set(), set()
    for ax in o.axioms:
        if tag(ax) == "SameIndividual":
            same.update(i for i in ax.individuals if isinstance(i, str))
        elif tag(ax) == "DifferentIndividuals":
            different.update(i for i in ax.individuals if isinstance(i, str))
    return same, different


def fanout_and_tangledness(nodes, edges):
    """(max children, max parents, multi-parent node count) per direct edges."""
    children = Counter()
    parents = {}
    for child, parent in edges:
        children[parent] += 1
        parents.setdefault(child, set()).add(parent)
    max_children = max(children.values(), default=0)
    max_parents = max((len(p) for p in parents.values()), default=0)
    tangled = sum(1 for p in parents.values() if len(p) >= 2)
    return max_children, max_parents, tangled


def cardinality_values(o):
    mins, maxs, exacts = [], [], []
    for ax in o.axioms:
        for top in top_expressions(ax):
            for node in walk_expr(top):
                name = tag(node)
                if name == "ObjectMinCardinality":
                    mins.append(node.n)
                elif name == "ObjectMaxCardinality":
                    maxs.append(node.n)
                elif name == "ObjectExactCardinality":
                    exacts.append(node.n)
    return mins, maxs, exacts


# ---------------------------------------------------------------------------
# Expressivity: each profile checked axiom by axiom against the rule table,
# and the DL family letters collected axiom by axiom.

def profile_rules():
    """{profile: (forbidden axioms, forbidden constructors, OneOf arity
    bound, max-cardinality bound)}, a copy of the version-1 rule table
    written out here so the library's table is checked against it."""
    return {
        "EL": ({"DisjointUnion", "InverseObjectProperties", "FunctionalObjectProperty",
                "InverseFunctionalObjectProperty", "SymmetricObjectProperty",
                "AsymmetricObjectProperty", "IrreflexiveObjectProperty",
                "DisjointObjectProperties", "DisjointDataProperties"},
               {"ObjectUnionOf", "ObjectComplementOf", "ObjectAllValuesFrom",
                "ObjectMinCardinality", "ObjectMaxCardinality", "ObjectExactCardinality",
                "ObjectInverseOf", "DataAllValuesFrom", "DataMinCardinality",
                "DataMaxCardinality", "DataExactCardinality", "DataUnionOf",
                "DataComplementOf"},
               1, None),
        "QL": ({"DisjointUnion", "TransitiveObjectProperty", "FunctionalObjectProperty",
                "InverseFunctionalObjectProperty", "FunctionalDataProperty", "HasKey",
                "SameIndividual", "NegativeObjectPropertyAssertion",
                "NegativeDataPropertyAssertion", "SubObjectPropertyChain",
                "DatatypeDefinition"},
               {"ObjectUnionOf", "ObjectOneOf", "ObjectHasValue", "ObjectHasSelf",
                "ObjectAllValuesFrom", "ObjectMinCardinality", "ObjectMaxCardinality",
                "ObjectExactCardinality", "DataAllValuesFrom", "DataHasValue",
                "DataMinCardinality", "DataMaxCardinality", "DataExactCardinality",
                "DataUnionOf", "DataComplementOf", "DataOneOf"},
               None, None),
        "RL": ({"DisjointUnion", "ReflexiveObjectProperty", "DatatypeDefinition"},
               {"ObjectAllValuesFrom", "ObjectComplementOf", "ObjectHasSelf",
                "ObjectMinCardinality", "ObjectExactCardinality", "DataAllValuesFrom",
                "DataMinCardinality", "DataExactCardinality", "DataUnionOf",
                "DataComplementOf", "DataOneOf"},
               None, 1),
    }


def _prop_of(ope):
    return ope.prop if tag(ope) == "ObjectInverseOf" else ope


def _is_thing(e):
    return tag(e) == "NamedClass" and e.iri == "http://www.w3.org/2002/07/owl#Thing"


def axiom_property_expressions(axiom):
    """Every object property expression an axiom mentions (data property
    names may ride along; they are never inverses)."""
    name = tag(axiom)
    found = [node.prop for top in top_expressions(axiom) for node in walk_expr(top)
             if tag(node) in RESTRICTION_NAMES]
    if name == "SubObjectPropertyOf":
        found += list(axiom.sub.operands) if tag(axiom.sub) == "PropertyChain" else [axiom.sub]
        found.append(axiom.sup)
    elif name in ("EquivalentObjectProperties", "DisjointObjectProperties"):
        found += list(axiom.operands)
    elif name == "InverseObjectProperties":
        found += [axiom.first, axiom.second]
    elif name == "HasKey":
        found += list(axiom.object_props)
    elif hasattr(axiom, "prop"):
        found.append(axiom.prop)
    return found


def walk_data_range(r):
    yield r
    name = tag(r)
    if name in ("DataIntersectionOf", "DataUnionOf"):
        for op in r.operands:
            yield from walk_data_range(op)
    elif name == "DataComplementOf":
        yield from walk_data_range(r.operand)


def axiom_data_ranges(axiom):
    found = [node.range for top in top_expressions(axiom) for node in walk_expr(top)
             if tag(node) == "DataRestriction" and node.range is not None]
    if tag(axiom) in ("DataPropertyRange", "DatatypeDefinition"):
        found.append(axiom.range)
    return found


def axiom_fits(axiom, rules) -> bool:
    axioms, constructors, oneof_max, max_card = rules
    name = tag(axiom)
    if name in axioms:
        return False
    if (name == "SubObjectPropertyOf" and tag(axiom.sub) == "PropertyChain"
            and "SubObjectPropertyChain" in axioms):
        return False
    for top in top_expressions(axiom):
        for node in walk_expr(top):
            kind = node.kind if tag(node) == "DataRestriction" else tag(node)
            if kind in constructors:
                return False
            if (oneof_max is not None and kind == "ObjectOneOf"
                    and len(node.individuals) > oneof_max):
                return False
            if (max_card is not None and kind in ("ObjectMaxCardinality", "DataMaxCardinality")
                    and node.n > max_card):
                return False
    if "ObjectInverseOf" in constructors and any(
            tag(p) == "ObjectInverseOf" for p in axiom_property_expressions(axiom)):
        return False
    for r in axiom_data_ranges(axiom):
        for node in walk_data_range(r):
            if tag(node) in constructors:
                return False
            if oneof_max is not None and tag(node) == "DataOneOf" and len(node.literals) > oneof_max:
                return False
    return True


def passes_dl(o) -> bool:
    """No class/datatype or property-kind punning, and no non-simple
    property where OWL 2 DL needs a simple one."""
    names = signature_names(o)
    if names["classes"] & names["datatypes"]:
        return False
    kinds = [names["object_properties"], names["data_properties"],
             names["annotation_properties"]]
    if any(kinds[i] & kinds[j] for i in range(3) for j in range(i + 1, 3)):
        return False
    non_simple, links = set(), set()
    for ax in o.axioms:
        name = tag(ax)
        if name == "TransitiveObjectProperty":
            non_simple.add(_prop_of(ax.prop))
        elif name == "SubObjectPropertyOf" and tag(ax.sub) == "PropertyChain":
            non_simple.add(_prop_of(ax.sup))
        elif name == "SubObjectPropertyOf":
            links.add((_prop_of(ax.sub), _prop_of(ax.sup)))
        elif name == "EquivalentObjectProperties":
            links.update((_prop_of(a), _prop_of(b)) for a in ax.operands for b in ax.operands)
        elif name == "InverseObjectProperties":
            a, b = _prop_of(ax.first), _prop_of(ax.second)
            links.update(((a, b), (b, a)))
    while True:
        grown = {b for a, b in links if a in non_simple} - non_simple
        if not grown:
            break
        non_simple |= grown
    for ax in o.axioms:
        name = tag(ax)
        needs_simple = [node.prop for top in top_expressions(ax) for node in walk_expr(top)
                        if tag(node) in ("ObjectMinCardinality", "ObjectMaxCardinality",
                                         "ObjectExactCardinality", "ObjectHasSelf")]
        if name in ("FunctionalObjectProperty", "InverseFunctionalObjectProperty",
                    "IrreflexiveObjectProperty", "AsymmetricObjectProperty"):
            needs_simple.append(ax.prop)
        elif name == "DisjointObjectProperties":
            needs_simple += list(ax.operands)
        if any(_prop_of(p) in non_simple for p in needs_simple):
            return False
    return True


def profile_checks(o):
    logical = [ax for ax in o.axioms if category(ax) != "NonLogical"]
    checks = {name: all(axiom_fits(ax, rules) for ax in logical)
              for name, rules in profile_rules().items()}
    checks["DL"] = passes_dl(o)
    return checks


def profile_label(o) -> str:
    checks = profile_checks(o)
    if all(checks.values()):
        return "PFULL"
    return next((name for name in ("EL", "QL", "RL", "DL") if checks[name]), "PNAN")


DATA_AXIOM_NAMES = {"SubDataPropertyOf", "EquivalentDataProperties", "DisjointDataProperties",
                    "DataPropertyDomain", "DataPropertyRange", "FunctionalDataProperty",
                    "DatatypeDefinition", "DataPropertyAssertion",
                    "NegativeDataPropertyAssertion"}


def dl_flags(o):
    flags = set()
    for ax in o.axioms:
        name = tag(ax)
        if name == "Declaration":
            if ax.entity.kind.value in ("DataProperty", "Datatype"):
                flags.add("D")
            continue
        if category(ax) == "NonLogical":
            continue
        if name in DATA_AXIOM_NAMES or (name == "HasKey" and ax.data_props):
            flags.add("D")
        if name == "TransitiveObjectProperty":
            flags.add("S")
        if name == "SubObjectPropertyOf":
            flags.add("R" if tag(ax.sub) == "PropertyChain" else "H")
        if name in ("ReflexiveObjectProperty", "IrreflexiveObjectProperty",
                    "DisjointObjectProperties"):
            flags.add("R")
        if name == "InverseObjectProperties":
            flags.add("I")
        if name in ("FunctionalObjectProperty", "InverseFunctionalObjectProperty",
                    "FunctionalDataProperty"):
            flags.add("F")
        if any(tag(p) == "ObjectInverseOf" for p in axiom_property_expressions(ax)):
            flags.add("I")
        for top in top_expressions(ax):
            for node in walk_expr(top):
                kind = tag(node)
                if kind in ("ObjectComplementOf", "ObjectUnionOf"):
                    flags.add("C")
                elif kind == "ObjectSomeValuesFrom" and not _is_thing(node.filler):
                    flags.add("C")
                elif kind in ("ObjectOneOf", "ObjectHasValue"):
                    flags.add("O")
                elif kind == "ObjectHasSelf":
                    flags.add("R")
                elif kind in ("ObjectMinCardinality", "ObjectMaxCardinality",
                              "ObjectExactCardinality"):
                    qualified = node.filler is not None and not _is_thing(node.filler)
                    flags.add("Q" if qualified else "N")
                elif kind == "DataRestriction":
                    flags.add("D")
    return flags


def dl_name(o) -> str:
    """S, ALC or AL; then R or H; O; I; Q, N or F; then (D)."""
    f = dl_flags(o)
    base = "S" if "S" in f else "ALC" if "C" in f else "AL"
    role = "R" if "R" in f else "H" if "H" in f else ""
    number = next((x for x in "QNF" if x in f), "")
    return (base + role + ("O" if "O" in f else "") + ("I" if "I" in f else "")
            + number + ("(D)" if "D" in f else ""))


# ---------------------------------------------------------------------------
# Lexer: the token pattern as the parser first wrote it, with the keyword
# tried after the prefixed name, applied one anchored match at a time.

SEED_TOKEN = r"""
      \( | \) | = | \^\^
    | <[^>\n]*>                                        # IRI
    | "[^"\\]*(?:\\["\\][^"\\]*)*"                     # string literal
    | @[A-Za-z]+(?:-[A-Za-z0-9]+)*                     # language tag
    | _:[A-Za-z0-9_.\-]+                               # anonymous individual
    | (?:[A-Za-z][A-Za-z0-9_.\-]*)?:[A-Za-z0-9_.\-]*   # prefixed name
    | [A-Za-z][A-Za-z0-9]*                             # keyword
    | [0-9]+
"""
SEED_SKIP = r"(?:[ \t\r\n]+|\#[^\n]*)*"
_SEED_TOKEN_RE = re.compile(f"({SEED_TOKEN}){SEED_SKIP}", re.VERBOSE)
_SEED_SKIP_RE = re.compile(SEED_SKIP, re.VERBOSE)


def lex(text: str):
    """The (start, end) span of every token up to the first character no
    token matches, and that character's 1-based (line, column), or None
    when every character is lexed."""
    pos = _SEED_SKIP_RE.match(text).end()
    spans = []
    while pos < len(text):
        m = _SEED_TOKEN_RE.match(text, pos)
        if m is None:
            return spans, (text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos))
        spans.append(m.span(1))
        pos = m.end()
    return spans, None
