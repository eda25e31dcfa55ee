"""The census: the one walk over the logical axioms that every analysis
pass reads, and the Summary that folds a stream of axioms into it.

The census is an accumulator. `Census.add` counts one batch of axioms,
given as its category buckets, and `Census.finish` does the arithmetic
that needs every axiom: the pair products of `EUvI` and `CUvI`, the tag
set, the usage per named property and the properties required to be
simple. The class and property edges stay IRIs, as they are met, for
`hierarchy.Hierarchy` to number. An Ontology adds all its axioms as one
batch; a worker adds each parser window's axioms as they are parsed,
through a Summary, and keeps none of them.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, repeat

from .model import (
    _OPERAND_GETTERS, ANNOTATION_PROPERTIES, OWL_THING, AsymmetricObjectProperty, ClassExpression,
    DataComplementOf, DataIntersectionOf, DataOneOf, DataPropertyRange, DataRange, DataRestriction,
    DataUnionOf, DatatypeDefinition, Declaration, DifferentIndividuals, DisjointClasses,
    DisjointObjectProperties, DisjointUnion, EntityKind, EquivalentClasses,
    EquivalentObjectProperties, FunctionalObjectProperty, HasKey,
    InverseFunctionalObjectProperty, InverseObjectProperties, IrreflexiveObjectProperty,
    NamedClass, NegativeObjectPropertyAssertion, ObjectAllValuesFrom, ObjectComplementOf,
    ObjectExactCardinality, ObjectHasSelf, ObjectHasValue, ObjectIntersectionOf,
    ObjectInverseOf, ObjectMaxCardinality, ObjectMinCardinality, ObjectOneOf,
    ObjectPropertyAssertion, ObjectPropertyDomain, ObjectPropertyRange, ObjectSomeValuesFrom,
    ObjectUnionOf, PropertyChain, ReflexiveObjectProperty, SameIndividual, Signature,
    SubClassOf, SubObjectPropertyOf, SymmetricObjectProperty, TransitiveObjectProperty,
    property_name, signature_walk,
)
from .schema import PROPERTY_CHARACTERISTICS

# Property characteristic axioms and the feature-name stem they count under:
# the first seven PROPERTY_CHARACTERISTICS, in that order.
_CHARACTERISTIC_STEMS = dict(zip(
    (TransitiveObjectProperty, SymmetricObjectProperty, AsymmetricObjectProperty,
     ReflexiveObjectProperty, IrreflexiveObjectProperty, FunctionalObjectProperty,
     InverseFunctionalObjectProperty), PROPERTY_CHARACTERISTICS))
# Characteristics OWL 2 DL allows on simple properties only.
_SIMPLE_ROLE_AXIOMS = (FunctionalObjectProperty, InverseFunctionalObjectProperty,
                       IrreflexiveObjectProperty, AsymmetricObjectProperty)
_CARDINALITY_TYPES = (ObjectMinCardinality, ObjectMaxCardinality, ObjectExactCardinality)


def _is_top(ce: ClassExpression | None) -> bool:
    return type(ce) is NamedClass and ce.iri == OWL_THING


def _data_range_tags(dr: DataRange, tags: Counter, sizes: Counter) -> None:
    """Count a data range's node names into `tags` and its DataOneOf
    arities into `sizes`."""
    stack = [dr]
    while stack:
        node = stack.pop()
        t = type(node)
        tags[t.__name__] += 1
        if t is DataIntersectionOf or t is DataUnionOf:
            stack.extend(node.operands)
        elif t is DataComplementOf:
            stack.append(node.operand)
        elif t is DataOneOf:
            sizes["DataOneOf", len(node.literals)] += 1


class Census:
    """Counts, sets, maxima and edge columns over the logical axioms,
    gathered in one iterative walk of each axiom but a named-to-named
    SubClassOf, which is only an edge.  Once it is finished, it is the only
    record of the axioms the features read: the syntactic features, the
    profile checks, the DL family name and the cohesion and individual
    features are arithmetic over it, and the hierarchies are built from its
    edges.

    Every edge set is two lists `(subs, sups)` of IRIs, an edge per
    occurrence: `Hierarchy` numbers the names and drops the repeats, and a
    repeated dependency is harmless to `cyclic_classes`.  The dependency
    graph of `CCyc` is the class edges plus the dependencies, which hold
    only what the class edges lack.

    Within a batch the TBox axioms are walked first, then the RBox and the
    ABox ones.  Edges and sets are read only as sets, and counters only by
    key, so no value depends on how the axioms are cut into batches.

    A node's tag is its constructor name, or the kind of a data restriction.
    """

    __slots__ = (
        "axiom_types",       # logical axiom type names, plus SubObjectPropertyChain
        "category_sizes",    # axioms per Category: TBox, RBox, ABox, non-logical
        "depth_sum", "depth_max",       # nesting depth of each logical axiom
        "constructors",      # node tags (and data range names) in TBox axioms
        "constructor_max",   # most class constructors in one TBox axiom
        "tags",              # every tag and data range name, plus ObjectInverseOf
        "property_usage",    # TBox restriction and key occurrences per property
        "nominals",          # named-individual occurrences in TBox expressions
        "nominal_axioms",    # TBox axioms with such an occurrence
        "iu", "euvi", "cuvi",
        "pcd", "npcd", "gci",
        "nominal_defined",   # classes defined with a nominal
        "disjoint_classes",  # classes under DisjointClasses or DisjointUnion
        "dependencies",      # (subs, sups): definition edges the class edges lack, repeats kept
        "sizes",             # (tag, cardinality or OneOf arity) occurrences
        "simple_required",   # properties OWL 2 DL requires to be simple
        "dl_flags",          # DL family letters no axiom type or tag implies
        "class_edges",       # (subs, sups): named-to-named SubClassOf, and both ways
                             # between distinct names in all-named equivalences
        "property_edges",    # (subs, sups): named-to-named SubObjectPropertyOf
        "property_links",    # property -> those its non-simplicity passes to
        "characteristics",   # PROPERTY_CHARACTERISTICS stem -> declared properties
        "domains", "ranges",  # named property -> named classes, a top intersection flattened
        "same_individuals", "different_individuals",  # named individuals in those axioms
        # Kept only until `finish`, like every name with a leading underscore:
        "_other_tags",       # tags outside the TBox
        "_usage", "_other_opes",  # property expressions in TBox axioms, and elsewhere
        "_pair_exist", "_pair_univ", "_pair_card",  # (named class, property) per SubClassOf
        "_simple",           # property expressions OWL 2 DL requires to be simple
    )

    def __init__(self):
        self.axiom_types = Counter()
        self.category_sizes = [0, 0, 0, 0]
        self.constructors = Counter()
        self.sizes = Counter()
        self._other_tags = Counter()
        self._usage = Counter()
        self._other_opes = Counter()
        self._pair_exist = Counter()
        self._pair_univ = Counter()
        self._pair_card = Counter()
        self._simple = set()
        self.dl_flags = set()
        self.class_edges = ([], [])
        self.dependencies = ([], [])
        self.nominal_defined = set()
        self.disjoint_classes = set()
        self.property_edges = ([], [])
        self.property_links = {}
        self.characteristics = {c: set() for c in PROPERTY_CHARACTERISTICS}
        self.domains = {}
        self.ranges = {}
        self.same_individuals = set()
        self.different_individuals = set()
        self.depth_sum = self.depth_max = self.constructor_max = 0
        self.nominals = self.nominal_axioms = self.iu = self.euvi = self.cuvi = 0
        self.pcd = self.npcd = self.gci = 0

    def add(self, buckets) -> None:
        """Count one batch of axioms, given as its (TBox, RBox, ABox,
        non-logical) sequences."""
        axiom_types, constructors, other_tags = (self.axiom_types, self.constructors,
                                                 self._other_tags)
        usage, other_opes, sizes = self._usage, self._other_opes, self.sizes
        pair_exist, pair_univ, pair_card = self._pair_exist, self._pair_univ, self._pair_card
        simple, flags = self._simple, self.dl_flags
        edge_subs, edge_sups = self.class_edges
        dep_subs, dep_sups = self.dependencies
        nominal_defined, disjoint = self.nominal_defined, self.disjoint_classes
        property_subs, property_sups = self.property_edges
        links, declared = self.property_links, self.characteristics
        domains, ranges = self.domains, self.ranges
        same, different = self.same_individuals, self.different_individuals
        depth_sum, depth_max, nominals = self.depth_sum, self.depth_max, self.nominals
        constructor_max, nominal_axioms, iu = self.constructor_max, self.nominal_axioms, self.iu
        euvi, cuvi, pcd, npcd, gci = self.euvi, self.cuvi, self.pcd, self.npcd, self.gci
        operands_of = _OPERAND_GETTERS  # class_expressions_of, without its call
        tbox_axioms, rbox_axioms, abox_axioms, non_logical = buckets
        for tbox, axioms in ((True, tbox_axioms), (False, rbox_axioms), (False, abox_axioms)):
            tags, opes = (constructors, usage) if tbox else (other_tags, other_opes)
            for ax in axioms:
                t = type(ax)
                axiom_types[t.__name__] += 1
                if t is SubClassOf:
                    sub, sup = ax
                    if type(sub) is NamedClass and type(sup) is NamedClass:
                        edge_subs.append(sub.iri)  # only an edge, no walk
                        edge_sups.append(sup.iri)
                        pcd += 1
                        continue
                parts = []  # (named classes, has a nominal) per top-level expression
                deepest = count = named = 0
                for top in operands_of[t](ax):
                    if type(top) is NamedClass:
                        parts.append(((top.iri,), False))
                        continue
                    names: list[str] = []
                    nominal = False
                    stack = [(top, 1)]
                    while stack:
                        node, d = stack.pop()
                        nt = type(node)
                        if nt is NamedClass:
                            names.append(node.iri)
                            continue
                        if d > deepest:
                            deepest = d
                        if nt is DataRestriction:
                            tags[node.kind] += 1
                            if node.n is not None:
                                sizes[node.kind, node.n] += 1
                            if node.range is not None:
                                _data_range_tags(node.range, tags, sizes)
                            continue
                        tag = nt.__name__
                        tags[tag] += 1
                        count += 1
                        d += 1
                        if nt is ObjectIntersectionOf or nt is ObjectUnionOf:
                            ops = node.operands
                            for op in ops:
                                stack.append((op, d))
                            if not tbox:
                                continue
                            if nt is ObjectUnionOf:
                                iu += any(type(op) is ObjectIntersectionOf for op in ops)
                                continue
                            iu += any(type(op) is ObjectUnionOf for op in ops)
                            univ = {op.prop for op in ops if type(op) is ObjectAllValuesFrom}
                            if univ:
                                euvi += len(univ.intersection(
                                    op.prop for op in ops if type(op) is ObjectSomeValuesFrom))
                                cuvi += len(univ.intersection(
                                    op.prop for op in ops if type(op) in _CARDINALITY_TYPES))
                        elif nt is ObjectComplementOf:
                            stack.append((node.operand, d))
                        elif nt is ObjectOneOf:
                            nominal = True
                            sizes[tag, len(node.individuals)] += 1
                            named += sum(type(i) is str for i in node.individuals)
                        else:  # a restriction on an object property expression
                            opes[node.prop] += 1
                            if nt is ObjectSomeValuesFrom:
                                if not _is_top(node.filler):
                                    flags.add("C")
                                stack.append((node.filler, d))
                            elif nt is ObjectAllValuesFrom:
                                stack.append((node.filler, d))
                            elif nt is ObjectHasValue:
                                nominal = True
                                named += type(node.individual) is str
                            else:  # ObjectHasSelf or a cardinality restriction
                                simple.add(node.prop)
                                if nt is not ObjectHasSelf:
                                    sizes[tag, node.n] += 1
                                    filler = node.filler
                                    flags.add("N" if filler is None or _is_top(filler) else "Q")
                                    if filler is not None:
                                        stack.append((filler, d))
                    parts.append((names, nominal))
                depth_sum += deepest
                if deepest > depth_max:
                    depth_max = deepest
                if tbox:
                    if count > constructor_max:
                        constructor_max = count
                    nominals += named
                    nominal_axioms += named > 0
                    if t is SubClassOf:
                        sub, sup = ax
                        if type(sub) is NamedClass:
                            pcd += 1
                            iri = sub.iri
                            names, nominal = parts[1]
                            dep_subs.extend(repeat(iri, len(names)))
                            dep_sups.extend(names)
                            if nominal:
                                nominal_defined.add(iri)
                            st = type(sup)  # not a NamedClass: that case is above
                            if st is ObjectSomeValuesFrom:
                                pair_exist[iri, sup.prop] += 1
                            elif st is ObjectAllValuesFrom:
                                pair_univ[iri, sup.prop] += 1
                            elif st in _CARDINALITY_TYPES:
                                pair_card[iri, sup.prop] += 1
                        else:
                            gci += 1
                    elif t is EquivalentClasses:
                        (ops,) = ax
                        defined = [(i, op.iri) for i, op in enumerate(ops)
                                   if type(op) is NamedClass]
                        npcd += bool(defined)
                        gci += not defined
                        # Each named operand depends on every name in the others. Between
                        # two distinct names in an all-named equivalence that is a class
                        # edge, and anything else a dependency.
                        all_named = len(defined) == len(ops)
                        for i, iri in defined:
                            for j, (names, nominal) in enumerate(parts):
                                if j == i:
                                    continue
                                for name in names:
                                    subs, sups = ((edge_subs, edge_sups)
                                                  if all_named and iri != name
                                                  else (dep_subs, dep_sups))
                                    subs.append(iri)
                                    sups.append(name)
                                if nominal:
                                    nominal_defined.add(iri)
                    elif t is DisjointClasses or t is DisjointUnion:
                        for names, _ in parts:
                            disjoint.update(names)
                    elif t is HasKey:
                        opes.update(ax.object_props)
                        if ax.data_props:
                            flags.add("D")
                    elif t is DatatypeDefinition:
                        _data_range_tags(ax.range, tags, sizes)
                elif t is SubObjectPropertyOf:
                    sub, sup = ax
                    opes[sup] += 1
                    if type(sub) is PropertyChain:
                        axiom_types["SubObjectPropertyChain"] += 1
                        opes.update(sub.operands)
                        declared["Chain"].add(property_name(sup))
                    else:
                        flags.add("H")
                        opes[sub] += 1
                        links.setdefault(property_name(sub), set()).add(property_name(sup))
                        if type(sub) is str and type(sup) is str:
                            property_subs.append(sub)
                            property_sups.append(sup)
                elif t is EquivalentObjectProperties or t is DisjointObjectProperties:
                    (ops,) = ax
                    opes.update(ops)
                    if t is DisjointObjectProperties:
                        simple.update(ops)
                    else:
                        names = {property_name(p) for p in ops}
                        for a in names:
                            links.setdefault(a, set()).update(names)
                elif t is InverseObjectProperties:
                    first, second = ax
                    opes[first] += 1
                    opes[second] += 1
                    a, b = property_name(first), property_name(second)
                    declared["Inverse"].update((a, b))
                    links.setdefault(a, set()).add(b)
                    links.setdefault(b, set()).add(a)
                elif t in _CHARACTERISTIC_STEMS:
                    prop = ax.prop
                    opes[prop] += 1
                    declared[_CHARACTERISTIC_STEMS[t]].add(property_name(prop))
                    if t in _SIMPLE_ROLE_AXIOMS:
                        simple.add(prop)
                elif t is ObjectPropertyDomain or t is ObjectPropertyRange:
                    prop, ce = ax
                    opes[prop] += 1
                    if type(prop) is str:
                        by_prop = domains if t is ObjectPropertyDomain else ranges
                        target = by_prop.setdefault(prop, set())
                        ct = type(ce)
                        if ct is NamedClass:
                            target.add(ce.iri)
                        elif ct is ObjectIntersectionOf:
                            target.update(op.iri for op in ce.operands
                                          if type(op) is NamedClass)
                elif t is ObjectPropertyAssertion or t is NegativeObjectPropertyAssertion:
                    opes[ax.prop] += 1
                elif t is DataPropertyRange:
                    _data_range_tags(ax.range, tags, sizes)
                elif t is SameIndividual or t is DifferentIndividuals:
                    (individuals,) = ax
                    (same if t is SameIndividual else different).update(
                        i for i in individuals if type(i) is str)
        for ax in non_logical:
            if type(ax) is Declaration and ax.entity.kind in (EntityKind.DATA_PROPERTY,
                                                              EntityKind.DATATYPE):
                flags.add("D")
        self.depth_sum, self.depth_max, self.nominals = depth_sum, depth_max, nominals
        self.constructor_max, self.nominal_axioms, self.iu = constructor_max, nominal_axioms, iu
        self.euvi, self.cuvi, self.pcd, self.npcd, self.gci = euvi, cuvi, pcd, npcd, gci
        self.category_sizes = [n + len(b) for n, b in zip(self.category_sizes, buckets)]

    def finish(self) -> None:
        """The arithmetic that needs every axiom; add no batch after it."""
        usage, other_opes = self._usage, self._other_opes
        self.tags = set(self.constructors) | set(self._other_tags)
        if any(type(p) is ObjectInverseOf for p in chain(usage, other_opes)):
            self.tags.add("ObjectInverseOf")
        self.property_usage = Counter()
        for p, n in usage.items():
            self.property_usage[property_name(p)] += n
        pair_univ = self._pair_univ
        self.euvi += sum(n * pair_univ[k] for k, n in self._pair_exist.items())
        self.cuvi += sum(n * pair_univ[k] for k, n in self._pair_card.items())
        self.simple_required = {property_name(p) for p in self._simple}
        for name in _SCRATCH:
            delattr(self, name)

    def largest(self, *tags: str) -> int:
        """Largest cardinality or OneOf arity under the given tags, 0 if none."""
        return max((n for tag, n in self.sizes if tag in tags), default=0)


_SCRATCH = tuple(name for name in Census.__slots__ if name.startswith("_"))


class Summary:
    """The signature and census of an ontology, folded from its axioms one
    batch at a time: all that `features.extract_all` reads, without the
    axioms.  `add` runs the signature walk and then the census over one
    batch and keeps none of its axioms; `finish` adds the ontology's own
    annotation properties and freezes both."""

    __slots__ = ("signature", "census", "_sets")

    def __init__(self):
        self._sets = [set() for _ in Signature._fields]  # in Signature field order
        self.census = Census()
        self.signature = None

    def add(self, axioms) -> None:
        self.census.add(signature_walk(axioms, self._sets))

    def finish(self, annotations=()) -> Summary:
        """Each signature set is dropped as soon as it is frozen, so no more
        than one is ever held twice."""
        sets = self._sets
        del self._sets
        sets[ANNOTATION_PROPERTIES].update(anno.prop for anno in annotations)
        for i in range(len(sets)):
            sets[i] = frozenset(sets[i])
        self.signature = Signature(*sets)
        self.census.finish()
        return self
