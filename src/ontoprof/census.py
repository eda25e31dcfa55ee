"""The census: the one walk over the logical axioms that every analysis
pass reads, and the Summary that folds a stream of axioms into it.

The census is an accumulator. `Census.add` counts one batch of axioms,
in any order, and `Census.finish` does the arithmetic that needs every
axiom: the pair products of `EUvI` and `CUvI`, the axiom type and tag
names and the category sizes. Properties are counted by name, and an
inverse only sets a flag, so no key is a model node. The class and
property edges stay IRIs, as they are met, for `hierarchy.Hierarchy` to
number. An Ontology adds all its axioms as one batch; a worker adds each
parser window's axioms as they are parsed, through a Summary, and keeps
none of them.
"""

from __future__ import annotations

from collections import Counter, _count_elements
from itertools import repeat

from .model import (
    _OPERAND_GETTERS, ANNOTATION_PROPERTIES, NODES, OWL_THING, AsymmetricObjectProperty, Axiom,
    Category, ClassExpression,
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
    property_name,
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
# Per axiom type, the index of its KB category: TBox, RBox, ABox, non-logical.
_TBOX, _NON_LOGICAL = 0, 3
_CATEGORY = {t: tuple(Category).index(spec.category or Category.NON_LOGICAL)
             for t, spec in NODES.items() if issubclass(t, Axiom)}


def _is_top(ce: ClassExpression | None) -> bool:
    return type(ce) is NamedClass and ce.iri == OWL_THING


def _prop_key(prop) -> str | tuple[str]:
    """A key for an object property expression that hashes and compares at
    C speed: its name, or for an inverse the one-tuple of its name."""
    return prop if type(prop) is str else tuple(prop)


def _named(tags: Counter) -> Counter:
    """`tags`, counted by node type or data restriction kind, by name."""
    return Counter({k if type(k) is str else k.__name__: n for k, n in tags.items()})


def _data_range_tags(dr: DataRange, tags: list, sizes: Counter) -> None:
    """Append a data range's node types to `tags` and count its DataOneOf
    arities into `sizes`."""
    stack = [dr]
    while stack:
        node = stack.pop()
        t = type(node)
        tags.append(t)
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

    The axioms are walked in the order given.  Edges and sets are read only
    as sets, and counters only by key, so no value depends on that order or
    on how the axioms are cut into batches.  Axiom types and node tags are
    tallied per batch by `collections._count_elements`, the C loop of
    `Counter.update`, and named when finished.

    A node's tag is its constructor name, or the kind of a data restriction.
    """

    __slots__ = (
        "axiom_types",       # logical axiom type names, plus SubObjectPropertyChain
        "category_sizes",    # axioms per Category: TBox, RBox, ABox, non-logical
        "depth_sum", "depth_max",       # nesting depth of each logical axiom
        "constructors",      # node tags (and data range names) in TBox axioms
        "constructor_max",   # most class constructors in one TBox axiom
        "tags",              # every tag and data range name, plus ObjectInverseOf
        "property_usage",    # TBox restriction and key occurrences per property name
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
        "_types",            # axioms per type
        "_chains",           # SubObjectPropertyOf axioms with a chain
        "_tbox_tags", "_other_tags",  # tags in TBox axioms and elsewhere, by type or kind
        "_inverse",          # whether an ObjectInverseOf occurred
        "_pair_exist", "_pair_univ", "_pair_card",  # (named class, property key) per SubClassOf
    )

    def __init__(self):
        self._types = Counter()
        self._tbox_tags = Counter()
        self._other_tags = Counter()
        self.property_usage = Counter()
        self.sizes = Counter()
        self._pair_exist = Counter()
        self._pair_univ = Counter()
        self._pair_card = Counter()
        self.simple_required = set()
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
        self._inverse = False
        self.depth_sum = self.depth_max = self.constructor_max = self._chains = 0
        self.nominals = self.nominal_axioms = self.iu = self.euvi = self.cuvi = 0
        self.pcd = self.npcd = self.gci = 0

    def add(self, axioms) -> None:
        """Count one batch of axioms."""
        _count_elements(self._types, map(type, axioms))
        tbox_tags, other_tags = [], []  # tallied at the end of the batch
        opes = []  # property expressions in RBox and ABox axioms and keys, read for an inverse
        usage, sizes, categories = self.property_usage, self.sizes, _CATEGORY
        pair_exist, pair_univ, pair_card = self._pair_exist, self._pair_univ, self._pair_card
        simple, flags = self.simple_required, self.dl_flags
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
        inverse, chains = self._inverse, self._chains
        operands_of = _OPERAND_GETTERS  # class_expressions_of, without its call
        for ax in axioms:
            t = type(ax)
            if t is SubClassOf:
                sub, sup = ax
                if type(sub) is NamedClass and type(sup) is NamedClass:
                    edge_subs.append(sub.iri)  # only an edge, no walk
                    edge_sups.append(sup.iri)
                    pcd += 1
                    continue
                tbox = True
            else:
                category = categories[t]
                if category == _NON_LOGICAL:
                    if t is Declaration and ax.entity.kind in (EntityKind.DATA_PROPERTY,
                                                               EntityKind.DATATYPE):
                        flags.add("D")
                    continue
                tbox = category == _TBOX
            tags = tbox_tags if tbox else other_tags
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
                        tags.append(node.kind)
                        if node.n is not None:
                            sizes[node.kind, node.n] += 1
                        if node.range is not None:
                            _data_range_tags(node.range, tags, sizes)
                        continue
                    tags.append(nt)
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
                        univ = {_prop_key(op.prop) for op in ops
                                if type(op) is ObjectAllValuesFrom}
                        if univ:
                            euvi += len(univ.intersection(
                                _prop_key(op.prop) for op in ops
                                if type(op) is ObjectSomeValuesFrom))
                            cuvi += len(univ.intersection(
                                _prop_key(op.prop) for op in ops
                                if type(op) in _CARDINALITY_TYPES))
                    elif nt is ObjectComplementOf:
                        stack.append((node.operand, d))
                    elif nt is ObjectOneOf:
                        nominal = True
                        sizes["ObjectOneOf", len(node.individuals)] += 1
                        named += sum(type(i) is str for i in node.individuals)
                    else:  # a restriction on an object property expression
                        prop = node.prop
                        if type(prop) is not str:
                            inverse = True
                            prop = prop.prop
                        if tbox:
                            usage[prop] += 1
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
                            simple.add(prop)
                            if nt is not ObjectHasSelf:
                                sizes[nt.__name__, node.n] += 1
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
                            pair_exist[iri, _prop_key(sup.prop)] += 1
                        elif st is ObjectAllValuesFrom:
                            pair_univ[iri, _prop_key(sup.prop)] += 1
                        elif st in _CARDINALITY_TYPES:
                            pair_card[iri, _prop_key(sup.prop)] += 1
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
                    keys = ax.object_props
                    opes.extend(keys)
                    usage.update(map(property_name, keys))
                    if ax.data_props:
                        flags.add("D")
                elif t is DatatypeDefinition:
                    _data_range_tags(ax.range, tags, sizes)
            elif t is SubObjectPropertyOf:
                sub, sup = ax
                opes.append(sup)
                if type(sub) is PropertyChain:
                    chains += 1
                    opes.extend(sub.operands)
                    declared["Chain"].add(property_name(sup))
                else:
                    flags.add("H")
                    opes.append(sub)
                    links.setdefault(property_name(sub), set()).add(property_name(sup))
                    if type(sub) is str and type(sup) is str:
                        property_subs.append(sub)
                        property_sups.append(sup)
            elif t is EquivalentObjectProperties or t is DisjointObjectProperties:
                (ops,) = ax
                opes.extend(ops)
                names = {property_name(p) for p in ops}
                if t is DisjointObjectProperties:
                    simple.update(names)
                else:
                    for a in names:
                        links.setdefault(a, set()).update(names)
            elif t is InverseObjectProperties:
                opes.extend(ax)
                a, b = map(property_name, ax)
                declared["Inverse"].update((a, b))
                links.setdefault(a, set()).add(b)
                links.setdefault(b, set()).add(a)
            elif t in _CHARACTERISTIC_STEMS:
                prop = ax.prop
                opes.append(prop)
                name = property_name(prop)
                declared[_CHARACTERISTIC_STEMS[t]].add(name)
                if t in _SIMPLE_ROLE_AXIOMS:
                    simple.add(name)
            elif t is ObjectPropertyDomain or t is ObjectPropertyRange:
                prop, ce = ax
                opes.append(prop)
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
                opes.append(ax.prop)
            elif t is DataPropertyRange:
                _data_range_tags(ax.range, tags, sizes)
            elif t is SameIndividual or t is DifferentIndividuals:
                (individuals,) = ax
                (same if t is SameIndividual else different).update(
                    i for i in individuals if type(i) is str)
        _count_elements(self._tbox_tags, tbox_tags)
        _count_elements(self._other_tags, other_tags)
        self._inverse = inverse or ObjectInverseOf in map(type, opes)
        self._chains = chains
        self.depth_sum, self.depth_max, self.nominals = depth_sum, depth_max, nominals
        self.constructor_max, self.nominal_axioms, self.iu = constructor_max, nominal_axioms, iu
        self.euvi, self.cuvi, self.pcd, self.npcd, self.gci = euvi, cuvi, pcd, npcd, gci

    def finish(self) -> None:
        """The arithmetic that needs every axiom; add no batch after it."""
        self.axiom_types = axiom_types = Counter()
        self.category_sizes = sizes = [0, 0, 0, 0]
        for t, n in self._types.items():
            category = _CATEGORY[t]
            sizes[category] += n
            if category != _NON_LOGICAL:
                axiom_types[t.__name__] = n
        if self._chains:
            axiom_types["SubObjectPropertyChain"] = self._chains
        self.constructors = _named(self._tbox_tags)
        self.tags = set(self.constructors).union(_named(self._other_tags))
        if self._inverse:
            self.tags.add("ObjectInverseOf")
        pair_univ = self._pair_univ
        self.euvi += sum(n * pair_univ[k] for k, n in self._pair_exist.items())
        self.cuvi += sum(n * pair_univ[k] for k, n in self._pair_card.items())
        for name in _SCRATCH:
            delattr(self, name)

    def largest(self, *tags: str) -> int:
        """Largest cardinality or OneOf arity under the given tags, 0 if none."""
        return max((n for tag, n in self.sizes if tag in tags), default=0)


_SCRATCH = tuple(name for name in Census.__slots__ if name.startswith("_"))


class Summary:
    """The signature and census of an ontology, folded from its axioms one
    batch at a time: all that `features.extract_all` reads, without the
    axioms.  `sets` holds the signature's names, a set per Signature field
    in that order: the parser adds each name as it reads it, and
    `model.signature_walk` adds those of axioms built as nodes.  `add` runs
    the census over one batch and keeps none of its axioms; `finish` adds
    the ontology's own annotation properties and freezes both."""

    __slots__ = ("signature", "census", "sets")

    def __init__(self):
        self.sets = [set() for _ in Signature._fields]
        self.census = Census()
        self.signature = None

    def add(self, axioms) -> None:
        self.census.add(axioms)

    def finish(self, annotations=()) -> Summary:
        """Each signature set is dropped as soon as it is frozen, so no more
        than one is ever held twice."""
        sets = self.sets
        del self.sets
        sets[ANNOTATION_PROPERTIES].update(anno.prop for anno in annotations)
        for i in range(len(sets)):
            sets[i] = frozenset(sets[i])
        self.signature = Signature(*sets)
        self.census.finish()
        return self
