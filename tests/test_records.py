"""Records outside the node table: equality, immutability, pickling, the
run report's layout and the profile rule table."""

import json
import pickle
import re

import pytest

from ontoprof import expressivity
from ontoprof.expressivity import ProfileRules
from ontoprof.features import extract_all
from ontoprof.hierarchy import Hierarchy, build_class_hierarchy
from ontoprof.model import Ontology, Signature
from ontoprof.parser import OntologyParseError, ParseDiagnostic, parse_ontology
from ontoprof.runner import CorpusReport, FileOutcome, RunConfig

import oracles

DOC = """Prefix(:=<http://example.org/rec#>)
Ontology(<http://example.org/rec>
Declaration(Class(:A))
SubClassOf(:A :B)
ObjectPropertyDomain(:p :A)
ClassAssertion(:B :b)
)
"""


def test_ontology_equality_and_hash_ignore_the_derived_fields():
    a = parse_ontology(DOC)
    b = Ontology(axioms=a.axioms, iri=a.iri, version_iri=a.version_iri,
                 imports=a.imports, annotations=a.annotations)
    vars(b).update(signature=Signature(), census=None)  # derived fields that differ
    assert a == b and hash(a) == hash(b)
    assert a != Ontology(axioms=a.axioms, iri="http://example.org/other")
    assert a != Ontology(axioms=a.axioms[1:], iri=a.iri)
    assert a.__eq__(a.axioms) is NotImplemented


def test_hierarchy_equality_and_hash_ignore_the_derived_fields():
    h = build_class_hierarchy(parse_ontology(DOC))
    same = Hierarchy(nodes=h.nodes, direct_edges=h.direct_edges)
    vars(same)["ndhc"] = -1
    assert h == same and hash(h) == hash(same)
    assert h != Hierarchy(nodes=h.nodes, direct_edges=frozenset())


def test_records_reject_assignment():
    onto = parse_ontology(DOC)
    hierarchy = build_class_hierarchy(onto)
    diagnostic = ParseDiagnostic("error", 1, 2, "message")
    for record, field in [(onto, "iri"), (onto, "signature"), (onto, "census"),
                          (onto.signature, "classes"), (hierarchy, "nodes"),
                          (hierarchy, "ndhc"), (hierarchy, "scc_map"),
                          (diagnostic, "line")]:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        onto.new_field = 1


def test_records_survive_pickle():
    vector = extract_all(parse_ontology(DOC))
    outcome = FileOutcome(path="a.ofn", status="ok", vector=vector, imports=["x"],
                          anonymous_individuals=2, warnings=["w"])
    with pytest.raises(OntologyParseError) as info:
        parse_ontology("Ontology(SubClassOf(:A))", origin="bad.ofn")
    diagnostic = info.value.diagnostics[0]
    onto = parse_ontology(DOC)
    for record in (vector, outcome, diagnostic, onto, build_class_hierarchy(onto),
                   onto.signature):
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is type(record) and copy == record
    assert pickle.loads(pickle.dumps(diagnostic)).format() == diagnostic.format()
    assert list(pickle.loads(pickle.dumps(vector)).items()) == list(vector.items())


def test_record_defaults():
    assert Signature() == Signature(*[frozenset()] * 7)
    assert ParseDiagnostic("error", 1, 1, "m").origin == "<string>"
    outcome = FileOutcome(path="p", status="timeout")
    assert (outcome.vector, outcome.diagnostics, outcome.imports, outcome.warnings,
            outcome.anonymous_individuals) == (None, [], [], [], 0)
    assert outcome.diagnostics is not FileOutcome(path="p", status="ok").diagnostics
    assert ProfileRules(frozenset(), frozenset()).oneof_max_arity is None


@pytest.mark.parametrize("kwargs, message", [
    ({"parallelism": 0}, "parallelism must be >= 1"),
    ({"per_file_timeout": 0}, "per_file_timeout must be a finite positive number"),
    ({"format": "xml"}, "unknown format: xml"),
    ({"on_error": "retry"}, "unknown on_error policy: retry"),
    ({"feature_groups": ("size", "bogus", "alpha")}, "unknown feature groups: ['alpha', 'bogus']"),
    ({"feature_groups": ()},
     "no feature groups selected; choose from size,expressivity,structural,syntactic"),
    *(({"per_file_timeout": t}, "per_file_timeout must be a finite positive number")
      for t in (float("inf"), float("nan"))),
    *(({"cohesion_weights": w}, "cohesion weights must be finite and non-negative")
      for w in ((float("nan"), 1, 1), (1, float("inf"), 1), (0.5, 0.5, -0.0001))),
    ({"cohesion_weights": (0.5, 0.5)}, "cohesion weights must be three numbers"),
])
def test_run_config_validation_messages(kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        RunConfig(inputs=[], **kwargs)


def test_run_report_layout():
    config = RunConfig(inputs=["a.ofn"], parallelism=3)
    outcome = FileOutcome(path="a.ofn", status="parse_error", diagnostics=["d"])
    report = CorpusReport(outcomes=[outcome], aborted=False, wall_time_s=0.5)
    payload = json.loads(json.dumps(report.as_dict(config)))
    assert list(payload) == ["schema_version", "aborted", "totals", "wall_time_s", "config",
                             "outcomes"]
    assert payload["config"] == {
        "inputs": ["a.ofn"], "output_path": None, "format": "csv",
        "feature_groups": ["size", "expressivity", "structural", "syntactic"],
        "per_file_timeout": 300.0, "parallelism": 3, "on_error": "skip",
        "follow_imports": False, "cohesion_weights": [1 / 3, 1 / 3, 1 / 3]}
    assert list(payload["config"]) == ["inputs", "output_path", "format", "feature_groups",
                                       "per_file_timeout", "parallelism", "on_error",
                                       "follow_imports", "cohesion_weights"]
    assert list(payload["totals"]) == ["ok", "parse_error", "timeout", "io_error",
                                       "internal_error"]
    assert payload["outcomes"] == [{"path": "a.ofn", "status": "parse_error",
                                    "diagnostics": ["d"], "imports": [],
                                    "anonymous_individuals": 0, "warnings": []}]


def test_profile_rule_table_matches_the_oracle_copy():
    assert list(expressivity._RULES) == ["EL", "QL", "RL"]
    assert expressivity._RULES == oracles.profile_rules()
