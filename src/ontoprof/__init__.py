"""ontoprof: OWL 2 ontology feature profiling.

Parses functional-style syntax into an immutable structural model and
computes a fixed catalogue of size, expressivity, structural and syntactic
features for reasoner-performance analysis.

The public names are imported from their modules on first use (PEP 562),
so `ontoprof schema` and `ontoprof check` load only what they need.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {
    **dict.fromkeys(("DlName", "ProfileLabel", "dl_family_name", "owl_profile",
                     "profile_checks"), "expressivity"),
    **dict.fromkeys(("FeatureVector", "extract_all"), "features"),
    **dict.fromkeys(("Hierarchy", "build_class_hierarchy", "build_property_hierarchy",
                     "cyclic_classes"), "hierarchy"),
    **dict.fromkeys(("Category", "Ontology", "Signature", "axiom_category"), "model"),
    **dict.fromkeys(("OntologyParseError", "ParseDiagnostic", "parse_ontology"), "parser"),
    **dict.fromkeys(("CorpusReport", "RunConfig", "discover_inputs", "emit_matrix", "run"),
                    "runner"),
    **dict.fromkeys(("CLASS_CONSTRUCTORS", "FEATURE_IDS", "FEATURE_SCHEMA", "LOGICAL_AXIOM_TYPES",
                     "SCHEMA_VERSION", "schema_as_dict"), "schema"),
    "serialize": "serializer",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
