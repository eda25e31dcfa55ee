"""Command line interface.

Subcommands: `extract` runs the corpus extractor, `schema` prints the
feature schema, `check` parses one document and reports diagnostics.
Exit codes: 0 success, 1 usage error, 2 aborted run or failed check.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .schema import FEATURE_GROUPS, FORMATS, ON_ERROR_POLICIES, schema_as_dict

# `schema` and `check` never need the runner, which pulls in the feature
# layers, so `run` and `write_outputs` resolve on first use
# (PEP 562). They stay module globals once read, and `cmd_extract` reads them
# through the module, so a caller that replaces `cli.run` or
# `cli.write_outputs` is still obeyed.
_RUNNER_NAMES = frozenset({"run", "write_outputs"})


def __getattr__(name: str):
    if name not in _RUNNER_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import runner
    value = globals()[name] = getattr(runner, name)
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def load_config_file(path: str) -> dict:
    """Key-value config: one `key = value` per line, '#' comments."""
    options: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8-sig").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or key not in _OPTIONS:
            raise ValueError(f"{path}:{lineno}: bad config line: {raw!r}")
        options[key] = value.strip()
    return options


def _build_parser() -> _Parser:
    parser = _Parser(prog="ontoprof",
                     description="OWL 2 ontology feature extraction")
    sub = parser.add_subparsers(dest="command", required=True)

    extract = sub.add_parser("extract", help="extract feature matrices from a corpus")
    extract.add_argument("inputs", nargs="*", metavar="INPUT",
                         help=".ofn files, directories, or - for stdin; "
                              "may also come from the config file")
    extract.add_argument("--out", help="matrix output path (default: stdout)")
    extract.add_argument("--format", choices=FORMATS)
    extract.add_argument("--groups", type=_group_list,
                         help="comma-separated subset of " + ",".join(FEATURE_GROUPS))
    extract.add_argument("--timeout", type=float, metavar="SECS",
                         help="per-file timeout in seconds")
    extract.add_argument("--jobs", type=int, metavar="N")
    extract.add_argument("--on-error", choices=ON_ERROR_POLICIES)
    extract.add_argument("--follow-imports", action="store_true", default=None)
    extract.add_argument("--config", help="key-value config file; flags override it")

    sub.add_parser("schema", help="print the feature schema as JSON")

    check = sub.add_parser("check", help="parse one file and print diagnostics")
    check.add_argument("file", metavar="FILE")
    return parser


def _three_floats(value: str) -> tuple[float, float, float]:
    wc, wp, wo = map(float, value.split(","))  # a ValueError unless exactly three numbers
    return wc, wp, wo


def _group_list(value: str) -> tuple[str, ...]:
    return tuple(g.strip() for g in value.split(",") if g.strip())


_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _one_of(choices: tuple[str, ...]):
    return {c: c for c in choices}.__getitem__  # a KeyError for any other value


# config key -> (RunConfig field, conversion of a config value, what a value must be).
# A flag of the same name arrives converted by argparse; an option given neither
# way is left to RunConfig's default.
_OPTIONS = {
    "inputs": ("inputs", str.split, "paths"),
    "out": ("output_path", str, "a path"),
    "format": ("format", _one_of(FORMATS), " or ".join(FORMATS)),
    "groups": ("feature_groups", lambda v: tuple(map(_one_of(FEATURE_GROUPS), _group_list(v))),
               "a comma-separated subset of " + ",".join(FEATURE_GROUPS)),
    "timeout": ("per_file_timeout", float, "a number"),
    "jobs": ("parallelism", int, "an integer"),
    "on_error": ("on_error", _one_of(ON_ERROR_POLICIES), " or ".join(ON_ERROR_POLICIES)),
    "follow_imports": ("follow_imports", lambda v: _BOOLEANS[v.lower()],
                       "true/false, yes/no or 1/0"),
    "ocoh_weights": ("cohesion_weights", _three_floats, "three comma-separated numbers"),
}


def _merge_extract_config(args) -> RunConfig:
    # Importing the runner here, before any worker forks, loads the model and
    # the feature layers once in the parent, where every worker shares them.
    from .runner import RunConfig

    options = load_config_file(args.config) if args.config else {}
    flags = {**vars(args), "inputs": args.inputs or None}  # no INPUT parses as []
    fields = {}
    for key, (field, convert, expected) in _OPTIONS.items():
        value = flags.get(key)
        if value is None and key in options:
            try:
                value = convert(options[key])
            except (KeyError, ValueError):
                raise ValueError(f"{args.config}: {key} must be {expected}, "
                                 f"not {options[key]!r}") from None
        if value is not None:
            fields[field] = value
    if not fields.get("inputs"):
        raise ValueError("no inputs given (positional arguments or config 'inputs')")
    return RunConfig(**fields)


def cmd_extract(args) -> int:
    cli = sys.modules[__name__]  # `run` and `write_outputs` through __getattr__
    try:
        config = _merge_extract_config(args)
    except (ValueError, OSError) as exc:
        print(f"ontoprof: error: {exc}", file=sys.stderr)
        return 1
    report = cli.run(config)
    if report.aborted:
        for outcome in report.outcomes:
            for diag in outcome.diagnostics:
                print(diag, file=sys.stderr)
        print("ontoprof: run aborted", file=sys.stderr)
        return 2
    try:
        matrix = cli.write_outputs(report, config)
    except OSError as exc:
        print(f"ontoprof: error: cannot write output: {exc}", file=sys.stderr)
        return 1
    if not config.output_path:
        sys.stdout.write(matrix.decode("utf-8"))
    for outcome in report.outcomes:
        for warning in outcome.warnings:
            print(warning, file=sys.stderr)
        if outcome.status != "ok":
            print(f"ontoprof: {outcome.path}: {outcome.status}", file=sys.stderr)
            for diag in outcome.diagnostics:
                print(diag, file=sys.stderr)
        elif outcome.imports:
            how = "resolved locally where possible" if config.follow_imports else "not resolved"
            print(f"ontoprof: {outcome.path}: warning: {len(outcome.imports)} import(s) {how}",
                  file=sys.stderr)
    return 0


def cmd_schema(_args) -> int:
    json.dump(schema_as_dict(), sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def cmd_check(args) -> int:
    """Parse one document and count its axioms per category as they are
    parsed; no model is built."""
    from collections import Counter

    from .model import Category, axiom_category
    from .parser import OntologyParseError, _parse_fields, decode_source

    origin = "<stdin>" if args.file == "-" else args.file
    sizes = Counter()

    def count(axioms):
        sizes.update(map(axiom_category, axioms))

    try:
        if args.file == "-":
            _parse_fields(decode_source(sys.stdin.buffer.read()), origin, count)
        else:
            with open(args.file, "rb") as source:  # read and decoded a window at a time
                _parse_fields(source, origin, count)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"ontoprof: error: {exc}", file=sys.stderr)
        return 2
    except OntologyParseError as exc:
        for diag in exc.diagnostics:
            print(diag.format(), file=sys.stderr)
        return 2
    total = sum(sizes.values())
    print(f"{origin}: ok: {total} axioms ({total - sizes[Category.NON_LOGICAL]} logical)")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"extract": cmd_extract, "schema": cmd_schema, "check": cmd_check}
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
