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

from .features import COHESION_WEIGHTS, FEATURE_GROUPS, schema_as_dict

# `schema` and `check` never need the runner, which pulls in multiprocessing,
# so `run` and `write_outputs` resolve on first use (PEP 562). They stay
# module globals once read, and `cmd_extract` reads them through the module,
# so a caller that replaces `cli.run` or `cli.write_outputs` is still obeyed.
_RUNNER_NAMES = frozenset({"run", "write_outputs"})


def __getattr__(name: str):
    if name not in _RUNNER_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import runner
    value = globals()[name] = getattr(runner, name)
    return value


_CONFIG_KEYS = {"inputs", "out", "format", "groups", "timeout", "jobs",
                "on_error", "follow_imports", "ocoh_weights"}
_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def load_config_file(path: str) -> dict:
    """Key-value config: one `key = value` per line, '#' comments."""
    options: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or key not in _CONFIG_KEYS:
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
    extract.add_argument("--format", choices=("csv", "json"), default=None)
    extract.add_argument("--groups", default=None,
                         help="comma-separated subset of size,expressivity,structural,syntactic")
    extract.add_argument("--timeout", type=float, default=None, metavar="SECS",
                         help="per-file timeout in seconds")
    extract.add_argument("--jobs", type=int, default=None, metavar="N")
    extract.add_argument("--on-error", choices=("skip", "abort"), default=None)
    extract.add_argument("--follow-imports", action="store_true", default=None)
    extract.add_argument("--config", help="key-value config file; flags override it")

    sub.add_parser("schema", help="print the feature schema as JSON")

    check = sub.add_parser("check", help="parse one file and print diagnostics")
    check.add_argument("file", metavar="FILE")
    return parser


def _merge_extract_config(args) -> RunConfig:
    from .runner import DEFAULT_TIMEOUT, RunConfig

    options = load_config_file(args.config) if args.config else {}
    fmt = args.format or options.get("format", "csv")
    groups_raw = args.groups or options.get("groups")
    groups = (tuple(g.strip() for g in groups_raw.split(",") if g.strip())
              if groups_raw else FEATURE_GROUPS)
    timeout = args.timeout if args.timeout is not None else float(
        options.get("timeout", DEFAULT_TIMEOUT))
    jobs = args.jobs if args.jobs is not None else (
        int(options["jobs"]) if "jobs" in options else None)
    on_error = args.on_error or options.get("on_error", "skip")
    follow = args.follow_imports
    if follow is None:
        value = options.get("follow_imports", "false")
        follow = _BOOLEANS.get(value.lower())
        if follow is None:
            raise ValueError(f"follow_imports must be true/false, yes/no or 1/0, not {value!r}")
    out = args.out or options.get("out")
    weights = COHESION_WEIGHTS
    if "ocoh_weights" in options:
        parts = [float(x) for x in options["ocoh_weights"].split(",")]
        if len(parts) != 3:
            raise ValueError("ocoh_weights needs exactly three values")
        weights = (parts[0], parts[1], parts[2])
    inputs = list(args.inputs) or options.get("inputs", "").split()
    if not inputs:
        raise ValueError("no inputs given (positional arguments or config 'inputs')")
    return RunConfig(inputs=inputs, output_path=out, format=fmt, feature_groups=groups,
                     per_file_timeout=timeout, parallelism=jobs, on_error=on_error,
                     follow_imports=follow, cohesion_weights=weights)


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
            print(f"ontoprof: {outcome.path}: warning: "
                  f"{len(outcome.imports)} import(s) "
                  + ("resolved locally where possible" if config.follow_imports
                     else "not resolved"),
                  file=sys.stderr)
    return 0


def cmd_schema(_args) -> int:
    json.dump(schema_as_dict(), sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def cmd_check(args) -> int:
    from .parser import OntologyParseError, decode_source, parse_ontology

    origin = "<stdin>" if args.file == "-" else args.file
    try:
        data = sys.stdin.buffer.read() if args.file == "-" else Path(args.file).read_bytes()
        text = decode_source(data)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"ontoprof: error: {exc}", file=sys.stderr)
        return 2
    try:
        onto = parse_ontology(text, origin=origin)
    except OntologyParseError as exc:
        for diag in exc.diagnostics:
            print(diag.format(), file=sys.stderr)
        return 2
    print(f"{origin}: ok: {len(onto.axioms)} axioms "
          f"({onto.logical_axiom_count} logical)")
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
