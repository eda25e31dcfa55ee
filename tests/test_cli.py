"""CLI surface: subcommands, exit codes, diagnostics format, config file."""

import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ontoprof.cli import load_config_file, main
from ontoprof.parser import decode_source, parse_ontology
from ontoprof.runner import CorpusReport, RunConfig

VALID = """Prefix(:=<http://example.org/c#>)
Ontology(
SubClassOf(:A :B)
)
"""


@pytest.fixture
def corpus(tmp_path):
    d = tmp_path / "corpus"
    d.mkdir()
    (d / "one.ofn").write_text(VALID)
    (d / "two.ofn").write_text(VALID)
    return d


def test_extract_to_stdout(corpus, capsys):
    assert main(["extract", str(corpus)]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].startswith("ontology_id,")
    assert len(lines) == 3


def test_extract_to_file_with_report(corpus, tmp_path, capsys):
    out = tmp_path / "m.csv"
    assert main(["extract", "--out", str(out), "--format", "csv", str(corpus)]) == 0
    assert out.exists()
    assert (tmp_path / "m.csv.report.json").exists()


def test_extract_json_format(corpus, capsys):
    assert main(["extract", "--format", "json", str(corpus)]) == 0
    records = json.loads(capsys.readouterr().out)
    assert len(records) == 2


def test_extract_groups_subset(corpus, capsys):
    assert main(["extract", "--groups", "size", str(corpus)]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header == "ontology_id,SC,SOP,SDP,SI,SDT,SLA,SA"


def test_extract_saturates_a_mean_cardinality_beyond_float_range(tmp_path, capsys):
    n = int("9" * 400)  # the mean of one such value does not fit a float
    doc = tmp_path / "huge.ofn"
    doc.write_text("Prefix(:=<http://example.org/c#>)\n"
                   f"Ontology(SubClassOf(:A ObjectMinCardinality({n} :p)))\n")
    out = tmp_path / "m.csv"
    assert main(["extract", "--out", str(out), str(doc)]) == 0
    report = json.loads((tmp_path / "m.csv.report.json").read_text())
    assert [o["status"] for o in report["outcomes"]] == ["ok"]
    header, row = (line.split(",") for line in out.read_text().splitlines())
    values = dict(zip(header, row))
    assert values["HVC_Min"] == str(n)
    assert float(values["AVC"]) == sys.float_info.max


def test_extract_abort_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.ofn"
    bad.write_text("Ontology(SubClassOf(:A))")
    assert main(["extract", "--on-error", "abort", str(bad)]) == 2


def test_extract_skip_exit_zero(tmp_path, corpus, capsys):
    bad = tmp_path / "corpus" / "bad.ofn"
    bad.write_text("Ontology(SubClassOf(:A))")
    assert main(["extract", str(corpus)]) == 0
    captured = capsys.readouterr()
    assert "parse_error" in captured.err
    assert len(captured.out.strip().splitlines()) == 3  # header + 2 ok rows


def test_usage_error_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["extract", "--format", "xml", "x.ofn"])
    assert exc.value.code == 1
    assert main(["extract"]) == 1  # no inputs from flags or config


FIXTURES = Path(__file__).resolve().parent / "fixtures"


def test_schema_command(capsys):
    assert main(["schema"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["schema_version"] == "1"
    assert len(payload["features"]) == 100
    # The catalogue as users save it with `ontoprof schema > feature_schema.json`.
    assert out == (FIXTURES / "feature_schema.json").read_text(encoding="utf-8")


def modules_loaded_by(argv: list[str], names: tuple[str, ...], *flags: str) -> list[str]:
    """Those of `names` that a fresh interpreter, started with `flags`, has
    loaded after `main(argv)`."""
    probe = ("import io, sys\n"
             "from ontoprof.cli import main\n"
             "sys.stdout = io.StringIO()\n"
             f"assert main({argv!r}) == 0\n"
             f"print(*[name for name in {names!r} if name in sys.modules], file=sys.stderr)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, *flags, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stderr.split()


# What only `extract` needs: the feature layers and the runner.
EXTRACT_ONLY = ("ontoprof.features", "ontoprof.expressivity", "ontoprof.hierarchy",
                "ontoprof.runner")


def test_schema_loads_neither_the_runner_nor_the_parser():
    assert modules_loaded_by(["schema"], EXTRACT_ONLY + (
        "ontoprof.parser", "ontoprof.serializer", "ontoprof.model")) == []


def test_check_loads_no_feature_layer_and_no_runner():
    golden = str(FIXTURES / "golden" / "family_kb.ofn")
    assert modules_loaded_by(["check", golden], EXTRACT_ONLY + ("ontoprof.census",)) == []


def test_extract_loads_no_process_pool_or_pickle():
    """Workers are forked and fed over plain pipes; run without `site`,
    which may load some of these on its own."""
    golden = str(FIXTURES / "golden" / "family_kb.ofn")
    assert modules_loaded_by(["extract", golden], ("multiprocessing", "pickle", "socket",
                                                   "subprocess", "selectors"), "-S") == []


def test_start_up_loads_no_dataclasses_configparser_or_resources():
    """Run without `site`, which may preload some of these on its own."""
    golden = Path(__file__).resolve().parent / "fixtures" / "golden" / "family_kb.ofn"
    probe = ("import io, sys\n"
             "from ontoprof.cli import main\n"
             "sys.stdout = io.StringIO()\n"
             "heavy = ('dataclasses', 'inspect', 'configparser', 'importlib.resources', 'typing')\n"
             "def loaded():\n"
             "    return [name for name in heavy if name in sys.modules]\n"
             "assert main(['schema']) == 0\n"
             "print('schema', loaded(), file=sys.stderr)\n"
             f"assert main(['check', {str(golden)!r}]) == 0\n"
             "print('check', loaded(), file=sys.stderr)\n"
             "import ontoprof.runner\n"
             "print('runner', loaded(), file=sys.stderr)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stderr == "schema []\ncheck []\nrunner []\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_extract_is_the_same_under_any_hash_seed(tmp_path, fmt):
    """Sets iterate in an order the hash seed picks, and a hierarchy numbers
    the nodes without an edge in that order: no output byte may follow it."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for seed in ("0", "4242"):
        cwd = tmp_path / seed
        cwd.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-m", "ontoprof.cli", "extract", "--jobs", "1",
                               "--follow-imports", "--format", fmt, "--out", f"m.{fmt}",
                               str(FIXTURES)], cwd=cwd, env=env, capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr
        report = (cwd / f"m.{fmt}.report.json").read_bytes()
        report, timed = re.subn(rb'\n *"wall_time_s": [^\n]*', b"", report)
        assert timed == 1
        outputs.append(((cwd / f"m.{fmt}").read_bytes(), report, done.stderr))
    assert outputs[0] == outputs[1]


def test_every_public_name_imports():
    import ontoprof
    for name in ontoprof.__all__:
        assert getattr(ontoprof, name) is not None, name
    with pytest.raises(AttributeError):
        ontoprof.no_such_name


RULE_AND_ANNOTATION = """Prefix(:=<http://example.org/c#>)
Ontology(
DLSafeRule(Body(ClassAtom(:A Variable(:x))) Head(ClassAtom(:B Variable(:x))))
AnnotationAssertion(rdfs:label :A "a")
SubClassOf(:A :B)
)
"""


@pytest.mark.parametrize("source", [*sorted(FIXTURES.glob("*/*.ofn")), RULE_AND_ANNOTATION],
                         ids=lambda s: s.name if isinstance(s, Path) else "rule_and_annotation")
def test_check_ok(source, tmp_path, capsys):
    """`check` counts what `parse_ontology` builds: every axiom, and the
    logical ones by the census's category sizes."""
    if isinstance(source, str):
        path = tmp_path / "ok.ofn"
        path.write_text(source)
    else:
        path = source
    o = parse_ontology(decode_source(path.read_bytes()))
    logical = sum(o.census.category_sizes[:3])
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out == f"{path}: ok: {len(o.axioms)} axioms ({logical} logical)\n"


def test_check_reports_positioned_diagnostics(tmp_path, capsys):
    f = tmp_path / "bad.ofn"
    f.write_text("Prefix(:=<http://x#>)\nOntology(SubClassOf(:A))\n")
    assert main(["check", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{f}:2:10: error: arity violation")


def test_check_missing_file(tmp_path, capsys):
    assert main(["check", str(tmp_path / "missing.ofn")]) == 2


def test_check_too_deep_nesting_is_a_diagnostic(tmp_path, capsys):
    expr = ":B"
    for _ in range(1000):
        expr = f"ObjectComplementOf({expr})"
    f = tmp_path / "deep.ofn"
    f.write_text(f"Prefix(:=<http://x#>)\nOntology(\nSubClassOf(:A {expr})\n)\n")
    assert main(["check", str(f)]) == 2
    # The column is wherever the recursion limit was hit inside line 3.
    assert re.fullmatch(re.escape(f"{f}:3:") + r"\d+: error: limit exceeded: nesting is "
                        r"deeper than the parser's recursion limit\n",
                        capsys.readouterr().err)


def test_config_file_and_flag_override(corpus, tmp_path, capsys):
    cfg = tmp_path / "run.conf"
    cfg.write_text("# corpus run settings\nformat = json\ngroups = size\njobs = 1\n")
    assert main(["extract", "--config", str(cfg), str(corpus)]) == 0
    records = json.loads(capsys.readouterr().out)
    assert set(records[0]) == {"ontology_id", "schema_version", "SC", "SOP", "SDP",
                               "SI", "SDT", "SLA", "SA"}
    # flag wins over the file
    assert main(["extract", "--config", str(cfg), "--format", "csv", str(corpus)]) == 0
    assert capsys.readouterr().out.startswith("ontology_id,")


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.conf"
    cfg.write_text("bogus = 1\n")
    with pytest.raises(ValueError):
        load_config_file(str(cfg))


def stdin_of(data: bytes):
    """A stand-in for `sys.stdin` whose bytes are `data`."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


def test_stdin_input(corpus, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", stdin_of(VALID.encode()))
    assert main(["check", "-"]) == 0
    assert "<stdin>: ok" in capsys.readouterr().out


def test_stdin_extract(capsys, monkeypatch, tmp_path):
    import tempfile
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    monkeypatch.setattr("sys.stdin", stdin_of(VALID.encode()))
    assert main(["extract", "-"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert len(rows) == 2
    assert rows[1].startswith("<stdin>,")
    assert list(scratch.iterdir()) == []


# Standard input is strict UTF-8, like a file: invalid bytes are an input
# error, never characters for the lexer to reject.
UNDECODABLE = b"Ontology(\xff)"
DECODE_ERROR = "'utf-8' codec can't decode byte 0xff in position 9: invalid start byte"


def test_check_rejects_undecodable_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", stdin_of(UNDECODABLE))
    assert main(["check", "-"]) == 2
    assert capsys.readouterr().err == f"ontoprof: error: {DECODE_ERROR}\n"


def test_extract_files_undecodable_stdin_as_io_error(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", stdin_of(UNDECODABLE))
    assert main(["extract", "-"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1:] == []
    assert captured.err == f"ontoprof: <stdin>: io_error\n{DECODE_ERROR}\n"


@pytest.mark.parametrize("window", [1, 7, 64])
def test_a_late_undecodable_byte_wins_over_an_early_syntax_error(window, tmp_path, capsys,
                                                                 monkeypatch):
    """A file is streamed through the parser, yet a decode error anywhere is
    reported as decoding the whole file reports it, for check, extract and
    an import under --follow-imports."""
    from ontoprof import parser

    monkeypatch.setattr(parser, "_WINDOW", window)
    monkeypatch.setattr(parser, "_READ", 7)
    body = VALID.replace("SubClassOf(:A :B)", "SubClassOf(:A)\n" + "SubClassOf(:A :B)\n" * 40)
    data = body.encode().replace(b"\n)\n", b"\n\xff)\n")
    with pytest.raises(UnicodeDecodeError) as whole:
        decode_source(data)
    message = str(whole.value)
    assert str(len(data) - 3) in message
    bad = tmp_path / "bad.ofn"
    bad.write_bytes(data)
    assert main(["check", str(bad)]) == 2
    assert capsys.readouterr().err == f"ontoprof: error: {message}\n"
    assert main(["extract", "--jobs", "1", str(bad)]) == 0
    assert capsys.readouterr().err == f"ontoprof: {bad}: io_error\n{message}\n"
    importer = tmp_path / "importer.ofn"
    importer.write_text(VALID.replace("Ontology(", "Ontology(\nImport(<bad.ofn>)"))
    assert main(["extract", "--jobs", "1", "--follow-imports", str(importer)]) == 0
    assert capsys.readouterr().err.splitlines()[0] == (
        f"{importer}: warning: import <bad.ofn> not merged: {message}")


BOM = "\ufeff".encode()


@pytest.mark.parametrize("command", ["check", "extract"])
def test_a_leading_byte_order_mark_is_dropped_from_files_and_stdin(command, tmp_path, capsys,
                                                                     monkeypatch):
    flags = ["--jobs", "1"] if command == "extract" else []
    seen = []
    for name, data in (("plain", VALID.encode()), ("marked", BOM + VALID.encode())):
        path = tmp_path / f"{name}.ofn"
        path.write_bytes(data)
        for source in (str(path), "-"):
            monkeypatch.setattr("sys.stdin", stdin_of(data))
            status = main([command, *flags, source])
            captured = capsys.readouterr()
            origin = "<stdin>" if source == "-" else str(path)
            seen.append((status, captured.err, captured.out.replace(origin, "ORIGIN")))
    assert seen[0][:2] == (0, "")
    assert seen == [seen[0]] * 4


@pytest.mark.parametrize("command", ["check", "extract"])
@pytest.mark.parametrize("data, position", [
    (BOM + BOM + VALID.encode(), "1:1"),
    (VALID.encode().replace(b"SubClassOf", BOM + b"SubClassOf"), "3:1"),
    (VALID.encode().replace(b":B)", b":B" + BOM + b")"), "3:17"),
], ids=["second-leading", "line-start", "mid-line"])
def test_any_other_byte_order_mark_is_a_positioned_lexical_error(command, data, position,
                                                                 tmp_path, capsys, monkeypatch):
    flags = ["--jobs", "1"] if command == "extract" else []
    path = tmp_path / "bom.ofn"
    path.write_bytes(data)
    for source in (str(path), "-"):
        monkeypatch.setattr("sys.stdin", stdin_of(data))
        main([command, *flags, source])
        origin = "<stdin>" if source == "-" else str(path)
        assert (f"{origin}:{position}: error: lexical error: unexpected character '\\ufeff'"
                in capsys.readouterr().err)


def test_a_config_file_may_start_with_a_byte_order_mark(corpus, tmp_path, capsys):
    cfg = tmp_path / "bom.conf"
    cfg.write_bytes(BOM + b"format = json\n")
    assert main(["extract", "--config", str(cfg), str(corpus)]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 2


def test_timeout_flag_reaches_config(tmp_path, capsys):
    slow = tmp_path / "slow.ofn"
    lines = ["Prefix(:=<http://example.org/s#>)", "Ontology("]
    lines.extend(f"SubClassOf(:C{i} :C{i + 1})" for i in range(400_000))
    lines.append(")")
    slow.write_text("\n".join(lines))
    assert main(["extract", "--timeout", "0.2", str(slow)]) == 0
    captured = capsys.readouterr()
    assert "timeout" in captured.err
    assert len(captured.out.strip().splitlines()) == 1  # header only


@pytest.mark.parametrize("timeout", ["2147484", "1e300"])
def test_timeout_beyond_a_millisecond_int_runs_to_completion(timeout, corpus, capsys):
    # 2147484 s is just over 2**31 - 1 ms, the most one wait can hand to poll().
    assert main(["extract", "--jobs", "1", "--timeout", timeout, str(corpus)]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 3


def one_error_line(err: str) -> str:
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ontoprof: error: "), err
    return lines[0]


@pytest.mark.parametrize("timeout", ["inf", "nan", "0"])
def test_timeout_must_be_finite_and_positive(timeout, corpus, capsys):
    assert main(["extract", "--timeout", timeout, str(corpus)]) == 1
    captured = capsys.readouterr()
    assert "finite positive" in one_error_line(captured.err)
    assert captured.out == ""


@pytest.mark.parametrize("weights", ["nan, 1, 1", "1, inf, 1", "1, 1, -0.5"])
def test_ocoh_weights_must_be_finite_and_non_negative(weights, corpus, tmp_path, capsys):
    cfg = tmp_path / "run.conf"
    cfg.write_text(f"ocoh_weights = {weights}\n")
    assert main(["extract", "--config", str(cfg), str(corpus)]) == 1
    captured = capsys.readouterr()
    assert "finite and non-negative" in one_error_line(captured.err)
    assert captured.out == ""


@pytest.mark.parametrize("line, message", [
    ("jobs = two", "jobs must be an integer, not 'two'"),
    ("timeout = soon", "timeout must be a number, not 'soon'"),
    ("ocoh_weights = 1, 2", "ocoh_weights must be three comma-separated numbers, not '1, 2'"),
    ("ocoh_weights = a, b, c",
     "ocoh_weights must be three comma-separated numbers, not 'a, b, c'"),
    ("format = xml", "format must be csv or json, not 'xml'"),
    ("on_error = never", "on_error must be skip or abort, not 'never'"),
    ("groups = size,bogus", "groups must be a comma-separated subset of "
                            "size,expressivity,structural,syntactic, not 'size,bogus'"),
])
def test_a_bad_config_value_names_its_key_and_file(line, message, corpus, tmp_path, capsys):
    cfg = tmp_path / "run.conf"
    cfg.write_text(f"{line}\n")
    assert main(["extract", "--config", str(cfg), str(corpus)]) == 1
    captured = capsys.readouterr()
    assert one_error_line(captured.err) == f"ontoprof: error: {cfg}: {message}"
    assert captured.out == ""


def test_a_bad_flag_value_is_reported_by_the_run_config(corpus, capsys):
    assert main(["extract", "--groups", "size,bogus", str(corpus)]) == 1
    captured = capsys.readouterr()
    assert one_error_line(captured.err) == "ontoprof: error: unknown feature groups: ['bogus']"
    assert captured.out == ""


def test_an_option_given_nowhere_takes_the_run_config_default(corpus, tmp_path):
    out = tmp_path / "m.csv"
    cfg = tmp_path / "run.conf"
    cfg.write_text(f"inputs = {corpus}\nout = {out}\n")
    assert main(["extract", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "m.csv.report.json").read_text())
    defaults = RunConfig(inputs=[str(corpus)], output_path=str(out))
    assert report["config"] == CorpusReport([], False, 0.0).as_dict(defaults)["config"]


@pytest.mark.parametrize("source", ["flag", "config"])
def test_an_empty_group_selection_is_a_usage_error(source, corpus, tmp_path, capsys):
    cfg = tmp_path / "run.conf"
    cfg.write_text("groups = ,\n")
    flags = ["--groups", ","] if source == "flag" else ["--config", str(cfg)]
    assert main(["extract", *flags, str(corpus)]) == 1
    captured = capsys.readouterr()
    assert one_error_line(captured.err) == ("ontoprof: error: no feature groups selected; "
                                            "choose from size,expressivity,structural,syntactic")
    assert captured.out == ""


def test_follow_imports_flag(tmp_path, capsys):
    (tmp_path / "base.ofn").write_text(VALID)
    main_file = tmp_path / "main.ofn"
    main_file.write_text(
        "Prefix(:=<http://example.org/c#>)\nOntology(\nImport(<base.ofn>)\n"
        "SubClassOf(:X :Y)\n)")
    assert main(["extract", "--follow-imports", "--groups", "size", str(main_file)]) == 0
    row = capsys.readouterr().out.strip().splitlines()[1]
    assert row.endswith(",2,2")  # SLA and SA count the merged axioms


@pytest.mark.parametrize("value, sizes", [
    ("TRUE", ",2,2"), ("Yes", ",2,2"), ("1", ",2,2"),
    ("false", ",1,1"), ("NO", ",1,1"), ("0", ",1,1"),
    ("on", None), ("off", None), ("", None)])
def test_config_follow_imports_values(value, sizes, tmp_path, capsys):
    (tmp_path / "base.ofn").write_text(VALID)
    main_file = tmp_path / "main.ofn"
    main_file.write_text(
        "Prefix(:=<http://example.org/c#>)\nOntology(\nImport(<base.ofn>)\n"
        "SubClassOf(:X :Y)\n)")
    cfg = tmp_path / "run.conf"
    cfg.write_text(f"follow_imports = {value}\ngroups = size\n")
    code = main(["extract", "--config", str(cfg), str(main_file)])
    captured = capsys.readouterr()
    if sizes is None:
        assert code == 1 and captured.out == ""
        assert "follow_imports must be" in one_error_line(captured.err)
    else:
        assert code == 0
        assert captured.out.strip().splitlines()[1].endswith(sizes)


def test_follow_imports_prints_unmerged_import_warning(tmp_path, capsys):
    (tmp_path / "bad.ofn").write_text("Ontology(\n  SubClassOf(:A :B) %)")
    main_file = tmp_path / "main.ofn"
    main_file.write_text(
        "Prefix(:=<http://example.org/c#>)\nOntology(\nImport(<bad.ofn>)\n"
        "SubClassOf(:X :Y)\n)")
    assert main(["extract", "--follow-imports", "--groups", "size", str(main_file)]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip().splitlines()[1].endswith(",1,1")
    assert (f"{main_file}: warning: import <bad.ofn> not merged: {tmp_path / 'bad.ofn'}"
            ":2:21: error: lexical error: unexpected character '%'") in captured.err.splitlines()


def test_config_jobs_zero_is_a_usage_error(corpus, tmp_path, capsys):
    cfg = tmp_path / "run.conf"
    cfg.write_text("jobs = 0\n")
    assert main(["extract", "--config", str(cfg), str(corpus)]) == 1
    assert "parallelism must be >= 1" in capsys.readouterr().err
    assert main(["extract", "--jobs", "0", str(corpus)]) == 1
    assert "parallelism must be >= 1" in capsys.readouterr().err


def test_config_supplies_inputs(corpus, tmp_path, capsys):
    cfg = tmp_path / "run.conf"
    cfg.write_text(f"inputs = {corpus}\ngroups = size\n")
    assert main(["extract", "--config", str(cfg)]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 3


def test_unwritable_output_is_reported(corpus, tmp_path, capsys):
    missing_dir = tmp_path / "no" / "such" / "dir" / "m.csv"
    assert main(["extract", "--out", str(missing_dir), str(corpus)]) == 1
    assert "cannot write output" in capsys.readouterr().err


# The same documents with CR-only and CRLF line ends: one with a positioned
# error after the first line end, one with an unknown construct that spans one.
CR_DOCUMENTS = {
    "bad": ["Prefix(:=<http://x/>)", "Ontology(", "  SubClassOf(:A)", ")"],
    "rule": ["Prefix(:=<http://x/>)", "Ontology(", "DLSafeRule(Body(ClassAtom(:A Variable(:x)))",
             "  Head(ClassAtom(:B Variable(:x))))", "SubClassOf(:A :B)", ")"],
}


def record_unknown_axioms(monkeypatch, command: str, log: Path):
    """Append the text of each UnknownAxiom that `command` parses to `log`:
    those in the batches the parser hands its fold, through the module
    global `_parse_fields` that check (in `parser`) and extract (in
    `runner`) read; forked workers inherit the patch."""
    from ontoprof import parser, runner
    from ontoprof.model import UnknownAxiom

    def record(axioms):
        with log.open("a", encoding="utf-8") as fh:
            fh.writelines(f"{ax.text!r}\n" for ax in axioms if type(ax) is UnknownAxiom)

    module = parser if command == "check" else runner
    parse_fields = module._parse_fields

    def recording(text, origin, fold, *sets):
        def folding(axioms):
            record(axioms)
            fold(axioms)

        return parse_fields(text, origin, folding, *sets)

    monkeypatch.setattr(module, "_parse_fields", recording)


@pytest.mark.parametrize("newline", ["\r", "\r\n"])
@pytest.mark.parametrize("command", ["check", "extract"])
def test_files_and_stdin_read_line_ends_alike(command, newline, tmp_path, capsys, monkeypatch):
    log = tmp_path / "unknown.log"
    record_unknown_axioms(monkeypatch, command, log)
    flags = ["--jobs", "1"] if command == "extract" else []
    for name, lines in CR_DOCUMENTS.items():
        data = newline.join(lines).encode()
        path = tmp_path / f"{name}.ofn"
        path.write_bytes(data)
        seen = []
        for source in (str(path), "-"):
            monkeypatch.setattr("sys.stdin", stdin_of(data))
            status = main([command, *flags, source])
            captured = capsys.readouterr()
            origin = "<stdin>" if source == "-" else str(path)
            unknown = log.read_text(encoding="utf-8") if log.exists() else ""
            log.unlink(missing_ok=True)
            seen.append((status, captured.err.replace(origin, "ORIGIN"),
                         captured.out.replace(origin, "ORIGIN"), unknown))
        assert seen[0] == seen[1]
        status, err, _, unknown = seen[0]
        if name == "bad":
            position = "1:35" if newline == "\r" else "3:3"  # a lone CR ends no line
            assert f"ORIGIN:{position}: error: arity violation: SubClassOf needs at least 2 " \
                   "class expressions\n" in err
        else:
            assert unknown == repr(newline.join(lines[2:4])) + "\n"
            assert status == 0 and err == ""
