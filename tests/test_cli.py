"""CLI surface: subcommands, exit codes, diagnostics format, config file."""

import json

import pytest

from ontoprof.cli import load_config_file, main

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


def test_schema_command(capsys):
    assert main(["schema"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == "1"
    assert len(payload["features"]) == 100


def test_check_ok(tmp_path, capsys):
    f = tmp_path / "ok.ofn"
    f.write_text(VALID)
    assert main(["check", str(f)]) == 0
    assert "ok: 1 axioms" in capsys.readouterr().out


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
    assert capsys.readouterr().err == f"{f}: error: nesting too deep (RecursionError)\n"


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


def test_stdin_input(corpus, capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(VALID))
    assert main(["check", "-"]) == 0
    assert "<stdin>: ok" in capsys.readouterr().out


def test_stdin_extract(capsys, monkeypatch, tmp_path):
    import io
    import tempfile
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    monkeypatch.setattr("sys.stdin", io.StringIO(VALID))
    assert main(["extract", "-"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert len(rows) == 2
    assert rows[1].startswith("<stdin>,")
    assert list(scratch.iterdir()) == []


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


def test_follow_imports_flag(tmp_path, capsys):
    (tmp_path / "base.ofn").write_text(VALID)
    main_file = tmp_path / "main.ofn"
    main_file.write_text(
        "Prefix(:=<http://example.org/c#>)\nOntology(\nImport(<base.ofn>)\n"
        "SubClassOf(:X :Y)\n)")
    assert main(["extract", "--follow-imports", "--groups", "size", str(main_file)]) == 0
    row = capsys.readouterr().out.strip().splitlines()[1]
    assert row.endswith(",2,2")  # SLA and SA count the merged axioms


def test_config_supplies_inputs(corpus, tmp_path, capsys):
    cfg = tmp_path / "run.conf"
    cfg.write_text(f"inputs = {corpus}\ngroups = size\n")
    assert main(["extract", "--config", str(cfg)]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 3


def test_unwritable_output_is_reported(corpus, tmp_path, capsys):
    missing_dir = tmp_path / "no" / "such" / "dir" / "m.csv"
    assert main(["extract", "--out", str(missing_dir), str(corpus)]) == 1
    assert "cannot write output" in capsys.readouterr().err
