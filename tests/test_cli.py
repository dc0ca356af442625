"""Command-line behavior: files written, exit codes, determinism."""

import json

import pytest

from pcageom import cli
from pcageom.tensorops import RelationCheck


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_writes_report_files(tmp_path, capsys):
    code, out, err = run(
        capsys, "analyze", "fixtures/iris_corr.json", "--out", str(tmp_path)
    )
    assert code == 0
    assert err == ""
    for name in ("report.json", "report.md", "scree.svg", "similarity.svg"):
        assert (tmp_path / name).exists(), name
    # default format echoes the markdown report
    assert "# Correlation-geometry PCA report" in out
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["provenance"]["k"] == 2


def test_analyze_skips_similarity_map_off_k2(tmp_path, capsys):
    # a map from an earlier k = 2 run in the same directory is removed
    code, _, _ = run(capsys, "analyze", "fixtures/iris_corr.json", "--out", str(tmp_path))
    assert code == 0 and (tmp_path / "similarity.svg").exists()
    code, _, err = run(
        capsys,
        "analyze",
        "fixtures/iris_corr.json",
        "--criterion",
        "per-variable",
        "--threshold",
        "0.93",
        "--out",
        str(tmp_path),
    )
    assert code == 0
    assert not (tmp_path / "similarity.svg").exists()
    assert "similarity.svg skipped" in err
    assert "k = 3" in err


def test_analyze_fixture_fallback_from_anywhere(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(capsys, "analyze", "iris.csv", "--columns", "1-4", "--header",
                     "--out", str(tmp_path / "o"))
    assert code == 0
    doc = json.loads((tmp_path / "o" / "report.json").read_text())
    assert doc["provenance"]["input_kind"] == "csv"
    assert doc["scores"]["available"] is True


def test_analyze_criterion_flag_mapping(tmp_path, capsys):
    code, _, _ = run(
        capsys,
        "analyze",
        "fixtures/iris_corr.json",
        "--criterion",
        "eigenvalue",
        "--out",
        str(tmp_path),
    )
    assert code == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["provenance"]["criterion"] == "eigenvalue_ge_1"
    assert doc["provenance"]["k"] == 1


def test_analyze_format_json_and_csv(tmp_path, capsys):
    code, out, _ = run(
        capsys, "analyze", "fixtures/iris_corr.json", "--format", "json",
        "--out", str(tmp_path),
    )
    assert code == 0
    assert json.loads(out)["provenance"]["tool"] == "pcageom"
    code, out, _ = run(
        capsys, "analyze", "fixtures/iris_corr.json", "--format", "csv",
        "--out", str(tmp_path),
    )
    assert code == 0
    assert out.startswith("# correlation")


@pytest.mark.parametrize("fmt", ["md", "csv", "json"])
def test_analyze_renders_each_text_once(tmp_path, capsys, monkeypatch, fmt):
    calls = {"render_markdown": 0, "to_json_text": 0}

    def counted(name):
        real = getattr(cli, name)

        def wrapper(report):
            calls[name] += 1
            return real(report)

        return wrapper

    for name in calls:
        monkeypatch.setattr(cli, name, counted(name))
    code, out, _ = run(
        capsys, "analyze", "fixtures/iris_corr.json", "--format", fmt, "--out", str(tmp_path)
    )
    assert code == 0
    assert calls == {"render_markdown": 1, "to_json_text": 1}
    # the echo is the text written to disk
    if fmt == "md":
        assert out == (tmp_path / "report.md").read_text(encoding="utf-8")
    elif fmt == "json":
        assert out == (tmp_path / "report.json").read_text(encoding="utf-8")


def test_analyze_is_byte_identical(tmp_path, capsys):
    for d in ("a", "b"):
        code, _, _ = run(
            capsys,
            "analyze",
            "fixtures/iris.csv",
            "--columns",
            "1-4",
            "--header",
            "--clusters",
            "kmeans",
            "--metric",
            "cosine",
            "--out",
            str(tmp_path / d),
        )
        assert code == 0
    a = (tmp_path / "a" / "report.json").read_bytes()
    b = (tmp_path / "b" / "report.json").read_bytes()
    assert a == b


def test_missing_input_is_an_input_error(tmp_path, capsys):
    code, _, err = run(capsys, "analyze", str(tmp_path / "nope.csv"))
    assert code == 2
    assert err.startswith("pcageom: error:")


def test_bad_k_is_an_input_error(capsys):
    code, _, err = run(capsys, "analyze", "fixtures/iris_corr.json", "--k", "many")
    assert code == 2
    assert "--k" in err


def test_bad_csv_cell_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,x\n5,6\n", encoding="utf-8")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert "non-numeric" in err


def test_verify_reports_all_relations(capsys):
    code, out, _ = run(capsys, "verify", "fixtures/iris_corr.json")
    assert code == 0
    assert "22/22 relations hold" in out
    assert out.count("ok  ") == 22
    assert "FAIL" not in out


def test_verify_on_raw_csv(capsys):
    code, out, _ = run(capsys, "verify", "fixtures/iris.csv", "--columns", "1-4", "--header")
    assert code == 0
    assert "22/22 relations hold" in out


def test_both_commands_reject_a_multi_column_label(tmp_path, capsys):
    args = ("fixtures/iris.csv", "--columns", "1-4", "--header", "--label-column", "5,1")
    for argv in (("analyze", *args, "--out", str(tmp_path)), ("verify", *args)):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv[0]
        assert "--label-column must select a single column" in err, argv[0]
        assert out == "", argv[0]


def test_both_commands_reject_an_empty_column_selection(tmp_path, capsys):
    args = ("fixtures/iris.csv", "--header", "--columns", "")
    for argv in (("analyze", *args, "--out", str(tmp_path)), ("verify", *args)):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv[0]
        assert "empty column selection" in err, argv[0]
        assert out == "", argv[0]


@pytest.mark.parametrize("flags", [("--columns", "1-2"), ("--label-column", "3"), ("--header",),
                                   ("--columns", "1-2", "--label-column", "3")])
def test_both_commands_reject_csv_flags_with_json_input(tmp_path, capsys, flags):
    args = ("fixtures/iris_corr.json", *flags)
    given = ", ".join(f for f in flags if f.startswith("--"))
    for argv in (("analyze", *args, "--out", str(tmp_path)), ("verify", *args)):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv[0]
        assert f"{given} given with JSON input iris_corr.json" in err, argv[0]
        assert "apply to CSV input only" in err, argv[0]
        assert out == "", argv[0]
    assert not (tmp_path / "report.json").exists()


def test_negative_seed_is_an_input_error(tmp_path, capsys):
    code, out, err = run(capsys, "analyze", "fixtures/iris.csv", "--header", "--columns", "1-4",
                         "--clusters", "kmeans", "--seed", "-1", "--out", str(tmp_path))
    assert code == 2
    assert "seed must be non-negative" in err
    assert out == ""


def test_verify_failure_exits_one(capsys, monkeypatch):
    real = cli.verify_relations

    def sabotage(vr, eig, corr):
        checks = real(vr, eig, corr)
        checks[3] = RelationCheck(
            relation=checks[3].relation, max_abs_dev=1.0, passed=False
        )
        return checks

    monkeypatch.setattr(cli, "verify_relations", sabotage)
    code, out, _ = run(capsys, "verify", "fixtures/iris_corr.json")
    assert code == 1
    assert "21/22 relations hold" in out
    assert "FAIL" in out


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze"])  # missing input
    assert exc.value.code == 2
