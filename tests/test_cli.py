"""Command-line behavior: files written, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pcageom import cli
from pcageom import report as report_module
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
    calls = {"render_markdown": 0, "render_csv": 0, "to_json_text": 0, "_sections": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(cli, name, counted(cli, name))
    # a renderer given only the report builds the sections through report's global
    monkeypatch.setattr(report_module, "_sections", cli._sections)
    code, out, _ = run(
        capsys, "analyze", "fixtures/iris_corr.json", "--format", fmt, "--out", str(tmp_path)
    )
    assert code == 0
    assert calls == {
        "render_markdown": 1, "render_csv": int(fmt == "csv"), "to_json_text": 1, "_sections": 1
    }
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


def test_label_column_is_the_data_columns_left_out(tmp_path, capsys):
    # text labels of every awkward kind, between the data columns
    labels = ['"a,b"', '""', '"say ""hi"""', '"line\nbreak"', '"crlf\r\nbreak"', '"cr\rbreak"',
              "not a number", " 7 ", "x" * 200_000]
    values = np.random.default_rng(5).standard_normal((24, 4)) @ np.diag([1.0, 2.0, 0.5, 3.0])
    values[:, 1] += values[:, 0]
    rows = ["v1,id,v2,v3,v4"]
    for i, row in enumerate(values):
        cells = [f"{v:.6f}" for v in row]
        rows.append(",".join([cells[0], labels[i % len(labels)], *cells[1:]]))
    path = tmp_path / "labelled.csv"
    path.write_bytes(("\n".join(rows) + "\n").encode("utf-8"))

    outputs = {}
    for name, flags in (("label", ("--label-column", "id")), ("columns", ("--columns", "1,3-5"))):
        code, out, err = run(capsys, "analyze", str(path), "--header", *flags, "--format", "csv",
                             "--out", str(tmp_path / name))
        assert code == 0, err
        doc = json.loads((tmp_path / name / "report.json").read_text(encoding="utf-8"))
        outputs[name] = out, (tmp_path / name / "report.md").read_bytes(), doc
    (csv_l, md_l, doc_l), (csv_c, md_c, doc_c) = outputs["label"], outputs["columns"]
    assert csv_l == csv_c and md_l == md_c
    for doc, given in ((doc_l, ("id", None)), (doc_c, (None, "1,3-5"))):
        assert (doc["provenance"].pop("label_column"), doc["provenance"].pop("columns")) == given
    assert doc_l == doc_c
    assert doc_l["correlation"]["names"] == ["v1", "v2", "v3", "v4"]


def test_missing_input_is_an_input_error(tmp_path, capsys):
    code, _, err = run(capsys, "analyze", str(tmp_path / "nope.csv"))
    assert code == 2
    assert err.startswith("pcageom: error:")


def test_missing_path_is_not_replaced_by_a_fixture(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # the last two take the fixture fallback and find no bundled file of that name
    for raw in (str(tmp_path / "nowhere" / "iris.csv"), "elsewhere/fixtures/iris.csv",
                "nope.csv", "fixtures/nope.csv"):
        code, out, err = run(capsys, "analyze", raw, "--columns", "1-4", "--header",
                             "--out", str(tmp_path / "o"))
        assert code == 2 and out == ""
        assert f"cannot read input {raw!r}: no such file" in err
    assert not (tmp_path / "o").exists()


def test_more_observations_than_significance_allows_is_an_input_error(tmp_path, capsys):
    doc = {"names": ["a", "b", "c"], "n_obs": 2**53,
           "r": [[1.0, 1.2e-8, 0.0], [1.2e-8, 1.0, 0.0], [0.0, 0.0, 1.0]]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "analyze", str(path), "--out", str(tmp_path / "o"))
    assert code == 2 and out == ""
    assert "'n_obs' must be an integer from 3 to 1,000,000" in err
    assert not (tmp_path / "o").exists()


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


def test_parser_is_reused_without_carrying_flags_between_calls(tmp_path, capsys):
    code, _, err = run(capsys, "analyze", "fixtures/iris.csv", "--columns", "1-4", "--header",
                       "--out", str(tmp_path / "iris"))
    assert code == 0, err
    # CSV-only flags left over from the first call would make this an input error
    code, _, err = run(capsys, "analyze", "fixtures/iris_corr.json", "--out", str(tmp_path / "corr"))
    assert code == 0, err
    assert cli._build_parser() is cli._build_parser()
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze", "fixtures/iris_corr.json", "--no-such-flag"])
    assert exc.value.code == 2


def test_report_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # reports of up to 200 variables are documented as independent of
    # the thread count; n = 160 is the largest full report measured equal
    n, rows = 160, 2000
    rng = np.random.default_rng([7, n])
    data = rng.standard_normal((rows, 3)) @ rng.standard_normal((3, n)) + rng.standard_normal((rows, n))
    path = tmp_path / "wide.csv"
    np.savetxt(path, data, fmt="%.6f", delimiter=",", comments="",
               header=",".join(f"v{j + 1}" for j in range(n)))
    src = str(Path(cli.__file__).resolve().parents[1])
    reports = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = tmp_path / f"threads{threads}"
        subprocess.run([sys.executable, "-m", "pcageom.cli", "analyze", str(path), "--header",
                        "--clusters", "naive", "--format", "json", "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=300)
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_heuristic_kmeans_leaves_numpy_random_unimported(tmp_path):
    # restart starts are drawn in-package; importing numpy.random would
    # cost every process that clusters several megabytes and milliseconds
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "o"
    argv = ["analyze", "iris.csv", "--columns", "1-4", "--header", "--clusters", "kmeans",
            "--metric", "linf", "--out", str(out)]
    code = ("import json, sys\nfrom pcageom import cli\n"
            f"code = cli.main({argv!r})\n"
            "print(json.dumps([code, 'numpy.random' in sys.modules]))\n")
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path, check=True,
                          capture_output=True, text=True, timeout=120)
    assert json.loads(done.stdout.splitlines()[-1]) == [0, False]
    clusters = json.loads((out / "report.json").read_text())["clusters"]
    assert clusters["method"] == "kmeans" and clusters["exact"] is False
