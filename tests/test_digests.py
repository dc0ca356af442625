"""Byte identity of every output of ``pcageom analyze`` on a seeded corpus.

``tests/golden/digests.json`` holds, for each case of ``CASES``, the
SHA-256 of each file the call writes (report.json, report.md and the
SVGs) and of its stdout (the markdown, the CSV echo or the JSON text).
Each input is copied or generated into the working directory and named
by its file name, so provenance holds no absolute path.  The manifest
also records the environment that made it (``harness.environment()``).

Where NumPy, its BLAS and LAPACK, the machine and the BLAS thread
variables are the recorded ones, ``test_outputs_match_the_recorded_digests``
requires every digest to be equal.  Elsewhere equal bytes cannot be
expected, since another BLAS may move the last bits of a double; that
test is then skipped with the differing settings named, and
``test_corpus_writes_the_recorded_files`` checks what holds everywhere:
each case writes the recorded set of files.

After a deliberate change to the output bytes, rewrite the manifest in
the same change, from the repository root:

    PYTHONPATH=src python tests/test_digests.py

The rewrite prints each case and file whose digest changed against the
manifest it replaces, and each recorded setting that changed, so a
re-record can be reviewed.
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import json
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from pcageom import cli
from pcageom.fixtures import fixture_path
from pcageom.varcluster import METRICS

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "golden" / "digests.json"
OUTPUTS = ("report.json", "report.md", "scree.svg", "similarity.svg")
# the settings the report bytes depend on; the manifest records the rest
# of harness.environment() only for the reader
DEPENDS_ON = ("numpy", "linear_algebra", "machine", "blas_thread_vars")


def _load_harness():
    # by file path, so benchmarks/ never joins sys.path
    spec = importlib.util.spec_from_file_location("digests_harness", ROOT / "benchmarks" / "harness.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


harness = _load_harness()

IRIS = ("iris.csv", "--columns", "1-4", "--header", "--clusters", "kmeans")
CASES = {
    "iris_k2": (*IRIS, "--k", "2"),
    "iris_auto": (*IRIS, "--k", "auto"),
    "iris_naive_k2": ("iris.csv", "--columns", "1-4", "--header", "--clusters", "naive", "--k", "2"),
    **{f"factor{n}_{metric}": (f"factor{n}.csv", "--header", "--clusters", "kmeans",
                               "--k", str(min(12, n - 1)), "--metric", metric)
       for n in (20, 80) for metric in METRICS},
    "corr48_json": ("corr48.json", "--clusters", "naive", "--format", "json"),
    "tall_csv_labelled": ("tall.csv", "--header", "--clusters", "naive", "--format", "csv",
                          "--label-column", "v1"),
}


def write_inputs(workdir: Path) -> None:
    """Every input of ``CASES`` under its name in ``workdir``."""
    shutil.copyfile(fixture_path("iris.csv"), workdir / "iris.csv")
    for n in (20, 80):
        harness.write_factor_csv(workdir / f"factor{n}.csv", n)
    harness.write_factor_json(workdir / "corr48.json", 48, 500)
    harness.write_factor_csv(workdir / "tall.csv", 24, 1000)


def run_case(workdir: Path, argv: tuple[str, ...]) -> dict[str, str]:
    """The digest of each output of ``analyze *argv``, run in ``workdir``."""
    out = Path(tempfile.mkdtemp(dir=workdir))
    stdout, stderr = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, redirect_stdout(stdout), redirect_stderr(stderr):
        mp.chdir(workdir)
        rc = cli.main(["analyze", *argv, "--out", str(out)])
    assert rc == 0, stderr.getvalue()
    blobs = {name: (out / name).read_bytes() for name in OUTPUTS if (out / name).exists()}
    blobs["stdout"] = stdout.getvalue().encode("utf-8")
    return {name: hashlib.sha256(blob).hexdigest() for name, blob in blobs.items()}


def corpus_digests(workdir: Path) -> dict[str, dict]:
    write_inputs(workdir)
    return {case: {"argv": list(argv), "digests": run_case(workdir, argv)}
            for case, argv in CASES.items()}


@pytest.fixture(scope="module")
def manifest() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> dict[str, dict]:
    return corpus_digests(tmp_path_factory.mktemp("corpus"))


def test_manifest_covers_the_corpus(manifest):
    assert {case: entry["argv"] for case, entry in manifest["cases"].items()} == \
        {case: list(argv) for case, argv in CASES.items()}


def test_corpus_writes_the_recorded_files(manifest, corpus):
    for case, entry in corpus.items():
        assert sorted(entry["digests"]) == sorted(manifest["cases"][case]["digests"]), case


def test_changes_name_each_changed_case_and_file():
    old = {"environment": {"numpy": "2.4", "machine": "x86_64"},
           "cases": {"a": {"argv": ["a.csv"], "digests": {"report.json": "1", "stdout": "2"}},
                     "b": {"argv": ["b.csv"], "digests": {"report.json": "3"}},
                     "gone": {"argv": [], "digests": {}}}}
    new = {"environment": {"numpy": "2.5", "machine": "x86_64"},
           "cases": {"a": {"argv": ["a.csv"], "digests": {"report.json": "9", "stdout": "2"}},
                     "b": {"argv": ["b.csv"], "digests": {"report.json": "3"}},
                     "new": {"argv": [], "digests": {}}}}
    assert changes(old, new) == ["environment numpy: '2.4' -> '2.5'", "a: report.json",
                                 "gone: removed", "new: added"]
    assert changes(new, new) == []


@pytest.mark.parametrize("case", list(CASES))
def test_outputs_match_the_recorded_digests(manifest, corpus, case):
    here = harness.environment()
    differ = {key: (manifest["environment"].get(key), here.get(key))
              for key in DEPENDS_ON if manifest["environment"].get(key) != here.get(key)}
    if differ:
        pytest.skip(f"digests were recorded under other settings (recorded, here): {differ}; "
                    "test_corpus_writes_the_recorded_files still runs")
    assert corpus[case]["digests"] == manifest["cases"][case]["digests"]


def changes(old: dict, new: dict) -> list[str]:
    """One line per recorded setting, case or file that differs from ``old``
    to ``new``, two manifests."""
    lines = [f"environment {key}: {old['environment'].get(key)!r} -> {value!r}"
             for key, value in new["environment"].items() if old["environment"].get(key) != value]
    for case in sorted(old["cases"].keys() | new["cases"].keys()):
        if case not in new["cases"]:
            lines.append(f"{case}: removed")
        elif case not in old["cases"]:
            lines.append(f"{case}: added")
        else:
            was, now = old["cases"][case], new["cases"][case]
            files = sorted(name for name in was["digests"].keys() | now["digests"].keys()
                           if was["digests"].get(name) != now["digests"].get(name))
            if was["argv"] != now["argv"]:
                files.insert(0, "argv")
            if files:
                lines.append(f"{case}: {', '.join(files)}")
    return lines


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        cases = corpus_digests(Path(tmp))
    new = {"environment": harness.environment(), "cases": cases}
    if MANIFEST.exists():
        lines = changes(json.loads(MANIFEST.read_text(encoding="utf-8")), new)
        print("\n".join(["changed against the old manifest:", *lines] if lines else
                        ["unchanged against the old manifest"]))
    MANIFEST.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {MANIFEST}")
