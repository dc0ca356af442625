"""Command-line front end: analyze a data set or verify the identities."""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .eigensolve import eigen_symmetric
from .errors import PcageomError
from .fixtures import fixture_path
from .report import _sections, load_input, render_csv, render_markdown, run_analysis, to_json_text
from .svgplot import render_svg_scree, render_svg_similarity
from .tensorops import build_virtual, verify_relations
from .varcluster import METRICS

__all__ = ["main"]

_CRITERION_FLAGS = {
    "percentage": "percentage",
    "scree": "scree",
    "eigenvalue": "eigenvalue_ge_1",
    "per-variable": "per_variable",
}


def _resolve_input(raw: str) -> Path:
    """Use the path as given, falling back to the bundled fixtures.

    A nonexistent bare fixture name (``iris.csv``) or relative
    ``fixtures/iris.csv`` resolves to the packaged copy, so documented
    commands work from any directory.  Any other missing path is an
    error, not a fixture that happens to share its base name.
    """
    path = Path(raw)
    if path.exists():
        return path
    if path.parts in ((path.name,), ("fixtures", path.name)):
        try:
            return fixture_path(path.name)
        except FileNotFoundError:
            pass
    raise PcageomError(f"cli: cannot read input {raw!r}: no such file")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built on the first call and reused: parse_args keeps no state between calls
    parser = argparse.ArgumentParser(
        prog="pcageom",
        description="Correlation-geometry PCA: tables, selection criteria, "
        "variable clustering, and plots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="run the full pipeline and write report files")
    pa.add_argument("input", help="CSV data file or correlation-matrix JSON")
    pa.add_argument("--columns", help="numeric columns: names, 1-based indices, or ranges (1-4)")
    pa.add_argument("--label-column", help="column holding nominal row labels")
    pa.add_argument("--header", action="store_true", help="first row holds column names")
    pa.add_argument("--divisor", choices=["population", "sample"], default="population")
    pa.add_argument(
        "--criterion",
        choices=sorted(_CRITERION_FLAGS),
        default="per-variable",
        help="component-count criterion used when --k auto",
    )
    pa.add_argument("--threshold", type=float, help="threshold for percentage/per-variable")
    pa.add_argument("--clusters", choices=["naive", "kmeans"], default="naive")
    pa.add_argument("--metric", choices=METRICS, default="l2")
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--naive-threshold", type=float, default=0.5)
    pa.add_argument("--k", default="auto", help="components to keep: an integer or 'auto'")
    pa.add_argument("--format", choices=["md", "csv", "json"], default="md")
    pa.add_argument("--out", default=".", help="directory for report and plot files")

    pv = sub.add_parser("verify", help="check the representation identities")
    pv.add_argument("input", help="CSV data file or correlation-matrix JSON")
    pv.add_argument("--columns")
    pv.add_argument("--label-column")
    pv.add_argument("--header", action="store_true")
    return parser


def _cmd_analyze(args: argparse.Namespace) -> int:
    input_path = _resolve_input(args.input)
    k: int | str = args.k
    if isinstance(k, str) and k != "auto":
        try:
            k = int(k)
        except ValueError:
            raise PcageomError(f"cli: --k must be an integer or 'auto', got {args.k!r}") from None

    report = run_analysis(
        input_path,
        columns=args.columns,
        label_column=args.label_column,
        header=args.header,
        divisor=args.divisor,
        criterion=_CRITERION_FLAGS[args.criterion],
        threshold=args.threshold,
        cluster_method=args.clusters,
        metric=args.metric,
        seed=args.seed,
        naive_threshold=args.naive_threshold,
        k=k,
    )

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    json_text = to_json_text(report)
    (out_dir / "report.json").write_text(json_text, encoding="utf-8")
    if args.format != "json":
        json_text = None  # released before the markdown render's peak
    # built once, for report.md and the CSV echo
    sections = _sections(report)
    md_text = render_markdown(report, sections)
    (out_dir / "report.md").write_text(md_text + "\n", encoding="utf-8")
    (out_dir / "scree.svg").write_text(render_svg_scree(report), encoding="utf-8")
    k_kept = report["provenance"]["k"]
    if k_kept == 2:
        (out_dir / "similarity.svg").write_text(render_svg_similarity(report), encoding="utf-8")
    else:
        # a map left by an earlier k = 2 run in this directory would sit
        # beside a report it does not belong to
        (out_dir / "similarity.svg").unlink(missing_ok=True)
        print(
            f"pcageom: similarity.svg skipped: the map is defined for k = 2, have k = {k_kept}",
            file=sys.stderr,
        )

    if args.format == "json":
        sys.stdout.write(json_text)
    elif args.format == "csv":
        print(render_csv(report, sections))
    else:
        print(md_text)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    corr, _ = load_input(
        _resolve_input(args.input), args.columns, args.label_column, args.header
    )
    eig = eigen_symmetric(corr)
    checks = verify_relations(build_virtual(eig), eig, corr)
    width = max(len(c.relation) for c in checks)
    for c in checks:
        status = "ok  " if c.passed else "FAIL"
        print(f"{status}  {c.relation:<{width}}  max dev {c.max_abs_dev:.3e}")
    n_pass = sum(c.passed for c in checks)
    print(f"{n_pass}/{len(checks)} relations hold")
    return 0 if n_pass == len(checks) else 1


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        return _cmd_verify(args)
    except (PcageomError, ValueError, OSError) as exc:
        print(f"pcageom: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
