"""Time k-means variable clustering at several variable counts.

Run from the repository root with the package on the path:

    PYTHONPATH=src python benchmarks/bench_varcluster.py --label array_distances

For each variable count n the similarity profiles come from the
pipeline itself: the correlation matrix of the seeded synthetic data
``bench_eigensolve.py`` solves (a 3-factor model plus unit noise, 2000
rows), its eigensystem and the determination table truncated to
k = min(12, n - 1) components.  Those n profiles are then clustered
into k clusters under every metric.  A row records the best-of time of
``cluster_kmeans`` after one untimed warm-up call, whether the exact
partition enumeration or the heuristic restart path ran, the objective
and the Lloyd iterations of the winning restart.  Results are merged
into ``BENCH_varcluster.json`` under ``--label``, so runs of two
versions of the package (point PYTHONPATH at the other checkout's
``src``) sit side by side.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from bench_eigensolve import ROWS, SEED, environment, factor_correlation
from pcageom.corrstats import CorrelationMatrix
from pcageom.eigensolve import eigen_symmetric
from pcageom.pcacore import explanation_table
from pcageom.tensorops import build_virtual
from pcageom.varcluster import METRICS, cluster_kmeans, similarity_profiles

OUT = Path(__file__).resolve().parent.parent / "BENCH_varcluster.json"
SIZES = (4, 20, 80, 160)
MAX_CLUSTERS = 12
REPEAT = 5  # timed calls per size and metric, best kept ...
MIN_S = 0.5  # ... or more, until the calls took this long in total ...
BUDGET_S = 10.0  # ... but no more once a case's calls took this long


def pipeline_profiles(n: int, k: int):
    names = [f"v{i + 1}" for i in range(n)]
    corr = CorrelationMatrix(r=factor_correlation(n, ROWS, SEED), n_obs=ROWS, names=names)
    return similarity_profiles(explanation_table(build_virtual(eigen_symmetric(corr)), k, names))


def measure(n: int, profiles, k: int, metric: str) -> dict:
    cluster_kmeans(profiles, k, metric=metric)  # untimed warm-up
    times = []
    while (len(times) < REPEAT or sum(times) < MIN_S) and (not times or sum(times) < BUDGET_S):
        t0 = time.perf_counter()
        result = cluster_kmeans(profiles, k, metric=metric)
        times.append(time.perf_counter() - t0)
    return {
        "n": n,
        "k": k,
        "metric": metric,
        "kmeans_s": min(times),
        "timed_calls": len(times),
        "path": "exact" if result.exact else "heuristic",
        "objective": result.objective,
        "n_iterations": result.n_iterations,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", default="current", help="key the rows are stored under")
    args = parser.parse_args()

    rows = []
    for n in SIZES:
        k = min(MAX_CLUSTERS, n - 1)
        profiles = pipeline_profiles(n, k)
        for metric in METRICS:
            row = measure(n, profiles, k, metric)
            rows.append(row)
            print(f"n={n:<4d} k={k:<3d} {metric:<7s} {row['kmeans_s'] * 1e3:10.2f} ms  "
                  f"{row['path']:<9s} objective={row['objective']!r}")

    doc = json.loads(OUT.read_text()) if OUT.exists() else {}
    doc["description"] = (
        "cluster_kmeans on pipeline similarity profiles of a seeded 3-factor model "
        f"({ROWS} rows, seed {SEED}), k = min({MAX_CLUSTERS}, n - 1) components and clusters; "
        f"kmeans_s is the best of at least {REPEAT} calls (more until {MIN_S} s, at most "
        f"{BUDGET_S} s unless {REPEAT} calls take longer) after one warm-up call"
    )
    doc.setdefault("runs", {})[args.label] = {"environment": environment(), "rows": rows}
    OUT.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUT} [{args.label}]")


if __name__ == "__main__":
    main()
