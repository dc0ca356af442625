"""Time k-means variable clustering at several variable counts.

Run from the repository root with the package on the path:

    PYTHONPATH=src python benchmarks/bench_varcluster.py --label array_distances

For each variable count n the similarity profiles come from the
pipeline itself: the correlation matrix of the seeded synthetic data of
``harness.py``, its eigensystem and the determination table truncated
to k = min(12, n - 1) components.  Those n profiles are then clustered
into k clusters under every metric.  A row records the best-of time of
``cluster_kmeans``, whether the exact partition enumeration or the
heuristic restart path ran, the objective and the Lloyd iterations of
the winning restart.  Results are merged into ``BENCH_varcluster.json``
under ``--label``.
"""

from __future__ import annotations

from pathlib import Path

import harness
from pcageom.corrstats import CorrelationMatrix
from pcageom.eigensolve import eigen_symmetric
from pcageom.pcacore import explanation_table
from pcageom.tensorops import build_virtual
from pcageom.varcluster import METRICS, cluster_kmeans, similarity_profiles

OUT = Path(__file__).resolve().parent.parent / "BENCH_varcluster.json"
MAX_CLUSTERS = 12
DESCRIPTION = (
    "cluster_kmeans on pipeline similarity profiles of a seeded 3-factor model "
    f"({harness.ROWS} rows, seed {harness.SEED}), k = min({MAX_CLUSTERS}, n - 1) components "
    f"and clusters; kmeans_s is the {harness.RULE} (every run, per_pair_parent and "
    "array_distances included)"
)


def pipeline_profiles(n: int, k: int):
    names = [f"v{i + 1}" for i in range(n)]
    corr = CorrelationMatrix(r=harness.factor_correlation(n), n_obs=harness.ROWS, names=names)
    return similarity_profiles(explanation_table(build_virtual(eigen_symmetric(corr)), k, names))


def measure(n: int, profiles, k: int, metric: str) -> dict:
    kmeans_s, timed_calls, result = harness.best_of(cluster_kmeans, profiles, k, metric=metric)
    return {
        "n": n,
        "k": k,
        "metric": metric,
        "kmeans_s": kmeans_s,
        "timed_calls": timed_calls,
        "path": "exact" if result.exact else "heuristic",
        "objective": result.objective,
        "n_iterations": result.n_iterations,
    }


def measure_all():
    for n in harness.SIZES:
        k = min(MAX_CLUSTERS, n - 1)
        profiles = pipeline_profiles(n, k)
        for metric in METRICS:
            row = measure(n, profiles, k, metric)
            print(f"n={n:<4d} k={k:<3d} {metric:<7s} {row['kmeans_s'] * 1e3:10.2f} ms  "
                  f"{row['path']:<9s} objective={row['objective']!r}")
            yield row


if __name__ == "__main__":
    harness.main(OUT, DESCRIPTION, measure_all(), __doc__)
