"""The benchmark's workloads: which input, which ``analyze`` flags, and why.

Each workload stresses a different layer of the pipeline, so a change to
one layer shows on the workload that exercises it and should leave the
others flat.  Sizes keep one warm analysis at 0.3 s or below, so that
one run takes dozens of samples of every analysis and their statistics
hold still on a shared host (see README.md, "Noise").
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "fixture" (bundled CSV), "csv" or "json"
    input_file: str
    shape: dict
    flags: tuple[str, ...]
    metrics: tuple[str, ...] = ()  # rotated over consecutive analyses
    n_inputs: int = 1  # seeded inputs, rotated after each full pass over metrics
    fixed_k: int | None = None
    stresses: str = ""
    # Overrides giving a small twin of this workload: same input kind and
    # flags, a tiny input.  Set-up probes and the self-test run it.
    small: dict = field(default_factory=dict)

    def argv(self, input_path: str, out_dir: str, metric: str | None) -> list[str]:
        argv = ["analyze", input_path, *self.flags, "--out", out_dir]
        if metric is not None:
            argv += ["--metric", metric]
        return argv

    def slot(self, index: int) -> tuple[int, str | None]:
        """(input number, metric) of the index-th analysis in the rotation."""
        if not self.metrics:
            return index % self.n_inputs, None
        m = len(self.metrics)
        return (index // m) % self.n_inputs, self.metrics[index % m]

    def input_name(self, number: int) -> str:
        if self.kind == "fixture":
            return self.input_file
        stem, dot, suffix = self.input_file.partition(".")
        return f"{stem}-{number}{dot}{suffix}"

    def small_twin(self) -> "Workload":
        return replace(self, **self.small)

    def cold_slots(self) -> list[int]:
        """Rotation indices the cold runs cycle through: every input and
        every metric at least once, the j-th metric on input j mod
        n_inputs, so two inputs by four metrics take four fresh processes."""
        m = max(1, len(self.metrics))
        return [(j % self.n_inputs) * m + j % m for j in range(max(self.n_inputs, m))]

    @property
    def round_size(self) -> int:
        """Analyses per full rotation; runs stop only at a round boundary."""
        return self.n_inputs * max(1, len(self.metrics))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="iris_small",
            why="bundled 4-variable iris CSV with k-means and k=2: fixed per-call cost "
            "(parsing, rendering, SVGs, file writes) dominates; the seed does not change it",
            kind="fixture",
            input_file="iris.csv",
            shape={"n_vars": 4},
            flags=("--columns", "1-4", "--header", "--clusters", "kmeans"),
            stresses="cli, report and svgplot",
        ),
        Workload(
            name="csv_tall",
            why="seeded 4-factor CSV, 24 variables x 10000 rows, naive clusters, CSV echo: "
            "ingest dominates while eigensolve and varcluster stay nearly idle",
            kind="csv",
            input_file="tall.csv",
            shape={"n_rows": 10000, "n_vars": 24, "n_factors": 4},
            flags=("--header", "--clusters", "naive", "--format", "csv"),
            stresses="ingest",
            small={"shape": {"n_rows": 300, "n_vars": 8, "n_factors": 2}},
        ),
        Workload(
            name="json_wide",
            why="seeded 48-variable correlation JSON (n_obs 500), naive clusters: "
            "the Jacobi eigensolve dominates; ingest and varcluster do no work",
            kind="json",
            input_file="wide.json",
            shape={"n_rows": 500, "n_vars": 48, "n_factors": 4},
            flags=("--clusters", "naive"),
            stresses="eigensolve",
            small={"shape": {"n_rows": 200, "n_vars": 12, "n_factors": 3}},
        ),
        Workload(
            name="kmeans_profiles",
            why="2 seeded 32-variable x 500-row CSVs with --k 12 k-means, metric rotated "
            "l2, l1, cosine, linf: a k-means change must help every distance",
            kind="csv",
            input_file="profiles.csv",
            shape={"n_rows": 500, "n_vars": 32, "n_factors": 6},
            flags=("--header", "--k", "12", "--clusters", "kmeans"),
            metrics=("l2", "l1", "cosine", "linf"),
            fixed_k=12,
            stresses="varcluster",
            # Lloyd iterations differ from input to input; rotating two
            # inputs per run keeps that from dominating run-to-run spread
            n_inputs=2,
            small={
                "n_inputs": 1,
                "shape": {"n_rows": 200, "n_vars": 16, "n_factors": 4},
                "flags": ("--header", "--k", "4", "--clusters", "kmeans"),
                "fixed_k": 4,
            },
        ),
    )
}
