"""Seeded inputs for the benchmark and the reference values that gate them.

Every generated data set comes from a factor model plus noise: ``f``
orthogonal factors, each variable loading on one of them (blocks of
equal size) with a strong primary loading and weak cross-loadings.
With primary loadings in [0.92, 0.97] every variable keeps more than
80% of its variance in the common part, so the per-variable criterion
at its default threshold keeps ``f`` components on every seed, and with
it most of the work per analysis does not depend on the seed.

The references are computed with NumPy/SciPy routines that share no
code with pcageom (``eigvalsh``, ``eigh``, ``corrcoef``, ``betainc``),
from the bytes actually written, so rounding in the text files cannot
cause a mismatch.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
from scipy.special import betainc

import kmeans_ref

PER_VARIABLE_THRESHOLD = 0.8


def _loadings(rng: np.random.Generator, n_vars: int, n_factors: int) -> np.ndarray:
    lam = rng.uniform(-0.08, 0.08, size=(n_vars, n_factors))
    block = np.arange(n_vars) * n_factors // n_vars
    lam[np.arange(n_vars), block] = rng.uniform(0.92, 0.97, size=n_vars)
    # keep every communality below 1 so the noise term stays real
    scale = np.minimum(1.0, 0.985 / np.linalg.norm(lam, axis=1))
    return lam * scale[:, None]


def factor_data(seed: int, number: int, n_rows: int, n_vars: int, n_factors: int) -> np.ndarray:
    """Rows of raw observations: factor scores times loadings plus noise,
    then a seeded affine change of units per column.  ``number`` picks
    one of several independent data sets drawn from the same seed."""
    rng = np.random.default_rng([seed, number])
    lam = _loadings(rng, n_vars, n_factors)
    uniq = np.sqrt(1.0 - np.sum(lam * lam, axis=1))
    x = rng.standard_normal((n_rows, n_factors)) @ lam.T
    x += rng.standard_normal((n_rows, n_vars)) * uniq
    return x * rng.uniform(0.5, 20.0, n_vars) + rng.uniform(-50.0, 50.0, n_vars)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_csv(path: Path, x: np.ndarray, names: list[str]) -> np.ndarray:
    """Write ``x`` with a header row; return the values as written."""
    np.savetxt(path, x, fmt="%.6f", delimiter=",", header=",".join(names), comments="")
    return np.loadtxt(path, delimiter=",", skiprows=1)


def write_corr_json(path: Path, x: np.ndarray, names: list[str]) -> np.ndarray:
    """Write the symmetrized sample correlation of ``x`` with a unit
    diagonal; return the matrix as written."""
    r = np.corrcoef(x, rowvar=False)
    r = 0.5 * (r + r.T)
    np.fill_diagonal(r, 1.0)
    doc = {"names": names, "n_obs": int(x.shape[0]), "r": r.tolist()}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return np.array(json.loads(path.read_text(encoding="utf-8"))["r"])


def p_values(r: np.ndarray, n_obs: int) -> np.ndarray:
    """Two-tailed Pearson p-values, I_{1-r^2}(df/2, 1/2), diagonal 0."""
    df = n_obs - 2
    p = betainc(df / 2.0, 0.5, np.clip(1.0 - r * r, 0.0, 1.0))
    np.fill_diagonal(p, 0.0)
    return p


def per_variable_k(w: np.ndarray, u: np.ndarray, threshold: float) -> tuple[int, float]:
    """Smallest k whose first k components explain at least ``threshold``
    of every variable, from sign-free determinations w_i * U_ji^2.

    Also returns the distance of the deciding minimum from the threshold,
    so the gate can tell a genuine mismatch from a rounding tie."""
    det = w[:, None] * (u.T ** 2)
    minima = np.cumsum(det, axis=0).min(axis=1)
    hits = np.nonzero(minima >= threshold)[0]
    k = int(hits[0]) + 1 if hits.size else w.shape[0]
    margin = float(np.min(np.abs(minima - threshold)))
    return k, margin


def similarity_points(w: np.ndarray, u: np.ndarray, k: int) -> np.ndarray:
    """Per-variable similarity profiles over the first k components."""
    return (w[:k, None] * (u[:, :k].T ** 2)).T


def build(workload, seed: int, number: int, work: Path, fixture_dir: Path) -> dict:
    """Write the workload's ``number``-th input into ``work`` and return
    its references."""
    work.mkdir(parents=True, exist_ok=True)
    shape = workload.shape
    path = work / workload.input_name(number)
    if workload.kind == "fixture":
        shutil.copyfile(fixture_dir / workload.input_file, path)
        values = np.loadtxt(path, delimiter=",", skiprows=1, usecols=range(shape["n_vars"]))
        r = np.corrcoef(values, rowvar=False)
        n_obs = values.shape[0]
    else:
        x = factor_data(seed, number, shape["n_rows"], shape["n_vars"], shape["n_factors"])
        names = [f"v{j + 1:03d}" for j in range(shape["n_vars"])]
        if workload.kind == "csv":
            values = write_csv(path, x, names)
            r = np.corrcoef(values, rowvar=False)
        else:
            r = write_corr_json(path, x, names)
        n_obs = x.shape[0]

    w, u = np.linalg.eigh(r)
    w, u = w[::-1], u[:, ::-1]
    eigenvalues = np.linalg.eigvalsh(r)[::-1]
    k_pv, margin = per_variable_k(w, u, PER_VARIABLE_THRESHOLD)
    k = workload.fixed_k or k_pv
    refs = {
        "input": str(path),
        "sha256": sha256(path),
        "n_vars": int(r.shape[0]),
        "eigenvalues": eigenvalues.tolist(),
        "r": r.tolist() if workload.kind != "json" else None,
        "p_values": p_values(r, n_obs).tolist(),
        "per_variable_k": k_pv,
        "per_variable_margin": margin,
        "k": k,
        "objectives": {},
    }
    if workload.metrics:
        points = similarity_points(w, u, k)
        refs["objectives"] = {
            metric: kmeans_ref.best_objective(points, k, metric, seed=0)
            for metric in workload.metrics
        }
    return refs
