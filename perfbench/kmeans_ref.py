"""Array form of pcageom's restarted k-means as of the benchmark's first
version, used to record the objective each generated input and metric
reached then.

The gate requires later versions to reach an objective no higher than
this one.  The algorithm is the one the package documents: farthest-point
initialisation from seeds ``seed .. seed + restarts - 1``, Lloyd
iterations with empty clusters refilled by the point farthest from its
centroid, a stop when an update would raise the objective, and the
lowest objective over the restarts.
"""

from __future__ import annotations

import numpy as np

GUARD_TOL = 1e-12


def distances(points: np.ndarray, centers: np.ndarray, metric: str) -> np.ndarray:
    """(m, k) matrix of distances from every point to every center."""
    diff = points[:, None, :] - centers[None, :, :]
    if metric == "l1":
        return np.abs(diff).sum(axis=2)
    if metric == "l2":
        return (diff * diff).sum(axis=2)
    if metric == "linf":
        return np.abs(diff).max(axis=2)
    denom = np.linalg.norm(points, axis=1)[:, None] * np.linalg.norm(centers, axis=1)[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        d = 1.0 - (points @ centers.T) / denom
    return np.where(denom == 0.0, 1.0, np.maximum(d, 0.0))


def _centroid(members: np.ndarray, metric: str) -> np.ndarray:
    if metric == "l1":
        return np.median(members, axis=0)
    if metric == "cosine":
        direction = np.sum(members / np.linalg.norm(members, axis=1, keepdims=True), axis=0)
        total = np.linalg.norm(direction)
        return members[0].copy() if total == 0.0 else direction / total
    return members.mean(axis=0)


def _cost(points, centers, labels, metric) -> float:
    return float(distances(points, centers, metric)[np.arange(points.shape[0]), labels].sum())


def _fix_empty(points, centers, labels, kc, metric) -> None:
    for cid in range(kc):
        if np.any(labels == cid):
            continue
        counts = np.bincount(labels, minlength=kc)
        own = distances(points, centers, metric)[np.arange(points.shape[0]), labels]
        own[counts[labels] <= 1] = -np.inf
        if not np.isfinite(own).any():
            return
        i = int(np.argmax(own))
        labels[i] = cid
        centers[cid] = points[i]


def _assign(points, centers, kc, metric):
    labels = np.argmin(distances(points, centers, metric), axis=1)
    _fix_empty(points, centers, labels, kc, metric)
    return labels, _cost(points, centers, labels, metric)


def lloyd(points: np.ndarray, centers: np.ndarray, metric: str, max_iter: int = 100) -> float:
    centers = centers.copy()
    kc = centers.shape[0]
    labels, objective = _assign(points, centers, kc, metric)
    for _ in range(max_iter):
        new_centers = centers.copy()
        for cid in range(kc):
            members = points[labels == cid]
            if members.shape[0]:
                new_centers[cid] = _centroid(members, metric)
        new_labels, new_objective = _assign(points, new_centers, kc, metric)
        if new_objective > objective + GUARD_TOL:
            break
        fixpoint = np.array_equal(new_labels, labels)
        labels, centers, objective = new_labels, new_centers, new_objective
        if fixpoint:
            break
    return objective


def farthest_point_init(points: np.ndarray, kc: int, metric: str, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    pairwise = distances(points, points, metric)
    chosen = [int(rng.integers(points.shape[0]))]
    while len(chosen) < kc:
        dist = pairwise[:, chosen].min(axis=1)
        dist[chosen] = -1.0
        chosen.append(int(np.argmax(dist)))
    return points[chosen].copy()


def best_objective(points: np.ndarray, kc: int, metric: str, seed: int = 0, restarts: int = 10) -> float:
    """Lowest objective over the restarts, as ``cluster_kmeans`` reports it."""
    if metric == "cosine":
        points = points[np.linalg.norm(points, axis=1) > 0.0]
    return min(
        lloyd(points, farthest_point_init(points, kc, metric, seed + a), metric)
        for a in range(restarts)
    )
