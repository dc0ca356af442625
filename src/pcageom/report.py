"""Pipeline orchestration and report rendering (JSON, markdown, CSV).

The report dict is the single source of truth: ``to_json_text`` and the
markdown and CSV renderers read from it, so every printed cell
round-trips from ``report.json``.  Its matrix and vector blocks are the
pipeline's float64 arrays (see ``run_analysis``), which the writers
read as blocks; the rest is plain JSON data.  Tables are printed at 3
decimals; JSON carries full doubles.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Iterable
from itertools import accumulate, islice, repeat
from operator import mul
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__
from .corrstats import (
    CorrelationMatrix,
    _centered_correlation,
    derived_matrices,
    load_correlation_json,
)
from .eigensolve import eigen_symmetric
from .errors import DataError
from .ingest import (
    POPULATION,
    ColumnSummary,
    load_csv,
    parse_column_spec,
    reject_constant_columns,
    summarize,
)
from .pcacore import (
    CRITERIA,
    explanation_table,
    select_components,
    variance_explained,
)
from .tensorops import build_virtual, verify_relations
from .varcluster import cluster_kmeans, cluster_naive, cluster_order, similarity_profiles

__all__ = ["load_input", "run_analysis", "render_markdown", "render_csv", "to_json_text"]

DEFAULT_THRESHOLDS = {"percentage": 0.95, "per_variable": 0.8}


def load_input(
    input_path: str | Path,
    columns: str | None = None,
    label_column: str | None = None,
    header: bool = False,
    divisor: str = "population",
) -> tuple[CorrelationMatrix, list[ColumnSummary] | None]:
    """Read a CSV data file or a correlation-matrix JSON.

    Returns ``(corr, summaries)``: the correlation matrix, plus for CSV
    input the column summaries under ``divisor`` (``None`` for JSON
    input).  The correlation is taken from the loaded ``DataMatrix``
    itself, since r depends on neither the shift nor the scale of a
    column: this call owns that matrix, so it centers it in place and
    correlates it there, and the loaded matrix is the only full-size
    array of the analysis.  Nothing of it outlives the call.
    ``columns`` and ``label_column`` use the column spec syntax; the
    label spec must select exactly one column.  They and ``header``
    apply to CSV input only; JSON input rejects them.

    Raises:
        DataError: besides the loaders' errors, for a CSV column whose
            values are all equal or whose variance is zero.
    """
    input_path = Path(input_path)
    if input_path.suffix.lower() == ".json":
        flags = {"--columns": columns is not None, "--label-column": label_column is not None,
                 "--header": header}
        given = [flag for flag, on in flags.items() if on]
        if given:
            raise DataError(f"report: {', '.join(given)} given with JSON input {input_path.name}; "
                            "--columns, --label-column and --header apply to CSV input only")
        return load_correlation_json(input_path), None
    selectors = parse_column_spec(columns) if columns is not None else None
    label_sel: int | str | None = None
    if label_column is not None:
        parsed = parse_column_spec(label_column)
        if len(parsed) != 1:
            raise DataError("report: --label-column must select a single column")
        label_sel = parsed[0]
    data = load_csv(input_path, columns=selectors, label_column=label_sel, header=header)
    summaries = summarize(data, divisor)
    reject_constant_columns(data, summaries)
    # centered in place, the bits of correlation_matrix's centered copy
    data.values -= data.values.mean(axis=0)
    return _centered_correlation(data.values, data.column_names), summaries


def run_analysis(
    input_path: str | Path,
    columns: str | None = None,
    label_column: str | None = None,
    header: bool = False,
    divisor: str = "population",
    criterion: str = "per_variable",
    threshold: float | None = None,
    cluster_method: str = "naive",
    metric: str = "l2",
    seed: int = 0,
    naive_threshold: float = 0.5,
    k: int | str = "auto",
) -> dict:
    """Run the full pipeline on a CSV file or a correlation-matrix JSON
    and return the report, which every output renders from.

    It writes every block of the report's schema: stage results hold
    only what their stage computed, and the arguments enter from here.

    With raw data the run covers the column summaries, the scores and
    all derived tables; with a correlation JSON the score block is
    marked unavailable and everything else proceeds identically.

    The score summaries are written in closed form, with no projection
    of the data: a component's scores have mean 0 and sample variance
    its (clipped) eigenvalue, times N/(N-1) when the columns were
    standardized with the population divisor.  ``std`` is the square
    root of that variance.

    The explanation table is built once, in full (``loadings_full``),
    and everything at the chosen k is its first k rows: the
    ``determination`` and ``row_averages`` of ``reconstruction_at_k``
    are slices of ``loadings_full``'s, and each row of
    ``similarity_profiles.profiles`` is a variable's column of them.

    The report holds the matrix and vector blocks as the pipeline's own
    float64 arrays, not as lists: ``correlation.r``, ``significance``,
    ``angles_deg``, ``determination``, ``eigen.eigenvalues``, ``eigen.U``,
    ``eigen.R``, every block of ``loadings_full``, the ``determination``,
    ``column_sums`` and ``row_averages`` of ``reconstruction_at_k``, the
    selection details ``cumulative_fraction``, ``second_differences`` and
    ``min_cumulative_by_k``, and each row of
    ``similarity_profiles.profiles``.  Treat them as read-only: the
    slices share memory with ``loadings_full``.
    ``json.loads(to_json_text(report))`` is the report as plain JSON, the
    tree ``report.json`` holds.
    """
    input_path = Path(input_path)
    if criterion not in CRITERIA:
        raise ValueError(f"report: unknown criterion {criterion!r}")

    corr, summaries = load_input(input_path, columns, label_column, header, divisor)
    input_kind = "correlation_json" if summaries is None else "csv"

    derived = derived_matrices(corr)
    eig = eigen_symmetric(corr)
    vr = build_virtual(eig)
    relations = verify_relations(vr, eig, corr)
    ve = variance_explained(eig.eigenvalues)
    table = explanation_table(vr, corr.names)

    selections = {}
    for crit in CRITERIA:
        crit_threshold = threshold if threshold is not None else DEFAULT_THRESHOLDS.get(crit, 0.8)
        selections[crit] = select_components(eig.eigenvalues, table, crit, crit_threshold)

    k_selected = selections[criterion].k if k == "auto" else int(k)
    # raises for a k outside 1..n
    profiles = similarity_profiles(table, k_selected)
    if cluster_method == "naive":
        assignment = cluster_naive(profiles, corr.names, naive_threshold)
        clusters_block = {"method": "naive", "threshold": naive_threshold}
    elif cluster_method == "kmeans":
        # one cluster per kept component mirrors the naive rule's shape
        assignment = cluster_kmeans(profiles, corr.names, k_clusters=k_selected, metric=metric, seed=seed)
        clusters_block = {"method": "kmeans", "metric": metric, "objective": assignment.objective,
                          "exact": assignment.exact}
    else:
        raise ValueError(f"report: unknown cluster method {cluster_method!r}")

    if summaries is not None:
        n_obs = corr.n_obs
        variances = ve.eigenvalues * n_obs / (n_obs - 1) if divisor == POPULATION else ve.eigenvalues
        scores_block = {
            "available": True,
            "divisor": "sample",
            "summaries": [
                {"component": name, "mean": 0.0, "std": std, "variance": var}
                for name, std, var in zip(
                    table.pc_labels, np.sqrt(variances).tolist(), variances.tolist()
                )
            ],
        }
    else:
        scores_block = {"available": False, "reason": "unavailable (no raw data)"}

    return {
        "provenance": {
            "tool": "pcageom",
            "version": __version__,
            "input": str(input_path),
            "input_kind": input_kind,
            "columns": columns,
            "label_column": label_column,
            "header": header,
            "divisor": divisor,
            "criterion": criterion,
            "threshold": threshold,
            "naive_threshold": naive_threshold,
            "cluster_method": cluster_method,
            "metric": metric if cluster_method == "kmeans" else None,
            "seed": seed,
            "k_requested": k if isinstance(k, int) else str(k),
            "k": k_selected,
        },
        "column_summaries": None
        if summaries is None
        else [
            {
                "name": s.name,
                "mean": s.mean,
                "std": s.std,
                "variance": s.variance,
                "n": corr.n_obs,
                "divisor": divisor,
            }
            for s in summaries
        ],
        "correlation": {"names": corr.names, "n_obs": corr.n_obs, "r": corr.r},
        "significance": derived.p_values,
        "angles_deg": derived.angles_deg,
        "determination": derived.determination,
        "eigen": {
            "eigenvalues": eig.eigenvalues,
            "U": eig.U,
            "R": eig.R,
            # always 0: the eigensolver no longer sweeps.  Dropping the key
            # is a schema decision for the maintainer (ROADMAP.md, report.json
            # schema item), so readers of the report keep finding it.
            "sweeps": 0,
        },
        "variance_explained": [
            {
                "component": table.pc_labels[i],
                "eigenvalue": float(ve.eigenvalues[i]),
                "cumulative_eigenvalue": float(ve.cumulative_eigenvalues[i]),
                "percent": float(ve.percent[i]),
                "cumulative_percent": float(ve.cumulative_percent[i]),
            }
            for i in range(ve.n)
        ],
        "loadings_full": {
            "pc_labels": table.pc_labels,
            "variables": table.variable_names,
            "loading": table.loading,
            "determination": table.determination,
            "row_sums": table.row_sums,
            "column_sums": table.column_sums,
            "row_averages": table.row_averages,
        },
        "reconstruction_at_k": {
            "k": k_selected,
            "pc_labels": table.pc_labels[:k_selected],
            "variables": table.variable_names,
            "determination": table.determination[:k_selected],
            "column_sums": table.determination[:k_selected].sum(axis=0),
            "row_averages": table.row_averages[:k_selected],
        },
        "selection": {
            **{
                crit: {"k": sel.k, "detail": sel.detail}
                for crit, sel in selections.items()
            },
            "chosen_criterion": criterion,
            "k": k_selected,
        },
        "similarity_profiles": {
            "components": table.pc_labels[:k_selected],
            "profiles": dict(zip(corr.names, profiles)),
        },
        "clusters": {**clusters_block, "clusters": assignment.clusters},
        "scores": scores_block,
        "relations": [
            {"relation": c.relation, "max_abs_dev": c.max_abs_dev, "pass": c.passed} for c in relations
        ],
    }


def to_json_text(report: dict) -> str:
    """The report as JSON text: ``json.dumps(report, indent=2,
    sort_keys=True, default=np.ndarray.tolist) + "\\n"``, byte for byte.

    ``json.dumps`` runs its pure-Python encoder whenever it indents;
    this writer walks the tree once, appending pieces to one list joined
    at the end.  Every double of the report is left as a slot: each
    float64 array of one or two dimensions (the report's matrix and
    vector blocks, which ``run_analysis`` names) as one, and each float
    scalar of the record lists as one.  After the walk each distinct
    double of all the slots is formatted once (``_fill``): the report
    repeats many (``eigen.R`` is ``U`` transposed, the matrices are
    symmetric).  Doubles are told apart by their bits, so ``0.0`` and
    ``-0.0`` keep their own text.  A finite double's text is
    ``float.__repr__``'s, and ``NaN``, ``Infinity`` and ``-Infinity``
    are ``json.dumps``'s.  From ``_REPR_BATCH_MIN`` distinct doubles on,
    NumPy writes the texts of those whose shortest digits exact integer
    and double-double arithmetic proves (``_certified``: all but a few
    of the normal doubles below 1e16); the rest, and every double of a
    smaller report, go through ``float.__repr__`` itself.  Any other
    array is written as its ``tolist()``.  Nothing is cached between
    calls.
    """
    out: list[str] = []
    values: list = []
    slots: list[tuple[int, int, int, str, str]] = []
    floats: list[float] = []
    float_at: list[int] = []
    _walk(report, "", out, values, slots, floats, float_at)
    out.append("\n")
    _fill(out, values, slots, floats, float_at)
    return "".join(out)


def _walk(o, indent: str, out: list, values: list, slots: list, floats: list, float_at: list) -> None:
    """Append ``o`` as indented JSON whose first line starts at ``indent``.

    A ``str`` and a ``float`` are tested first, as the most common
    leaves.  A float (``np.float64`` included) appends a placeholder:
    the value goes to ``floats`` and the placeholder's index in ``out``
    to ``float_at``.  A non-empty float64 array of one or two dimensions
    appends a placeholder and records the slot ``(index in out, rows,
    columns, separator within a row, text between rows)``; the array
    goes to ``values``.  Any other array is walked as its ``tolist()``.
    A value of another type, or a key that is not a ``str``, raises a
    ``TypeError`` naming its type (the key's from the sort or the
    quote).
    """
    if isinstance(o, str):
        out.append(_quote(o))
        return
    if isinstance(o, float):
        float_at.append(len(out))
        out.append("")
        floats.append(o)
        return
    if isinstance(o, np.ndarray):
        if o.dtype != np.float64 or not 1 <= o.ndim <= 2 or not o.size:
            _walk(o.tolist(), indent, out, values, slots, floats, float_at)
            return
        inner = indent + "  "
        if o.ndim == 1:
            out.append("[\n" + inner)
            slots.append((len(out), 1, o.size, ",\n" + inner, ""))
            close = "\n" + indent + "]"
        else:
            row = inner + "  "
            out.append("[\n" + inner + "[\n" + row)
            slots.append((len(out), *o.shape, ",\n" + row, "\n" + inner + "],\n" + inner + "[\n" + row))
            close = "\n" + inner + "]\n" + indent + "]"
        out += ("", close)
        values.append(o)
        return
    if isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = indent + "  "
        sep = ",\n" + inner
        out.append("[\n" + inner)
        for i, v in enumerate(o):
            if i:
                out.append(sep)
            _walk(v, inner, out, values, slots, floats, float_at)
        out.append("\n" + indent + "]")
        return
    if isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for key in sorted(o):
            out.append(sep + _quote(key) + ": ")
            sep = ",\n" + inner
            _walk(o[key], inner, out, values, slots, floats, float_at)
        out.append("\n" + indent + "}")
        return
    out.append(_scalar(o))


def _scalar(o) -> str:
    """A value that is neither a ``str``, a float, an array, a list, a
    tuple nor a dict, as JSON: ``None``, a bool or an int."""
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _fill(out: list, values: list, slots: list[tuple[int, int, int, str, str]],
          floats: list[float], float_at: list[int]) -> None:
    """Write each slot's text into ``out``, formatting every distinct bit
    pattern of the float64 arrays in ``values`` and the scalars in
    ``floats`` once.

    The scalars join the arrays as one more block, so the distinct
    count that picks the formatter counts them too.  From
    ``_REPR_BATCH_MIN`` distinct doubles on, ``_repr_batch`` formats
    them: NumPy writes the text of each double whose shortest digits
    ``_certified`` proves, and ``float.__repr__`` the others.  Below that
    count ``float.__repr__`` formats them all.  ``NaN`` and the
    infinities take ``json.dumps``'s names."""
    if floats:
        values.append(np.array(floats, dtype=np.float64))
    if not values:
        return
    bits = np.concatenate(values, axis=None).view(np.uint64)
    values.clear()
    distinct, which = np.unique(bits, return_inverse=True)
    del bits
    doubles = distinct.view(np.float64)
    # an object array hands out each value's text in one gather, not one
    # Python index per value
    texts = _repr_batch(doubles) if doubles.size >= _REPR_BATCH_MIN else _reprs(doubles)
    named = ~np.isfinite(doubles)
    if named.any():
        texts[named] = ["NaN" if v != v else "Infinity" if v > 0 else "-Infinity"
                        for v in doubles[named].tolist()]
    pieces = iter(texts[which].tolist())
    del distinct, doubles, which, texts
    for at, rows, cols, sep, between in slots:
        out[at] = between.join([sep.join(islice(pieces, cols)) for _ in range(rows)])
    # the scalars' texts come last, in walk order
    for at, text in zip(float_at, pieces):
        out[at] = text


# the batch and float.__repr__ took equal time at 450 to 550 distinct
# doubles of seeded 8- and 9-variable k-means reports (record floats
# counted), the batch 1.4x as long at iris's 149 and 0.8x at 1,188:
# below this many its fixed NumPy calls cost more than the
# float.__repr__ calls they save
_REPR_BATCH_MIN = 512
# doubles per batch block, which bounds the batch's temporaries: at 4096
# perfbench's json_wide read peak_rss_mb about 0.65 MB above float.__repr__
_REPR_BLOCK = 4096
# Veltkamp's splitter for a double: 2**27 + 1
_SPLITTER = 134217729.0
# a value whose distance to a candidate lies within this of the rounding
# boundary or of a tie is left to float.__repr__: the float arithmetic on
# the scaled value is off by less than 1e-12
_MARGIN = 1e-9
_FRACTION_BITS = np.uint64(2**52 - 1)
# the smallest normal double: below it the spacing of doubles stops
# scaling with the value, and float.__repr__ writes the few there are
_NORMAL_MIN = 2.0**-1022


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: ``a == hi + lo`` exactly, each half of at most 26
    significant bits, so the product of two halves is exact."""
    hi = a * _SPLITTER
    lo = hi - a
    hi -= lo
    lo = np.subtract(a, hi, out=lo)
    return hi, lo


def _pow10_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """10**s * 2**-t for s = 0..324 as a double-double ``(P, rest)``,
    within 2**-106 of it relative, and 2**t.

    P is the nearest double and ``rest`` the nearest double to what is
    left; both come from Python ints, whose true division rounds
    correctly.  Up to s = 22 10**s is a double and its rest is 0.  t is
    0 up to s = 300 and 128 past it, where Veltkamp's split of 10**s
    would overflow.  The top s is 16 - floor(log10(2**-1022)).
    """
    shifts = [0] * 301 + [128] * 24
    tens = list(accumulate(repeat(10, len(shifts) - 1), mul, initial=1))
    p = [ten / 2**t for ten, t in zip(tens, shifts)]
    rest = [(ten - (int(h) << t)) / 2**t for ten, h, t in zip(tens, p, shifts)]
    return np.array(p), np.array(rest), np.ldexp(1.0, shifts)


_POW10, _POW10_REST, _POW10_UP = _pow10_table()
_POW10_HI, _POW10_LO = _split(_POW10)


def _repr_batch(doubles: np.ndarray) -> np.ndarray:
    """``float.__repr__`` of each of ``doubles``, as an object array.

    ``_certified`` proves the digits of most of them and ``_texts`` lays
    those out; every other value goes through ``float.__repr__``.  The
    work runs ``_REPR_BLOCK`` values at a time, so its temporaries stay
    bounded.
    """
    texts = np.empty(doubles.size, dtype=object)
    for start in range(0, doubles.size, _REPR_BLOCK):
        x = doubles[start:start + _REPR_BLOCK]
        block = texts[start:start + _REPR_BLOCK]
        at, c, s, j = _certified(x)
        block[at] = np.fromiter(_texts(c, s, j, x[at] < 0), object, at.size)
        del c, s, j
        rest = np.ones(x.size, dtype=bool)
        rest[at] = False
        block[rest] = _reprs(x[rest])
    return texts


def _reprs(doubles: np.ndarray) -> np.ndarray:
    """``float.__repr__`` of each of ``doubles``, as an object array."""
    return np.fromiter(map(float.__repr__, doubles.tolist()), object, doubles.size)


def _scaled(ax: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(Y, f)`` with ``Y + f`` within 6e-15 of ``ax * 10**s``: ``Y`` an
    int64 and ``f`` a double in [0, 1), for a product in [2**53, 2**57).

    ``ax`` holds normal doubles, and is first multiplied in place by
    2**t where the table holds 10**s * 2**-t (past s = 300): an exact
    scaling that leaves the product as it is.  Dekker's two-product
    gives ``ax * _POW10[s]`` as ``hi + lo`` exactly, and ``hi`` is an
    integer because it is 2**53 or more.  ``ax * _POW10_REST[s]`` is then
    added to ``lo``.  Three errors remain, each at most 2**-49: the
    table's 2**-106 relative, the rounding of that product (at most 16)
    and the rounding of the sum (at most 24).  Together that is under
    6e-15, about 2**-104 of a product near 1e17.  ``lo`` less its floor
    is exact.
    """
    ax *= _POW10_UP[s]
    hi = _POW10[s]
    hi *= ax
    a_hi, a_lo = _split(ax)
    lo = _POW10_HI[s]
    lo *= a_hi
    lo -= hi
    p_lo = _POW10_LO[s]
    a_hi *= p_lo
    lo += a_hi
    np.take(_POW10_HI, s, out=a_hi)
    a_hi *= a_lo
    lo += a_hi
    a_lo *= p_lo
    lo += a_lo
    np.take(_POW10_REST, s, out=a_lo)
    a_lo *= ax
    lo += a_lo
    del a_hi, a_lo, p_lo
    whole = np.floor(lo)
    lo -= whole
    y = hi.astype(np.int64)
    del hi
    y += whole.astype(np.int64)
    return y, lo


def _certified(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """The values of ``x`` whose ``float.__repr__`` digits exact
    arithmetic proves, after Steele & White's shortest-digits rule.

    Returns ``(at, c, s, j)``: their indices in ``x``; their digits as a
    17-digit int64 ``c`` whose ``j`` trailing zeros repr drops; and the
    int16 ``s`` with ``|x| * 10**s`` in [1e16, 1e17), from 0 to 324.

    A value qualifies when it is a normal double below 1e16 and its
    significand is not a power of two, so that its rounding interval is
    symmetric.  The scaled value y = |x| * 10**s is ``Y + f`` to within
    6e-15 (``_scaled``: 10**s is a double-double, about 2**-104
    relative), and the half-ulp H = 2**(e - 1) * 10**s is within 2e-15
    of what the nearest double to 10**s gives.  Both errors lie far
    inside ``_MARGIN``, so every comparison below that clears the
    margin decides as exact arithmetic would.  A decimal round-trips
    when it lies within H of y.  A multiple of 10**(j + 1) is a multiple
    of 10**j, so the nearest multiple of 10**j to y fits for every j up
    to some J: the nearest multiple of 10**J has the fewest digits, and
    is the closest of that length, which is what repr prints.  A value
    is left out when a distance lies within ``_MARGIN`` of H, when two
    multiples fit at the same distance, when it still fits at j = 4 (13
    digits or fewer, few values) or when its digits reach 1e17.
    Subnormals and |x| >= 1e16 are left out: the report's doubles are
    correlations, p-values, angles, loadings and eigenvalues of at most
    the variable count, and hardly any of them lie there.
    """
    ax = np.abs(x)
    at = (ax >= _NORMAL_MIN) & (ax < 1e16) & ((x.view(np.uint64) & _FRACTION_BITS) != 0)
    at = np.flatnonzero(at)
    ax = ax[at]
    lg = np.log10(ax)
    np.floor(lg, out=lg)
    np.subtract(16.0, lg, out=lg)
    s = lg.astype(np.int16)
    del lg
    # log10 can miss by one next to a power of ten, leaving y outside
    # [1e16, 1e17): those values are left to float.__repr__
    y, f = _scaled(ax, s)
    ok = (y >= 10**16) & (y < 10**17)
    # the half-ulp: |x| = m * 2**(e - 53) with frexp's exponent e, taken
    # of ax as _scaled scaled it, to match the table's 10**s * 2**-t
    _, e = np.frexp(ax, out=(ax, np.empty(ax.size, dtype=np.int32)))
    del ax
    e -= 54
    half = np.ldexp(_POW10[s], e)
    del e
    # each candidate is Y less its last four digits plus a multiple of
    # 10**j in [0, 10000], measured from r = Y % 10000 + f
    r = y % 10000
    y -= r
    r = r.astype(np.float64)
    r += f
    del f
    # j = 0: H > 0.55 always, so the nearest integer fits; ties are at 0.5
    near = np.rint(r)
    gap = r - near
    np.abs(gap, out=gap)
    gap -= 0.5
    np.abs(gap, out=gap)
    ok &= gap > _MARGIN
    del gap
    j = np.zeros(at.size, dtype=np.int8)
    # the values that fit at j - 1: all of them at first, taken as a
    # slice so that the widest step indexes nothing
    fits = slice(None)
    for power in (1, 2, 3, 4):
        step = 10.0**power
        rest = r[fits]
        cand = rest / step
        np.rint(cand, out=cand)
        cand *= step
        gap = rest - cand
        np.abs(gap, out=gap)
        if power == 1:
            # only here can a tie fit: 100 / 2 and more exceed H
            ok &= np.abs(gap - 5.0) > _MARGIN
        gap -= half[fits]
        ok[fits] &= np.abs(gap) > _MARGIN
        inside = gap < 0
        fits = np.flatnonzero(inside) if power == 1 else fits[inside]
        j[fits] = power
        near[fits] = cand[inside]
        del rest, cand, gap, inside
    ok[fits] = False  # 13 digits or fewer
    del r, half, fits
    y += near.astype(np.int64)
    del near
    ok &= y < 10**17
    ok = np.flatnonzero(ok)
    return at[ok], y[ok], s[ok], j[ok]


# the rows of ``_texts``' byte matrix: a sign, 22 rows of zeros, digits
# and point, five of exponent and a newline
_SIGN, _BODY, _EXP, _END = 0, 1, 23, 28
_BODY_ROWS = np.arange(22, dtype=np.int8)[:, None]
_LEAD_ROWS = np.arange(4, dtype=np.int8)[:, None]
# 10**8 to 10**0: a nine-digit half's quotients by these give its digits
_DIGIT_POWERS = 10 ** np.arange(8, -1, -1, dtype=np.uint32)[:, None]
# column s: the exponent's five rows for a value of |x| * 10**s in
# [1e16, 1e17), "e-" and the digits of s - 16, the hundreds only from
# 100 on; all 0 in fixed notation, s <= 20.  Built from bytes: NumPy's
# integer division here would page in about 0.25 MB of code that a small
# report's analysis never runs
_EXP_TEXT = np.frombuffer(b"".join(
    b"\0" * 5 if s <= 20 else b"e-\0%02d" % (s - 16) if s < 116 else b"e-%d" % (s - 16)
    for s in range(_POW10.size)
), dtype=np.uint8).reshape(-1, 5).T.copy()


def _texts(c: np.ndarray, s: np.ndarray, j: np.ndarray, neg: np.ndarray) -> list[str]:
    """The texts of ``c * 10**-s``, negative where ``neg``: the 17 digits
    of the int64 ``c`` < 1e17, leading zeros included, less the last
    ``j`` but for those left of the point and the one right after it.

    ``_certified``'s values have no leading zero, and ``_thousandths``'
    keys below 1000 have one, left of the point.  The layout is CPython
    repr's: fixed notation from 1e-4 up (``0.000ddd``, ``ddd.ddd``, and
    ``ddd0.0`` when the digits end left of the point), ``d.ddde-05`` to
    ``d.ddde-308`` below.  Each text is a column of a uint8 matrix, 0
    where it has no character; the digits come from two broadcast ``//``
    of c's nine-digit halves against a column of powers of ten.  The
    matrix is read out row-major once, its zeros dropped, and the texts
    split at their newlines.
    """
    size = c.size
    # digits left of the decimal point, held at -4 in scientific notation
    # so that it stays an int8
    point = 17 - np.minimum(s, 21).astype(np.int8)
    sci = point <= -4
    # rows 1-4: four leading zeros; rows 5-21: the 17 digits
    lead = np.zeros((23, size), dtype=np.uint8)
    # rows 4-12 and 13-21 hold the quotients of c's two nine-digit halves
    # by the powers of ten, mod 256 (row 4 is always 0); a digit is its
    # quotient less ten times the row above's, mod 256 as well
    half = c // 1_000_000_000
    lead[4:13] = half.astype(np.uint32) // _DIGIT_POWERS
    half *= -1_000_000_000
    half += c
    lead[13:22] = half.astype(np.uint32) // _DIGIT_POWERS
    del half
    digits = lead[4:22].reshape(2, 9, size)
    digits[:, 1:] -= np.uint8(10) * digits[:, :-1]
    lead[5:22] += np.uint8(ord("0"))
    # the first 17 - j digits stay, and so do those left of the point and
    # the one right after it (point + 1 is -3 in scientific notation)
    lead[5:22] *= _BODY_ROWS[:17] < np.maximum(point + 1, 17 - j)
    np.multiply((_LEAD_ROWS >= 3 + point) & ~sci, np.uint8(ord("0")), out=lead[1:5])
    # the point follows body row 3 + point, or the first digit in
    # scientific notation; the rows after it move down by one
    dot = np.where(sci, 4, 3 + point)
    rows = np.empty((_END + 1, size), dtype=np.uint8)
    np.multiply(neg, np.uint8(ord("-")), out=rows[_SIGN])
    body = rows[_BODY:_EXP]
    body[:] = lead[1:]
    np.copyto(body, lead[:-1], where=_BODY_ROWS > dot)
    del lead
    body[dot + 1, np.arange(size)] = ord(".")
    np.take(_EXP_TEXT, s, axis=1, out=rows[_EXP:_END])
    rows[_END] = ord("\n")
    # unused rows go; each copy is dropped once the next is made
    rows = rows[rows.any(axis=1)]
    data = rows.T.tobytes()
    del rows, body
    data = data.translate(None, b"\0").decode("ascii")
    texts = data.split("\n")
    del data
    texts.pop()
    return texts


def _three_decimals(blocks: list[tuple[np.ndarray, float]]) -> list[list]:
    """Each block's cells as ``f"{v * scale:.3f}"``, byte for byte, as
    nested lists in the block's shape; a block is ``(array of floats,
    scale)``, of one or two dimensions (or what ``np.asarray`` makes one).

    The cells of all blocks are formatted in one pass.  A cell
    w = v * scale is keyed by the bits of k = rint(1000 * w), so
    ``-0.000`` keeps its own text, and each distinct key is laid out
    from its digits as k / 1000 (``_thousandths``).  A cell that is not
    finite, has |1000 * w| of 2**31 or more, or lies within 1e-6 of a .5
    boundary goes through the f-string itself: below 2**31 the product
    1000 * w is within 2**-22 of the exact one, so off the margin rint
    rounds as the f-string does.  Nothing is cached between calls.
    """
    arrays = [np.asarray(values, dtype=np.float64) for values, _ in blocks]
    bounds = [*accumulate((a.size for a in arrays), initial=0)]
    spans = list(zip(bounds, bounds[1:]))
    # each array is dropped once used: together they would set the
    # render's peak memory
    w = np.concatenate(arrays, axis=None)
    with np.errstate(over="ignore", invalid="ignore"):
        for (_, scale), (start, stop) in zip(blocks, spans):
            if scale != 1.0:
                w[start:stop] *= scale
        p = w * 1000.0
        k = np.rint(p)
        loose = np.flatnonzero((np.abs(p) >= 2.0**31) | ~(np.abs(np.abs(p - k) - 0.5) > 1e-6))
    loose_texts = [f"{v:.3f}" for v in w[loose].tolist()]
    del w, p
    k[loose] = 0.0
    distinct, which = np.unique(k.view(np.uint64), return_inverse=True)
    del k
    texts = np.empty(distinct.size, dtype=object)
    texts[:] = _thousandths(distinct.view(np.float64))
    del distinct
    cells = texts[which]
    del which
    cells[loose] = loose_texts
    return [cells[start:stop].reshape(a.shape).tolist() for a, (start, stop) in zip(arrays, spans)]


# 10**4 to 10**9: a key's digit count, at least 4, is 4 plus how many it reaches
_KEY_DIGITS = 10.0 ** np.arange(4, 10)[:, None]


def _thousandths(keys: np.ndarray) -> list[str]:
    """``"{:.3f}".format(k / 1000)`` for each of ``keys``, integer-valued
    doubles k with |k| <= 2**31 (``-0.0`` among them).

    The text is the sign, |k| // 1000 without leading zeros, ".", and
    |k| % 1000 zero-padded to three digits.  That is the format's text:
    fl(k / 1000) lies within 2.4e-10 of k / 1000 (half an ulp of a value
    below 2**22), far from the nearest 3-decimal rounding boundary, 5e-4
    away.  ``_texts`` lays it out as the nd digits of |k|, nd its digit
    count but at least four, shifted to the top of 17 and times 10**-3:
    c = |k| * 10**(17 - nd), s = 20 - nd, which puts the point three
    digits from the end in fixed notation, and j = 17 - nd digits cut.
    """
    magnitude = np.abs(keys)
    j = 13 - (magnitude >= _KEY_DIGITS).sum(axis=0, dtype=np.int8)
    # exact: |k| * 5**j stays below 2**53
    magnitude *= _POW10[j]
    c = magnitude.astype(np.int64)
    del magnitude
    return _texts(c, j + 3, j, np.signbit(keys))


def _labelled(labels: Iterable[str], rows: list[list[str]]) -> list[list[str]]:
    return [[label, *row] for label, row in zip(labels, rows)]


def _fields(records: list[dict], keys: tuple[str, ...]) -> list[list]:
    """One row per record: its ``keys``' values, for ``_three_decimals``."""
    return [[r[key] for key in keys] for r in records]


_STATS = ("mean", "std", "variance")
_SHARES = ("eigenvalue", "cumulative_eigenvalue", "percent", "cumulative_percent")


def _sections(report: dict) -> list[tuple]:
    """The report's tables in print order, shared by both text renderers.

    Each section is ``(markdown title line, CSV title or None, headers,
    rows)``.  A header or cell that the two formats spell differently is
    a ``(markdown, csv)`` pair, and ``None`` on one side leaves that cell
    out of that format; a header or row that holds a pair is a tuple,
    one that holds none a list.  A CSV title of ``None`` keeps the table
    out of the CSV; headers of ``None`` make the rows markdown text
    lines.  Every 3-decimal cell, of the matrices and of the record
    tables alike, is formatted in one ``_three_decimals`` pass.
    """
    names = report["correlation"]["names"]
    eig = report["eigen"]
    full = report["loadings_full"]
    rec = report["reconstruction_at_k"]
    prof = report["similarity_profiles"]
    summaries = report["column_summaries"] or []
    scores = report["scores"]
    score_summaries = scores["summaries"] if scores["available"] else []
    (r, p, angles, det_pct, eigenvalues, U, loading, det, row_sums, column_sums, rec_det,
     rec_averages, rec_sums, profiles, summary_cells, share_cells,
     score_cells) = _three_decimals([
        (report["correlation"]["r"], 1.0),
        (report["significance"], 1.0),
        (report["angles_deg"], 1.0),
        (report["determination"], 100.0),
        (eig["eigenvalues"], 1.0),
        (eig["U"], 1.0),
        (full["loading"], 1.0),
        (full["determination"], 1.0),
        (full["row_sums"], 1.0),
        (full["column_sums"], 1.0),
        (rec["determination"], 1.0),
        (rec["row_averages"], 100.0),
        (rec["column_sums"], 100.0),
        # report.json sorts the profile names: rows follow the variables
        ([prof["profiles"][name] for name in rec["variables"]], 1.0),
        (_fields(summaries, _STATS), 1.0),
        (_fields(report["variance_explained"], _SHARES), 1.0),
        (_fields(score_summaries, _STATS), 1.0),
    ])

    sections = []
    if summaries:
        sections.append((
            "## Column summaries", "column summaries", ["column", *_STATS],
            _labelled([s["name"] for s in summaries], summary_cells),
        ))
    for md_title, csv_title, rows in (
        ("## Correlation matrix", "correlation", r),
        ("## Significance levels (two-tailed p-values)", "significance", p),
        ("## Angles between variables (degrees)", "angles_deg", angles),
        ("## Determination coefficients (percent)", "determination_percent", det_pct),
    ):
        sections.append((md_title, csv_title, ["", *names], _labelled(names, rows)))

    pcs = full["pc_labels"]
    sections.append((
        "## Eigensystem", None, ["component", "eigenvalue"],
        [[pc, v] for pc, v in zip(pcs, eigenvalues)],
    ))
    sections.append(("Eigenvectors in columns:", None, ["", *pcs], _labelled(names, U)))
    sections.append((
        "## Variance explained", "variance explained",
        ("component", "eigenvalue", "cumulative", "percent",
         ("cumulative percent", "cumulative_percent")),
        _labelled([v["component"] for v in report["variance_explained"]], share_cells),
    ))

    sections.append((
        "## Loadings (components vs variables)", "loadings", ["", *full["variables"]],
        _labelled(full["pc_labels"], loading),
    ))
    det_rows = [
        [label, *row, total] for label, row, total in zip(full["pc_labels"], det, row_sums)
    ]
    det_rows.append((("column sum", "column_sum"), *column_sums, ""))
    sections.append((
        "## Determination (components vs variables)", "determination_components",
        ("", *full["variables"], ("row sum", "row_sum")), det_rows,
    ))

    rec_rows = [
        [label, *row, avg] for label, row, avg in zip(rec["pc_labels"], rec_det, rec_averages)
    ]
    rec_rows.append((("reconstruction %", "reconstruction_percent"), *rec_sums, ""))
    sections.append((
        f"## Reconstruction with the first {rec['k']} component(s)", f"reconstruction_k{rec['k']}",
        ("", *rec["variables"], ("row average %", "row_average_percent")), rec_rows,
    ))

    sel = report["selection"]
    sel_rows = []
    for crit in CRITERIA:
        detail = sel[crit]["detail"]
        notes = [f"threshold {detail['threshold']}"] if "threshold" in detail else []
        if detail.get("no_elbow"):
            notes.append("no elbow")
        sel_rows.append((crit, str(sel[crit]["k"]), ("; ".join(notes), None)))
    chosen = sel["chosen_criterion"]
    sel_rows.append(((f"chosen: {chosen}", f"chosen:{chosen}"), str(sel["k"]), ("", None)))
    sections.append((
        "## Component-count selection", "selection", ("criterion", "k", ("notes", None)), sel_rows
    ))

    sections.append((
        "## Similarity profiles", "similarity_profiles", ["variable", *prof["components"]],
        _labelled(rec["variables"], profiles),
    ))
    clusters = report["clusters"]["clusters"]
    clusters = [(cid, clusters[cid]) for cid in cluster_order(clusters)]
    sections.append((
        "## Clusters", "clusters", ["cluster", "members"],
        [(cid, (", ".join(members) if members else "(empty)", ";".join(members)))
         for cid, members in clusters],
    ))

    scores = report["scores"]
    if scores["available"]:
        sections.append((
            "## Scores", "scores",
            ("component", "mean", "std", ("variance (sample divisor)", "variance_sample")),
            _labelled([s["component"] for s in score_summaries], score_cells),
        ))
    else:
        sections.append(("## Scores", None, None, [scores["reason"]]))
    sections.append((
        "## Representation identities", "relations",
        ("relation", ("max abs deviation", "max_abs_dev"), ("status", "pass")),
        [
            [c["relation"], f"{c['max_abs_dev']:.3e}", "pass" if c["pass"] else "FAIL"]
            for c in report["relations"]
        ],
    ))
    return sections


def _side(cells: list | tuple, side: int) -> list[str]:
    """One format's cells of a row: a list is the same in both formats; a
    tuple's pairs are resolved to ``side`` and its ``None`` cells dropped."""
    if cells.__class__ is list:
        return cells
    return [
        c if c.__class__ is str else c[side]
        for c in cells
        if c.__class__ is str or c[side] is not None
    ]


def render_markdown(report: dict, sections: list[tuple] | None = None) -> str:
    """Render the analysis report as markdown tables (3-decimal cells).

    ``sections`` is ``_sections(report)`` when the caller has built it
    already, to share with ``render_csv``; by default it is built here.
    """
    prov = report["provenance"]
    lines = [
        "# Correlation-geometry PCA report",
        "",
        f"- input: `{prov['input']}` ({prov['input_kind']})",
        f"- divisor: {prov['divisor']}; seed: {prov['seed']}",
        f"- criterion: {prov['criterion']}"
        + (f" (threshold {prov['threshold']})" if prov["threshold"] is not None else "")
        + f"; components kept: {prov['k']}",
        f"- clustering: {prov['cluster_method']}"
        + (f" ({prov['metric']})" if prov["metric"] else ""),
        "",
    ]
    # every text cell that is not a fixed label holds a variable name, so
    # only a name can put a "|" or a line break in a cell; the tables then
    # write "\|" and "<br>", and every table row stays one line
    escape = any(c in name for name in report["correlation"]["names"] for c in "|\r\n")
    for title, _, headers, rows in sections or _sections(report):
        lines += [title, ""]
        if headers is None:
            lines += rows
        else:
            headers = _side(headers, 0)
            if escape:
                headers = _escape_cells(headers)
                rows = [_escape_cells(_side(row, 0)) for row in rows]
            lines.append("| " + " | ".join(headers) + " |")
            lines.append("| " + " | ".join(["---"] * len(headers)) + " |")
            lines += ["| " + " | ".join(_side(row, 0)) + " |" for row in rows]
        lines.append("")
    return "\n".join(lines)


def _escape_cells(cells: list[str]) -> list[str]:
    return [c.replace("|", "\\|").replace("\r\n", "<br>").replace("\r", "<br>").replace("\n", "<br>")
            for c in cells]


def render_csv(report: dict, sections: list[tuple] | None = None) -> str:
    """Render the report as sectioned CSV with the same 3-decimal cells.

    Each table is a ``# title`` line, a header row and its rows, quoted
    per RFC 4180; a blank line separates tables.  The eigensystem and
    the selection notes are markdown only.  ``sections`` is as for
    ``render_markdown``.
    """
    buf = io.StringIO()
    # a "\r" in the terminator makes the writer quote cells holding one;
    # each row still ends in "\n"
    rows_out = SimpleNamespace(write=lambda line: buf.write(line[:-2] + "\n"))
    writer = csv.writer(rows_out, lineterminator="\r\n")
    for _, title, headers, rows in sections or _sections(report):
        if title is None:
            continue
        buf.write(f"# {title}\n")
        writer.writerow(_side(headers, 1))
        writer.writerows(_side(row, 1) for row in rows)
        buf.write("\n")
    return buf.getvalue()[:-1]
