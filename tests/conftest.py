"""Shared fixtures and frozen reference values.

The bundled ``iris_corr.json`` quotes the iris correlation matrix at 3
decimals.  The ``*_3DP`` constants below are reference values quoted at
that same print precision for this matrix, so tests compare against
them at print-level tolerances (stated at each assert).  The plain
``REF_*`` constants are full-precision values frozen from independent
computations (characteristic-polynomial bisection, quadrature, direct
summation) and guard regressions at much tighter tolerances.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from pcageom.corrstats import load_correlation_json
from pcageom.eigensolve import eigen_symmetric
from pcageom.fixtures import fixture_path
from pcageom.ingest import load_csv, parse_column_spec, standardize
from pcageom.pcacore import explanation_table
from pcageom.tensorops import build_virtual

REF_NAMES = ["Sepal Length", "Sepal Width", "Petal Length", "Petal Width"]

REF_EIGENVALUES_3DP = np.array([2.849, 0.961, 0.158, 0.033])

# eigenvectors in columns, fixed sign convention
REF_EIGENVECTORS_3DP = np.array(
    [
        [0.534, 0.317, 0.757, 0.203],
        [-0.213, 0.948, -0.229, -0.066],
        [0.584, 0.026, -0.212, -0.783],
        [0.573, 0.030, -0.574, 0.584],
    ]
)

# loadings: components in rows, variables in columns; the third row was
# quoted with its overall sign flipped relative to the sign convention,
# so comparisons sign-normalize rows on both sides first
REF_LOADINGS_3DP = np.array(
    [
        [0.901, -0.359, 0.986, 0.968],
        [0.311, 0.929, 0.025, 0.030],
        [-0.301, 0.091, 0.084, 0.228],
        [0.037, -0.012, -0.141, 0.105],
    ]
)

# the symmetric square root of the correlation matrix
REF_SQRT_3DP = np.array(
    [
        [0.815, 0.032, 0.442, 0.375],
        [0.032, 0.978, -0.157, -0.132],
        [0.442, -0.157, 0.705, 0.532],
        [0.375, -0.132, 0.532, 0.748],
    ]
)

REF_COMPONENT_LENGTHS_3DP = np.array([1.688, 0.980, 0.397, 0.180])

# (correlation, angle in degrees) pairs for the fixture's distinct entries
REF_ANGLES_3DP = [
    (-0.063, 93.59),
    (0.866, 30.05),
    (0.816, 35.29),
    (-0.321, 108.74),
    (-0.300, 107.47),
    (0.959, 16.44),
]

REF_PERCENT_2DP = np.array([71.22, 24.02, 3.94, 0.81])
REF_CUMULATIVE_PERCENT_K2_2DP = 95.24

REF_RECONSTRUCTION_K2_2DP = np.array([90.82, 99.16, 97.29, 93.70])

REF_PROFILES_K2_3DP = {
    "Sepal Length": (0.812, 0.097),
    "Sepal Width": (0.129, 0.863),
    "Petal Length": (0.972, 0.001),
    "Petal Width": (0.936, 0.001),
}

# full determination table, rows are components (printed orientation)
REF_DETERMINATION_3DP = np.array(
    [
        [0.812, 0.129, 0.972, 0.936],
        [0.097, 0.863, 0.001, 0.001],
        [0.090, 0.008, 0.007, 0.052],
        [0.001, 0.000, 0.020, 0.011],
    ]
)

# two-component reconstruction percentages, rows are components;
# row averages are the percent-of-variance figures
REF_RECONSTRUCTION_ROWS_2DP = np.array(
    [
        [81.17, 12.88, 97.23, 93.61],
        [9.65, 86.28, 0.06, 0.09],
    ]
)

REF_PARTITION = (
    frozenset({"Sepal Length", "Petal Length", "Petal Width"}),
    frozenset({"Sepal Width"}),
)

# quoted 2-D component rotation example: input vector and its image
REF_VECTOR_IN = np.array([1.632, 0.528])
REF_VECTOR_OUT = np.array([1.899, -0.243])

# full-precision frozen values for the bundled correlation fixture
REF_EIGENVALUES = np.array(
    [2.848908922249848, 0.9605690329336793, 0.15803745474365294, 0.03248459007281767]
)
REF_COMPONENT_LENGTHS = np.array(
    [1.6878711213389037, 0.9800862374983538, 0.3975392493121317, 0.18023481925759435]
)
REF_RECONSTRUCTION_K2 = np.array(
    [0.9081130838296309, 0.991604054572315, 0.9730537572157072, 0.9367070595658742]
)
REF_MIN_CUMULATIVE_BY_K = np.array(
    [0.12878857653136863, 0.9081130838296309, 0.980066583743939, 0.9999999999999983]
)
REF_P_VALUE_WEAK = 0.4437382986506567  # significance(-0.063, 150)

# full-precision frozen values for the bundled iris.csv (population divisor)
REF_IRIS_EIGENVALUES = np.array(
    [2.918497816531995, 0.9140304714680698, 0.1467568755713147, 0.020714836428620247]
)
REF_IRIS_MEANS = np.array(
    [5.843333333333334, 3.0573333333333337, 3.7580000000000005, 1.1993333333333336]
)


def sign_normalize_columns(m: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Flip columns so each one's first entry above tol is positive."""
    out = np.array(m, dtype=np.float64, copy=True)
    for j in range(out.shape[1]):
        big = np.nonzero(np.abs(out[:, j]) > tol)[0]
        if big.size and out[big[0], j] < 0.0:
            out[:, j] = -out[:, j]
    return out


def sign_normalize_rows(m: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    return sign_normalize_columns(np.asarray(m).T, tol).T


@st.composite
def offset_columns(draw) -> np.ndarray:
    """Small data sets whose columns sit at large offsets, hold ``-0.0``
    cells, or repeat one row's value, so some have zero variance."""
    n_rows, n_cols = draw(st.integers(3, 12)), draw(st.integers(2, 5))
    cell = st.sampled_from([-0.0, 0.0, 1.0, -2.5, 0.1, 3.0, 1e-300, 7e5])
    values = np.array(draw(st.lists(cell, min_size=n_rows * n_cols, max_size=n_rows * n_cols)))
    values = values.reshape(n_rows, n_cols)
    offsets = [0.0, -0.0, 1e8, -3.7e15, 12345.678]
    values += draw(st.lists(st.sampled_from(offsets), min_size=n_cols, max_size=n_cols))
    for j in draw(st.lists(st.integers(0, n_cols - 1), max_size=2)):
        values[:, j] = values[draw(st.integers(0, n_rows - 1)), j]
    return values


@pytest.fixture(scope="session")
def corr_fixture():
    return load_correlation_json(fixture_path("iris_corr.json"))


@pytest.fixture(scope="session")
def eigen_fixture(corr_fixture):
    return eigen_symmetric(corr_fixture)


@pytest.fixture(scope="session")
def virtual_fixture(eigen_fixture):
    return build_virtual(eigen_fixture)


@pytest.fixture(scope="session")
def table_full(virtual_fixture, corr_fixture):
    return explanation_table(virtual_fixture, corr_fixture.names)


@pytest.fixture(scope="session")
def iris_raw():
    return load_csv(fixture_path("iris.csv"), columns=parse_column_spec("1-4"), header=True)


@pytest.fixture(scope="session")
def iris_standardized(iris_raw):
    return standardize(iris_raw, "population")
