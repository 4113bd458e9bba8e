"""Embedded data fixtures used by the command line and the test suite.

Values are stored as literal constants so nothing is fetched at runtime;
a checksum test pins them against accidental edits.  Poset structures are
kept in the same text format the file loader reads.
"""

from __future__ import annotations

import numpy as np

from .poset import parse_poset_text

# Dose-response percentages for three selenium types at four concentrations.
SELENIUM = np.array([
    [2.0, 27.4, 26.7, 68.0],
    [1.4, 19.6, 41.5, 40.3],
    [2.9, 24.4, 75.0, 96.5],
])

SELENIUM_ROW_POSET = """\
elements: I,II,III
I < III
II < III
"""

SELENIUM_COLUMN_POSET = """\
elements: 0,100,200,400
0 < 100
100 < 200
200 < 400
"""

# Share of survey respondents reporting fair or poor mental health,
# indexed (age group, year, gender).
CCHS_AGE_GROUPS = ("12-17", "18-34", "35-49", "50-64", "65+")
CCHS_YEARS = ("2016", "2017", "2018", "2019", "2020", "2021", "2022")
CCHS_GENDERS = ("Female", "Male")

_CCHS_FEMALE = [
    [6.0, 7.8, 8.5, 8.4, 12.9, 16.5, 21.0],
    [9.0, 10.1, 12.1, 13.1, 15.3, 17.8, 24.2],
    [7.6, 7.9, 8.4, 8.2, 10.8, 14.6, 16.4],
    [8.3, 8.1, 7.9, 7.5, 9.3, 11.6, 14.0],
    [5.7, 4.7, 5.4, 5.5, 6.0, 6.8, 9.2],
]
_CCHS_MALE = [
    [2.9, 3.9, 5.0, 3.8, 3.8, 7.5, 8.7],
    [6.7, 6.6, 7.6, 10.6, 11.2, 13.6, 16.1],
    [5.2, 6.2, 6.8, 7.3, 9.9, 11.6, 13.5],
    [7.3, 6.4, 7.6, 6.8, 8.7, 9.0, 11.7],
    [6.3, 6.0, 4.5, 4.9, 4.9, 6.7, 7.9],
]
CCHS = np.stack([np.asarray(_CCHS_FEMALE), np.asarray(_CCHS_MALE)], axis=-1)

CCHS_AGE_POSET = """\
elements: 12-17,18-34,35-49,50-64,65+
65+ < 12-17
65+ < 50-64
12-17 < 18-34
50-64 < 35-49
35-49 < 18-34
"""

CCHS_YEAR_POSET = """\
elements: 2016,2017,2018,2019,2020,2021,2022
2016 < 2020
2017 < 2020
2018 < 2020
2019 < 2020
2020 < 2021
2021 < 2022
"""

CCHS_GENDER_POSET = """\
elements: Female,Male
"""

# Matrix with maximum nondecreasing rank for the three-element
# "two below one top" order on both modes: the sum of the four rank-one
# generator self-products.  (The printed display of this matrix elsewhere
# has a typo in the (1,1) entry; this is the value the identity
# V1 @ I @ V2' actually produces.)
COLLIDER3_MATRIX = np.array([
    [2.0, 1.0, 2.0],
    [1.0, 2.0, 2.0],
    [2.0, 2.0, 4.0],
])

COLLIDER3_POSET = """\
elements: a,b,c
a < c
b < c
"""


def selenium_matrix() -> np.ndarray:
    return SELENIUM.copy()


def selenium_posets():
    return [parse_poset_text(SELENIUM_ROW_POSET), parse_poset_text(SELENIUM_COLUMN_POSET)]


def cchs_tensor() -> np.ndarray:
    return CCHS.copy()


def cchs_posets():
    return [parse_poset_text(CCHS_AGE_POSET), parse_poset_text(CCHS_YEAR_POSET),
            parse_poset_text(CCHS_GENDER_POSET)]


def collider3_matrix() -> np.ndarray:
    return COLLIDER3_MATRIX.copy()


def collider3_posets():
    P = parse_poset_text(COLLIDER3_POSET)
    return [P, P]


FIXTURES = {
    "selenium": (selenium_matrix, selenium_posets),
    "cchs": (cchs_tensor, cchs_posets),
    "collider3": (collider3_matrix, collider3_posets),
}


def fixture(name: str):
    """Return (tensor, posets) for a named fixture."""
    try:
        make_tensor, make_posets = FIXTURES[name]
    except KeyError:
        raise KeyError(f"unknown fixture {name!r}; available: {sorted(FIXTURES)}") from None
    return make_tensor(), make_posets()


def checksum(T) -> str:
    """SHA-256 over a canonical decimal rendering of the array."""
    import hashlib  # here, so importing ndrank does not load it
    T = np.asarray(T, dtype=float)
    payload = ",".join(f"{v:.6f}" for v in T.ravel()) + "|" + ",".join(map(str, T.shape))
    return hashlib.sha256(payload.encode()).hexdigest()
