import numpy as np
import pytest

from ndrank import datasets, poset
from ndrank.tensor import check_tensor

SELENIUM_SHA = "e7aa699d8308144a26e209c08f9e70706f6126a68b04ece3a9cd2c59036025ab"
CCHS_SHA = "200d7e440dfead06cd3ce157a9f204c7cce58b8d505a1772bdc734276af88f02"
COLLIDER3_SHA = "5b2938f4021a4a23a6cca748089609ca84c464a534f76dae5c9d9448f43935aa"


def test_checksums_pin_fixture_values():
    assert datasets.checksum(datasets.fixture("selenium")[0]) == SELENIUM_SHA
    assert datasets.checksum(datasets.fixture("cchs")[0]) == CCHS_SHA
    assert datasets.checksum(datasets.fixture("collider3")[0]) == COLLIDER3_SHA


def test_selenium_values():
    T, (rows, cols) = datasets.fixture("selenium")
    assert T.shape == (3, 4)
    assert T[0, 1] == 27.4 and T[2, 1] == 24.4 and T[2, 3] == 96.5
    assert rows.labels == ("I", "II", "III")
    assert set(rows.covers) == {(0, 2), (1, 2)}
    assert cols.labels == ("0", "100", "200", "400")
    assert set(cols.covers) == {(0, 1), (1, 2), (2, 3)}


def test_cchs_shape_and_spot_values():
    T, _ = datasets.fixture("cchs")
    assert T.shape == (5, 7, 2)
    # age 12-17, year 2022: female 21.0, male 8.7
    assert T[0, 6, 0] == 21.0 and T[0, 6, 1] == 8.7
    assert T[4, 0, 0] == 5.7 and T[4, 0, 1] == 6.3
    assert np.isclose(float((T ** 2).sum()), 6925.26)


def test_cchs_posets_match_drawn_structure():
    _, (age, year, gender) = datasets.fixture("cchs")
    lab = age.labels
    assert lab == ("12-17", "18-34", "35-49", "50-64", "65+")
    covers = {(lab[a], lab[b]) for a, b in age.covers}
    assert covers == {("65+", "12-17"), ("65+", "50-64"), ("12-17", "18-34"),
                      ("50-64", "35-49"), ("35-49", "18-34")}
    assert poset.has_collider(age)  # 18-34 covers two elements

    ylab = year.labels
    ycovers = {(ylab[a], ylab[b]) for a, b in year.covers}
    assert ycovers == {("2016", "2020"), ("2017", "2020"), ("2018", "2020"),
                       ("2019", "2020"), ("2020", "2021"), ("2021", "2022")}
    # the drawn structure imposes no order among 2016..2019
    for a in ("2016", "2017", "2018"):
        for b in ("2017", "2018", "2019"):
            if a != b:
                assert not year.leq[year.index(a), year.index(b)]

    assert gender.p == 2 and gender.covers == ()


def test_collider3_matrix_is_generator_self_product_sum():
    T, posets = datasets.fixture("collider3")
    from ndrank.cone import order_cone_vrep
    G = order_cone_vrep(posets[0])
    assert np.array_equal(T, sum(np.outer(g, g) for g in G))


def test_unknown_fixture():
    with pytest.raises(KeyError):
        datasets.fixture("nope")


@pytest.mark.parametrize("name", sorted(datasets.FIXTURES))
def test_every_fixture_is_a_fresh_valid_problem(name):
    # each call copies the tensor, so a caller's edit does not reach the next
    T, posets = datasets.fixture(name)
    before = T.tobytes()
    T += 1.0
    again, posets_again = datasets.fixture(name)
    assert again.tobytes() == before and again.dtype == float
    assert posets_again == posets
    check_tensor(again, posets_again)
