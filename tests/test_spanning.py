import numpy as np
import pytest

from dcboost import (
    PositiveSpanningSet,
    check_positive_spanning,
    make_d1,
    make_d2,
    make_d3,
)


def test_d1_planar_order():
    pss = make_d1(2)
    expected = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    assert np.array_equal(pss.directions, expected)
    assert pss.kind == "d1"


def test_d1_line():
    assert np.array_equal(make_d1(1).directions, np.array([[1.0], [-1.0]]))


def test_d1_cardinality_and_form():
    pss = make_d1(3)
    assert len(pss) == 6
    for row in pss.directions:
        assert np.count_nonzero(row) == 1
        assert abs(row).max() == 1.0


def test_d2_planar():
    expected = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    assert np.array_equal(make_d2(2).directions, expected)


def test_d2_line():
    assert np.array_equal(make_d2(1).directions, np.array([[1.0], [-1.0]]))


def test_d2_3d():
    expected = np.array(
        [[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [-1.0, -1.0, -1.0]]
    )
    assert np.array_equal(make_d2(3).directions, expected)


def test_d3_line_is_forced():
    # The defining relations in one dimension force {+1, -1}.
    dirs = make_d3(1).directions
    assert sorted(np.round(dirs.ravel(), 12)) == [-1.0, 1.0]


@pytest.mark.parametrize("m", [1, 2, 3, 5, 20, 200])
def test_d3_defining_relations(m):
    dirs = make_d3(m).directions
    assert dirs.shape == (m + 1, m)
    gram = dirs @ dirs.T
    norms = np.diag(gram)
    assert np.max(np.abs(norms - 1.0)) <= 1e-12
    off = gram[~np.eye(m + 1, dtype=bool)]
    assert np.max(np.abs(off + 1.0 / m)) <= 1e-12


def test_cardinalities():
    for m in (1, 2, 7):
        assert len(make_d1(m)) == 2 * m
        assert len(make_d2(m)) == m + 1
        assert len(make_d3(m)) == m + 1


def test_positive_spanning_sampled_pass():
    assert check_positive_spanning(make_d1(3), 10000, rng_seed=5)
    assert check_positive_spanning(make_d3(4), 10000, rng_seed=5)


def test_positive_spanning_detects_halfspace_set():
    # {e1, e2} cannot produce anything in the open third quadrant.
    pss = PositiveSpanningSet(2, np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert not check_positive_spanning(pss, 10000, rng_seed=5)


def test_constructor_validation():
    with pytest.raises(ValueError):
        PositiveSpanningSet(2, np.array([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        PositiveSpanningSet(3, np.array([[1.0, 0.0]]))
    with pytest.raises(ValueError):
        make_d1(0)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            PositiveSpanningSet(2, np.array([[bad, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]))
    with pytest.raises(ValueError):
        check_positive_spanning(make_d1(2), 0, rng_seed=1)


def test_directions_immutable():
    pss = make_d1(2)
    with pytest.raises(ValueError):
        pss.directions[0, 0] = 5.0
