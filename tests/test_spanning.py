import copy
import hashlib
import pickle

import numpy as np
import pytest

from dcboost import PositiveSpanningSet, make_d1, make_d2, make_d3
from dcboost.spanning import make_pss


def sums_to_zero_and_spans(dirs: np.ndarray) -> bool:
    """Whether the rows span R^m and sum to zero, which certifies exactly
    that they positively span R^m: a set does when it spans R^m and some
    strictly positive combination of it is zero (Kolda, Lewis & Torczon
    2003, "Optimization by direct search"), and the plain sum is one.
    D1, D2 and D3 all sum to zero."""
    m = dirs.shape[1]
    return bool(
        np.linalg.matrix_rank(dirs) == m and np.max(np.abs(dirs.sum(axis=0))) <= 1e-12
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
    assert len(pss.directions) == 6
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


# SHA-256 of make_d3(m).directions.tobytes().  The bits come from LAPACK's
# qr and the BLAS product in make_d3, so they hold for one BLAS build:
# numpy 2.4.6 with scipy-openblas 0.3.31 (DYNAMIC_ARCH, Haswell kernel).
D3_DIGESTS = {
    1: "723f1c3eac1d2c306857db9f4466b219af88d13fb056836892154fcd058c55d5",
    2: "168a8a02b18f1998306b7a01e0237e9cee09bf19c410a4ef82732eec01d9115d",
    3: "8bfd0f72932fe9216fdcab5b1ec3fe076082eb697c7b854ea4ad34a78f98360b",
    4: "acdf827e9a9b0086fe15ae7f1291f6fc5cf8bdc8847445abf612b16201f839e5",
    5: "3afb66be3a5cbb54496d5c45d137f1aa9e0a841bbca1ec154162a0051a4f8d3e",
    6: "1820ae0ab008529504c7f841e48404f930cf02d838589b07a98f893e62358536",
    7: "5b978b4a815c5c53826b695f9687d95b14d60e770844a5ab589f3f50d054bd58",
    8: "f28b0c2c64a1104804201bca35ce8cebcd3353134e5d40b7ee8e4eeb0fb2bb49",
}


@pytest.mark.parametrize("m", sorted(D3_DIGESTS))
def test_d3_bytes_are_pinned(m):
    digest = hashlib.sha256(make_d3(m).directions.tobytes()).hexdigest()
    assert digest == D3_DIGESTS[m]


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
        assert len(make_d1(m).directions) == 2 * m
        assert len(make_d2(m).directions) == m + 1
        assert len(make_d3(m).directions) == m + 1


@pytest.mark.parametrize("m", [1, 2, 3, 4, 20])
@pytest.mark.parametrize("kind", ["d1", "d2", "d3"])
def test_positive_spanning_exact_certificate(kind, m):
    assert sums_to_zero_and_spans(make_pss(kind, m).directions)


def test_positive_spanning_detects_halfspace_set():
    # {e1, e2, (e1 + e2)/sqrt(2)} cannot produce anything in the open
    # third quadrant: d = (-1, -1) makes a negative inner product with
    # every direction, so no nonnegative combination reaches d.
    r = np.sqrt(0.5)
    pss = PositiveSpanningSet(np.array([[1.0, 0.0], [0.0, 1.0], [r, r]]))
    assert not sums_to_zero_and_spans(pss.directions)
    assert np.all(pss.directions @ np.array([-1.0, -1.0]) < 0.0)


def test_constructor_validation():
    with pytest.raises(ValueError, match="nonzero"):
        PositiveSpanningSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    # A positive spanning set of R^m has at least m + 1 directions.
    for rows in (np.empty((0, 2)), np.array([[1.0, 0.0], [-1.0, 0.0]])):
        with pytest.raises(ValueError, match="at least 3 directions"):
            PositiveSpanningSet(rows)
    with pytest.raises(ValueError, match="array"):
        PositiveSpanningSet(np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        make_d1(0)
    with pytest.raises(ValueError, match="unknown spanning set kind 'd4'"):
        make_pss("d4", 2)
    # 1e308 is finite, but its norm overflows.
    for bad in (float("inf"), float("nan"), 1e308):
        with pytest.raises(ValueError, match="finite"):
            PositiveSpanningSet(np.array([[bad, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]))


def test_directions_immutable():
    pss = make_d1(2)
    with pytest.raises(ValueError):
        pss.directions[0, 0] = 5.0


def test_set_copies_its_directions_and_compares_by_identity():
    a = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    pss = PositiveSpanningSet(a)
    assert pss.dim == 2 and pss.kind == "custom"
    assert a.flags.writeable
    a[0] = 0.0
    assert np.array_equal(pss.directions, make_d2(2).directions)
    for twin in (pickle.loads(pickle.dumps(pss)), copy.copy(pss), copy.deepcopy(pss)):
        assert not twin.directions.flags.writeable
        assert np.array_equal(twin.directions, pss.directions)
    assert make_d1(2) != make_d1(2)
    assert pss == pss
    assert len({make_d1(2), make_d1(2), pss}) == 3
