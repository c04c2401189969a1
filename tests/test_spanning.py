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


# SHA-256 of make_d3(m).directions.tobytes().  Each entry is one IEEE-754
# division and one square root, both correctly rounded, so the bits come
# from the arithmetic alone and hold on any build.
D3_DIGESTS = {
    1: "723f1c3eac1d2c306857db9f4466b219af88d13fb056836892154fcd058c55d5",
    2: "f57a7bac9a5d644095813b899b8ce16a9a904abfa7cb9e67027f7518531ffa61",
    3: "13b7e2678306fac912579af1a93d3ea91f6ebdf465eacf24ff89e72908a9cbbe",
    4: "cb014f0a674400449ba7529cfdd003e52112a56d1ae2cb3534e25ce7e87ce5c4",
    5: "5c551a3265aadf462ace58845e203601323c2fe55ed69ec5685d0095dc4b5b74",
    6: "17de3e0d46b8eb0af58a83aae3320c2817bdd9f743d0a51bfd8e9fa334a5799a",
    7: "8dfac42e436884e9215e8cca5bc103ad7376eb060546f78776f0c5328f4bdfaa",
    8: "f0f66eb753938591db152abdeaab7cabc29c4f46c25d19c91518808908ddf331",
}


@pytest.mark.parametrize("m", sorted(D3_DIGESTS))
def test_d3_bytes_are_pinned(m):
    digest = hashlib.sha256(make_d3(m).directions.tobytes()).hexdigest()
    assert digest == D3_DIGESTS[m]


def test_d3_needs_no_lapack_or_blas(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("make_d3 called a linear algebra routine")

    for owner, name in ((np.linalg, "qr"), (np.linalg, "svd"), (np, "dot"), (np, "matmul")):
        monkeypatch.setattr(owner, name, refuse)
    for m, expected in D3_DIGESTS.items():
        assert hashlib.sha256(make_d3(m).directions.tobytes()).hexdigest() == expected


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
