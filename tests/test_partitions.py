import random

import pytest

from crystalmelt import (
    as_partition,
    interlace_minus,
    interlace_plus,
    size,
    transpose,
)
from oracles import all_partitions_up_to, is_horizontal_strip, transpose_by_cells


def test_as_partition_strips_trailing_zeros():
    assert as_partition([3, 1, 0, 0]) == (3, 1)
    assert as_partition([]) == ()
    assert as_partition((5,)) == (5,)


def test_as_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        as_partition([1, 2])
    with pytest.raises(ValueError):
        as_partition([3, -1])
    with pytest.raises(ValueError):
        as_partition([1, 0, 2])
    # zeros mean "no part" and are dropped wherever they sit
    assert as_partition([2, 0, 1]) == (2, 1)


def test_size():
    assert size(()) == 0
    assert size((4, 2, 2, 1)) == 9


def test_transpose_small_cases():
    assert transpose(()) == ()
    assert transpose((1,)) == (1,)
    assert transpose((4, 2, 1)) == (3, 2, 1, 1)
    assert transpose((3, 3, 3)) == (3, 3, 3)


def test_transpose_matches_cell_flip_oracle():
    for lam in all_partitions_up_to(9):
        assert transpose(lam) == transpose_by_cells(lam), lam


def test_transpose_is_an_involution():
    rng = random.Random(4021)
    for _ in range(300):
        parts = sorted((rng.randint(1, 12) for _ in range(rng.randint(0, 8))), reverse=True)
        lam = as_partition(parts)
        assert transpose(transpose(lam)) == lam


def test_interlace_plus_examples():
    assert interlace_plus((), ())
    assert interlace_plus((1,), ())
    assert not interlace_plus((2,), ())
    assert interlace_plus((3, 2), (2, 2))
    assert not interlace_plus((3, 2), (3, 3))
    # mu may not be longer than lam
    assert not interlace_plus((2,), (1, 1))


def test_interlace_minus_examples():
    assert interlace_minus((), ())
    assert interlace_minus((5,), ())
    assert interlace_minus((3, 1), (2,))
    assert not interlace_minus((3, 1), (1, 1, 1))
    assert not interlace_minus((2, 2), (3,))


def test_interlace_minus_is_the_horizontal_strip_relation():
    pool = all_partitions_up_to(6)
    for lam in pool:
        for mu in pool:
            assert interlace_minus(lam, mu) == is_horizontal_strip(lam, mu), (lam, mu)


def test_interlace_duality_under_transpose():
    # adding at most one box per column is the transpose of adding at most
    # one box per row
    pool = all_partitions_up_to(6)
    for lam in pool:
        for mu in pool:
            assert interlace_minus(lam, mu) == interlace_plus(transpose(lam), transpose(mu))
