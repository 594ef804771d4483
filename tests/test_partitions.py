from crystalmelt import interlace_minus, interlace_plus
from oracles import all_partitions_up_to, is_horizontal_strip, transpose_by_cells


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
            flipped = interlace_plus(transpose_by_cells(lam), transpose_by_cells(mu))
            assert interlace_minus(lam, mu) == flipped, (lam, mu)
