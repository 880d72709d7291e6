import pytest
from hypothesis import given
from hypothesis import strategies as st

from jacktop.exact import Laurent
from jacktop.young import (NotDecreasing, boxes, content, enumerate_partitions,
                           format_partition, length, levels, multiplicities,
                           parse_partition, partition, partitions_of, size,
                           to_partition, transpose, z_factor)


def test_parse_and_format():
    assert parse_partition("4,2,2") == (4, 2, 2)
    assert parse_partition("0") == ()
    assert parse_partition("") == ()
    assert format_partition((3, 1)) == "3,1"
    assert format_partition(()) == "0"
    with pytest.raises(NotDecreasing):
        parse_partition("1,2")


@pytest.mark.parametrize("text,parts", [
    (" 3,2 ", (3, 2)), ("3, 2", (3, 2)), ("3,2,0", (3, 2)),
    ("3,2,0,0", (3, 2)), ("0", ()), ("", ()), (" ", ()),
])
def test_parse_accepts(text, parts):
    assert parse_partition(text) == parts


@pytest.mark.parametrize("text,error", [
    ("3,0,2", NotDecreasing), ("0,1", NotDecreasing), ("1_0", ValueError),
    ("\u0663", ValueError), ("+3", ValueError), ("-1", ValueError),
    ("3,,2", ValueError), ("2,x", ValueError),
])
def test_parse_rejects(text, error):
    with pytest.raises(error):
        parse_partition(text)


def test_partition_zeros():
    assert partition((3, 2, 0, 0)) == (3, 2)
    assert partition((0,)) == ()
    with pytest.raises(NotDecreasing):
        partition((3, 0, 2))


def test_partition_stats():
    p = (2, 1, 1)
    assert (size(p), length(p)) == (4, 3)
    assert multiplicities(p) == {1: 2, 2: 1}
    assert z_factor(p) == 4
    assert (size(()), length(()), multiplicities(()), z_factor(())) == \
        (0, 0, {}, 1)
    assert z_factor((3,)) == 3


def test_levels():
    assert levels((4, 4, 2, 1, 1, 1)) == ([4, 2, 1], [2, 1, 3])
    assert levels(()) == ([], [])


def test_boxes_row_major():
    assert list(boxes((2, 1))) == [(1, 1), (2, 1), (1, 2)]
    assert sum(1 for _ in boxes((4, 2, 2))) == 8


def test_content_values():
    assert content((1, 1)) == Laurent({1: 1, -1: -1})
    assert content((2, 1)) == Laurent({1: 2, -1: -1})
    assert content((1, 2)) == Laurent({1: 1, -1: -2})


def test_content_s_involution_swaps_coordinates():
    for x in range(1, 4):
        for y in range(1, 4):
            assert content((x, y)).s_involution() == content((y, x))


def test_transpose():
    assert transpose((3, 1)) == (2, 1, 1)
    assert transpose(()) == ()


def test_enumeration_counts():
    # sizes 0..4 give 1+1+2+3+5 partitions
    assert sum(1 for _ in enumerate_partitions(4)) == 12
    # brute-force recount of partitions of 6 by a different recursion
    def count(n, max_part):
        if n == 0:
            return 1
        return sum(count(n - p, p) for p in range(min(n, max_part), 0, -1))
    for n in range(8):
        assert len(list(partitions_of(n))) == count(n, n)


def test_enumeration_order_lex_decreasing():
    assert list(partitions_of(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1),
                                      (1, 1, 1, 1)]


def test_to_partition():
    assert to_partition((1, 2), (4, 2)) == (4, 2, 2)
    assert to_partition((0, 1), (5, 3)) == (3,)
    assert to_partition((3,), (2,)) == (2, 2, 2)
    with pytest.raises(NotDecreasing):
        to_partition((1, 1), (2, 3))


def test_to_partition_size():
    p, q = (2, 1, 2), (3, 2, 1)
    assert size(to_partition(p, q)) == sum(a * b for a, b in zip(p, q))


partitions_strategy = st.lists(st.integers(1, 6), max_size=6).map(
    lambda xs: partition(sorted(xs, reverse=True)))


@given(partitions_strategy)
def test_transpose_involution(p):
    assert transpose(transpose(p)) == p


@given(partitions_strategy)
def test_boxes_count_is_size(p):
    assert sum(1 for _ in boxes(p)) == size(p)
