"""The exact-arithmetic kernels against a Fraction reference."""

import random
from fractions import Fraction

import pytest

from tqftkit.exactlin import _kernels_py
from tqftkit.exactlin.matrix import BACKEND

backends = [pytest.param(_kernels_py, id="python")]


def random_flat(rng, rows, cols):
    nums, dens = [], []
    for _ in range(rows * cols):
        f = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        nums.append(f.numerator)
        dens.append(f.denominator)
    return nums, dens


def reference_mul(n, k, m, anum, aden, bnum, bden):
    out_n, out_d = [], []
    for i in range(n):
        for j in range(m):
            acc = Fraction(0)
            for t in range(k):
                acc += Fraction(anum[i * k + t], aden[i * k + t]) * Fraction(
                    bnum[t * m + j], bden[t * m + j]
                )
            out_n.append(acc.numerator)
            out_d.append(acc.denominator)
    return out_n, out_d


def as_lists(result):
    nums, dens = result
    return list(nums), list(dens)


@pytest.mark.parametrize("impl", backends)
def test_mul_matches_fraction_reference(impl):
    rng = random.Random(7)
    for _ in range(25):
        n, k, m = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a = random_flat(rng, n, k)
        b = random_flat(rng, k, m)
        assert as_lists(impl.mat_mul(n, k, m, *a, *b)) == as_lists(
            reference_mul(n, k, m, *a, *b)
        )


@pytest.mark.parametrize("impl", backends)
def test_rank_of_known_matrices(impl):
    assert impl.mat_rank(2, 2, [1, 0, 0, 1], [1] * 4) == 2
    assert impl.mat_rank(2, 2, [1, 2, 2, 4], [1] * 4) == 1
    assert impl.mat_rank(2, 2, [0] * 4, [1] * 4) == 0
    # needs column pivoting: first column zero
    assert impl.mat_rank(2, 3, [0, 1, 0, 0, 0, 1], [1] * 6) == 2


@pytest.mark.parametrize("impl", backends)
def test_rank_with_rational_rows(impl):
    # rows proportional over Q even though integer parts differ
    nums = [1, 1, 3, 2]
    dens = [2, 3, 1, 1]
    assert impl.mat_rank(2, 2, nums, dens) == 1


def test_selected_backend_is_reported():
    assert BACKEND == "python"
