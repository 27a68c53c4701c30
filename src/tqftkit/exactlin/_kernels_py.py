"""Pure-Python exact-arithmetic kernels.

The three functions operate on flat row-major parallel arrays of
numerators and denominators (Python ints, denominators strictly
positive, every entry reduced).  ``matrix`` wraps them in ``Matrix``.
"""

from math import gcd

__all__ = ["mat_mul", "mat_kron", "mat_rank"]


def mat_mul(n, k, m, anum, aden, bnum, bden):
    """Product of an n-by-k and a k-by-m matrix, exact.

    Dot products accumulate on a running common denominator and are
    reduced once per output entry; zero terms are skipped since the
    matrices arising from string-diagram evaluation are mostly sparse
    permutation blocks.
    """
    cnum = [0] * (n * m)
    cden = [1] * (n * m)
    for i in range(n):
        arow = i * k
        for j in range(m):
            acc_n = 0
            acc_d = 1
            for t in range(k):
                an = anum[arow + t]
                if an == 0:
                    continue
                bn = bnum[t * m + j]
                if bn == 0:
                    continue
                tn = an * bn
                td = aden[arow + t] * bden[t * m + j]
                acc_n = acc_n * td + tn * acc_d
                acc_d = acc_d * td
            if acc_n:
                g = gcd(acc_n, acc_d)
                cnum[i * m + j] = acc_n // g
                cden[i * m + j] = acc_d // g
    return cnum, cden


def mat_kron(ra, ca, rb, cb, anum, aden, bnum, bden):
    """Kronecker product, row index i_a * rb + i_b, column likewise."""
    rows = ra * rb
    cols = ca * cb
    cnum = [0] * (rows * cols)
    cden = [1] * (rows * cols)
    for ia in range(ra):
        for ja in range(ca):
            an = anum[ia * ca + ja]
            if an == 0:
                continue
            ad = aden[ia * ca + ja]
            for ib in range(rb):
                base = (ia * rb + ib) * cols + ja * cb
                brow = ib * cb
                for jb in range(cb):
                    bn = bnum[brow + jb]
                    if bn == 0:
                        continue
                    num = an * bn
                    den = ad * bden[brow + jb]
                    g = gcd(num, den)
                    cnum[base + jb] = num // g
                    cden[base + jb] = den // g
    return cnum, cden


def mat_rank(r, c, nums, dens):
    """Rank by fraction-free (Bareiss) elimination.

    Each row is first scaled to integers (scaling by a positive constant
    does not change the rank), then one round of Bareiss elimination with
    row pivoting runs per column; the division by the previous pivot is
    exact by the Bareiss determinant identity.
    """
    m = []
    for i in range(r):
        row = list(nums[i * c : (i + 1) * c])
        lcm = 1
        for j in range(c):
            d = dens[i * c + j]
            lcm = lcm // gcd(lcm, d) * d
        if lcm != 1:
            for j in range(c):
                row[j] = row[j] * (lcm // dens[i * c + j])
        m.append(row)

    rank = 0
    prev = 1
    pivot_row = 0
    for col in range(c):
        if pivot_row == r:
            break
        p = pivot_row
        while p < r and m[p][col] == 0:
            p += 1
        if p == r:
            continue
        if p != pivot_row:
            m[p], m[pivot_row] = m[pivot_row], m[p]
        piv = m[pivot_row][col]
        for i in range(pivot_row + 1, r):
            head = m[i][col]
            for j in range(col + 1, c):
                m[i][j] = (piv * m[i][j] - head * m[pivot_row][j]) // prev
            m[i][col] = 0
        prev = piv
        pivot_row += 1
        rank += 1
    return rank
