"""Stock algebra constructors and their independent oracles."""

import tracemalloc
from fractions import Fraction

import pytest

from tqftkit import algebras, fusion
from tqftkit.algebras import (
    FiniteGroupTable,
    builtin_algebra,
    cyclic_group,
    direct_product,
    group_algebra,
    matrix_center_algebra,
    milnor_ring,
    symmetric_group,
    trivial_algebra,
    upper_triangular_algebra,
)
from tqftkit.exactlin import Matrix, kron, matmul
from tqftkit.frobenius import admits_frobenius_form, check_axioms, to_economy


class TestGroupTables:
    def test_cyclic_orders(self):
        for n in (1, 2, 3, 4, 6):
            g = cyclic_group(n)
            assert g.order == n and g.abelian

    def test_symmetric_three(self):
        s3 = symmetric_group(3)
        assert s3.order == 6
        assert not s3.abelian

    def test_product_order_and_commutativity(self):
        v4 = direct_product(cyclic_group(2), cyclic_group(2))
        assert v4.order == 4 and v4.abelian

    def test_bad_table_rejected(self):
        with pytest.raises(ValueError):
            FiniteGroupTable(
                2, ((0, 1), (1, 1)), (0, 1), 0, ("e", "g")
            )  # g*g = g breaks inverses

    @pytest.mark.parametrize("order, mult, inverse, names, message, identity", [
        (2, ((0, 1),), (0, 1), ("e", "g"), "multiplication table must be order x order", 0),
        (2, ((0, 1), (1,)), (0, 1), ("e", "g"), "multiplication table must be order x order", 0),
        (2, ((0, 1), (1, 0)), (0,), ("e", "g"), "inverse list and names must have length order", 0),
        (2, ((0, 1), (1, 0)), (0, 1), ("e",), "inverse list and names must have length order", 0),
        (2, ((0, 1), (1, 2)), (0, 1), ("e", "g"), "table entry out of range", 0),
        (2, ((1, 0), (0, 1)), (0, 1), ("e", "g"), "element 0 is not an identity", 0),
        (2, ((0, 1), (1, 0)), (0, 0), ("e", "g"), "inverse of element 1 is wrong", 0),
        # a.a = b and b.b = e, so (a.a).b = e but a.(a.b) = a
        (3, ((0, 1, 2), (1, 2, 0), (2, 0, 0)), (0, 2, 1), ("e", "a", "b"),
         r"table is not associative at \(1,1,2\)", 0),
        # these ended in an IndexError traceback, or loaded with a wrapped
        # negative index and failed later in group_algebra
        (2, ((0, 1), (1, 0)), (0, 1), ("e", "g"), "identity 5 out of range", 5),
        (2, ((1, 0), (0, 1)), (0, 1), ("e", "g"), "identity -1 out of range", -1),
        (2, ((0, 1), (1, 0)), (0, 7), ("e", "g"), "inverse entry out of range", 0),
        (2, ((0, 1), (1, 0)), (0, -1), ("e", "g"), "inverse entry out of range", 0),
    ])
    def test_malformed_table_names_its_fault(self, order, mult, inverse, names, message, identity):
        with pytest.raises(ValueError, match=f"^{message}$"):
            FiniteGroupTable(order, mult, inverse, identity, names)

    @pytest.mark.parametrize("build, message", [
        (lambda: cyclic_group(0), "order must be positive"),
        (lambda: matrix_center_algebra([]), "need at least one block"),
        (lambda: matrix_center_algebra([1, 0]), "block sizes must be positive"),
    ])
    def test_empty_constructions_rejected(self, build, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()

    def test_nonassociative_table_rejected(self):
        # "multiplication" i*j = max(i,j) with forced inverse column
        with pytest.raises(ValueError):
            FiniteGroupTable(
                3,
                ((0, 1, 2), (1, 1, 2), (2, 2, 0)),
                (0, 1, 2),
                0,
                ("a", "b", "c"),
            )


class TestGroupAlgebras:
    def test_z2_structure(self):
        alg = group_algebra(cyclic_group(2))
        assert alg.delta == Matrix.from_rows([[1, 0], [0, 1], [0, 1], [1, 0]])
        assert check_axioms(alg).commutative

    def test_trivial_group(self):
        alg = trivial_algebra()
        for m in (alg.mu, alg.eta, alg.delta, alg.eps):
            assert m == Matrix.scalar(1)

    def test_commutative_iff_abelian(self):
        tables = [
            (cyclic_group(2), True),
            (cyclic_group(3), True),
            (direct_product(cyclic_group(2), cyclic_group(2)), True),
            (symmetric_group(3), False),
        ]
        for table, expected in tables:
            report = check_axioms(group_algebra(table))
            assert report.is_frobenius
            assert report.commutative == expected

    def test_all_axioms_hold(self):
        for table in (cyclic_group(4), symmetric_group(3)):
            assert check_axioms(group_algebra(table)).is_frobenius


class TestMatrixCenter:
    def test_single_trivial_block(self):
        alg = matrix_center_algebra([1])
        assert to_economy(alg).gram == Matrix.scalar(1)

    def test_single_two_block(self):
        alg = matrix_center_algebra([2])
        assert to_economy(alg).gram == Matrix.scalar(2)
        assert alg.eps == Matrix.row([2])
        assert alg.delta == Matrix.scalar(Fraction(1, 2))

    def test_two_blocks(self):
        alg = matrix_center_algebra([1, 2])
        assert to_economy(alg).gram == Matrix.from_rows([[1, 0], [0, 2]])
        assert check_axioms(alg).is_frobenius

    def test_gram_against_explicit_block_traces(self):
        # oracle: build the block identity matrices inside the full
        # matrix algebra and take actual traces of products
        sizes = [1, 2, 3]
        total = sum(sizes)
        idems = []
        offset = 0
        for s in sizes:
            m = [[0] * total for _ in range(total)]
            for i in range(offset, offset + s):
                m[i][i] = 1
            idems.append(Matrix.from_rows(m))
            offset += s
        alg = matrix_center_algebra(sizes)
        gram = to_economy(alg).gram
        for i in range(len(sizes)):
            for j in range(len(sizes)):
                product = matmul(idems[i], idems[j])
                trace = sum(product.entry(k, k) for k in range(total))
                assert gram.entry(i, j) == trace


class TestMilnor:
    def test_x3(self):
        alg = milnor_ring(3)
        assert alg.dim == 2
        assert to_economy(alg).gram == Matrix.from_rows(
            [[0, Fraction(1, 3)], [Fraction(1, 3), 0]]
        )
        assert alg.eps == Matrix.row([0, Fraction(1, 3)])

    def test_x2_degenerates_to_a_line(self):
        alg = milnor_ring(2)
        assert alg.dim == 1
        assert to_economy(alg).gram == Matrix.scalar(Fraction(1, 2))

    def test_degree_below_two_rejected(self):
        with pytest.raises(ValueError):
            milnor_ring(1)

    def test_axioms_to_degree_six(self):
        for d in range(2, 7):
            report = check_axioms(milnor_ring(d))
            assert report.is_frobenius and report.commutative

    def test_gram_against_coefficient_extraction_oracle(self):
        # oracle: multiply the basis monomials without truncation and read
        # off the coefficient of x^(d-2), divided by d
        for d in range(2, 7):
            alg = milnor_ring(d)
            gram = to_economy(alg).gram
            n = d - 1
            for a in range(n):
                for b in range(n):
                    full_product_degree = a + b
                    coeff = 1 if full_product_degree == d - 2 else 0
                    assert gram.entry(a, b) == Fraction(coeff, d)


class TestUpperTriangular:
    def test_associative_unital(self):
        dim, mu, eta = upper_triangular_algebra()
        eye = Matrix.identity(dim)
        assert matmul(mu, kron(mu, eye)) == matmul(mu, kron(eye, mu))
        assert matmul(mu, kron(eta, eye)) == eye

    def test_nilpotent_off_diagonal(self):
        dim, mu, eta = upper_triangular_algebra()
        e12 = Matrix(3, 1, [0, 1, 0])
        assert matmul(mu, kron(e12, e12)) == Matrix.zeros(3, 1)

    def test_no_frobenius_form(self):
        dim, mu, eta = upper_triangular_algebra()
        assert not admits_frobenius_form(dim, mu, eta)


class TestBuiltins:
    def test_names_resolve(self):
        assert builtin_algebra("z2").dim == 2
        assert builtin_algebra("z3").dim == 3
        assert builtin_algebra("s3").dim == 6
        assert builtin_algebra("milnor:4").dim == 3
        assert builtin_algebra("center:[1,2]").dim == 2

    def test_triangular_raw_only(self):
        with pytest.raises(ValueError):
            builtin_algebra("triangular")
        dim, mu, eta = upper_triangular_algebra()
        assert dim == 3

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            builtin_algebra("z9000")

    def test_spec_items_must_be_integers(self):
        for name, message in [
            ("center:[1,,2]", "block size must be an integer, got ''"),
            ("center:[1,x]", "block size must be an integer, got 'x'"),
            ("milnor:x", "degree must be an integer, got 'x'"),
        ]:
            with pytest.raises(ValueError) as err:
                builtin_algebra(name)
            assert str(err.value) == message


# --- builders against dense references ------------------------------------------


class Built(Exception):
    """Stops a builder once its matrices reach the Frobenius constructor."""


def built_matrices(monkeypatch, module, constructor, build):
    """The (mu, eta, gram) a builder hands to ``module.constructor``."""
    seen = []

    def capture(dim, mu, eta, pairing, names=None):
        seen.append((mu, eta, pairing.gram))
        raise Built

    monkeypatch.setattr(module, constructor, capture)
    with pytest.raises(Built):
        build()
    return seen[0]


# the dense row lists the builders filled before they passed their nonzeros


def dense_group_algebra(table):
    n = table.order
    mu_rows = [[0] * (n * n) for _ in range(n)]
    for i in range(n):
        for j in range(n):
            mu_rows[table.mult[i][j]][i * n + j] = 1
    eta = Matrix(n, 1, [1 if i == table.identity else 0 for i in range(n)])
    gram = Matrix.from_rows([[1 if j == table.inverse[i] else 0 for j in range(n)] for i in range(n)])
    return Matrix.from_rows(mu_rows), eta, gram


def dense_matrix_center(block_sizes):
    k = len(block_sizes)
    mu_rows = [[0] * (k * k) for _ in range(k)]
    for i in range(k):
        mu_rows[i][i * k + i] = 1
    gram = Matrix.from_rows([[block_sizes[i] if i == j else 0 for j in range(k)] for i in range(k)])
    return Matrix.from_rows(mu_rows), Matrix(k, 1, [1] * k), gram


def dense_milnor(d):
    n = d - 1
    mu_rows = [[0] * (n * n) for _ in range(n)]
    for a in range(n):
        for b in range(n):
            if a + b < n:
                mu_rows[a + b][a * n + b] = 1
    eta = Matrix(n, 1, [1] + [0] * (n - 1))
    gram = Matrix.from_rows(
        [[Fraction(1, d) if a + b == d - 2 else Fraction(0) for b in range(n)] for a in range(n)]
    )
    return Matrix.from_rows(mu_rows), eta, gram


def dense_fusion(ring):
    r = ring.rank
    mu = Matrix(r, r * r, [ring.n[i][j][k] for k in range(r) for i in range(r) for j in range(r)])
    gram = Matrix(r, r, [int(j == d) for d in ring.dual for j in range(r)])
    return mu, Matrix.column([1] + [0] * (r - 1)), gram


BUILDERS = (
    [(f"z{n}", algebras, "from_economy", lambda n=n: group_algebra(cyclic_group(n)),
      lambda n=n: dense_group_algebra(cyclic_group(n))) for n in (1, 2, 3, 5)]
    + [("z2xz2", algebras, "from_economy",
        lambda: group_algebra(direct_product(cyclic_group(2), cyclic_group(2))),
        lambda: dense_group_algebra(direct_product(cyclic_group(2), cyclic_group(2))))]
    + [("s3", algebras, "from_economy", lambda: group_algebra(symmetric_group(3)),
        lambda: dense_group_algebra(symmetric_group(3)))]
    + [(f"milnor:{d}", algebras, "from_economy", lambda d=d: milnor_ring(d), lambda d=d: dense_milnor(d))
       for d in (2, 3, 4, 5, 9)]
    + [(f"center:{sizes}", algebras, "from_economy", lambda s=sizes: matrix_center_algebra(s),
        lambda s=sizes: dense_matrix_center(s)) for sizes in ([1], [1, 2], [3, 1, 2])]
    + [(f"gr({name})", fusion, "_complete", lambda r=ring: fusion.grothendieck_frobenius(r()),
        lambda r=ring: dense_fusion(r()))
       for name, ring in [("fibonacci", fusion.fibonacci), ("ising", fusion.ising)]
       + [(f"vec_z{n}", lambda n=n: fusion.vec_z(n)) for n in (1, 2, 3, 4, 6)]]
)


@pytest.mark.parametrize("name, module, constructor, build, dense", BUILDERS, ids=[b[0] for b in BUILDERS])
def test_builder_matches_dense_reference(monkeypatch, name, module, constructor, build, dense):
    assert built_matrices(monkeypatch, module, constructor, build) == dense()


def test_triangular_matches_dense_reference():
    n = 3
    basis = [(0, 0), (0, 1), (1, 1)]
    mu_rows = [[0] * (n * n) for _ in range(n)]
    for i, (a, b) in enumerate(basis):
        for j, (c, d) in enumerate(basis):
            if b == c:
                mu_rows[basis.index((a, d))][i * n + j] = 1
    assert upper_triangular_algebra() == (n, Matrix.from_rows(mu_rows), Matrix(n, 1, [1, 0, 1]))


def test_milnor_300_is_built_from_its_nonzeros(monkeypatch):
    # dense staging of its three matrices peaked at about 427 MB
    tracemalloc.start()
    try:
        mu, eta, gram = built_matrices(monkeypatch, algebras, "from_economy", lambda: milnor_ring(300))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MB"
    assert sum(map(len, mu.nz)) == 299 * 300 // 2
    assert eta.nz[0] == ((0, 1),) and gram.den == 300
    assert all(row == ((298 - a, 1),) for a, row in enumerate(gram.nz))
