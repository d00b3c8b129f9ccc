"""Modularity as an oracle at every n.

The Witten genus of a 4n-manifold with p_1 = 0 is a modular form of weight 2n
for SL_2(Z), so it lies in Q[E4, E6] (Zagier, LNM 1326; Hirzebruch-Berger-Jung,
Manifolds and Modular Forms, ch. 6).  The genus is linear in the Pontryagin
numbers, and rationally p_1 = 0 is the condition p_lambda = 0 whenever lambda
has a part 1, so a random vector of that shape must land in the span; a vector
with p_1 != 0 picks up the quasi-modular E_2 of a_1 and must not.  Ell_2 of
every 4n-manifold lies in the span of (8 delta_2)^(n-2r) eps_2^r, so each column
of its class does.  E4 and E6 are built here from their divisor sums, not from
any code the genus uses.
"""

import random
from fractions import Fraction as F

import pytest

from ellgen.modular import expand_in_basis
from ellgen.pontryagin import GenusKind, Manifold, genus, genus_columns, partitions_of
from ellgen.series import USeries, divisor_sums

UORDER = 40  # u = q^(1/2): q-order 20


def eisenstein(scale: int, power: int) -> USeries:
    """1 + scale sum_N sigma_power(N) q^N: a divisor r of N counts at u^(2N), where (2N)/r is even."""
    sigma = divisor_sums(UORDER, 2, 2, lambda r: r**power)
    return USeries({0: 1, **{k: scale * v for k, v in enumerate(sigma) if v}}, UORDER)


E4, E6 = eisenstein(240, 3), eisenstein(-504, 5)


def weight_basis(n: int) -> list[USeries]:
    """E4^a E6^b with 4a + 6b = 2n: a basis of the modular forms of weight 2n."""
    return [E4**a * E6 ** ((n - 2 * a) // 3) for a in range(n // 2 + 1) if (n - 2 * a) % 3 == 0]


def rank(rows: list[list[F]]) -> int:
    """The rank of a rational matrix, by Gaussian elimination."""
    rows, r = [list(row) for row in rows], 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            if f := rows[i][col] / rows[r][col]:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def in_span(target: USeries, basis: list[USeries]) -> bool:
    """Whether `target` is one rational combination of `basis` at every coefficient below its order."""
    matrix = [[s.coeff(k) for s in basis] for k in range(target.order)]
    assert rank(matrix) == len(basis)
    return rank([row + [target.coeff(k)] for k, row in enumerate(matrix)]) == len(basis)


def random_manifold(n: int, rng: random.Random, string: bool) -> Manifold:
    """Random nonzero Pontryagin numbers; with `string`, p_lambda = 0 whenever lambda has a part 1."""
    pont = {lam: F(rng.choice([-1, 1]) * rng.randint(1, 60), rng.randint(1, 6))
            for lam in partitions_of(n) if not (string and 1 in lam)}
    return Manifold(f"random{n}", 4 * n, pont)


@pytest.mark.parametrize("n", range(2, 13))
def test_witten_genus_of_a_string_vector_is_a_modular_form(n):
    rng = random.Random(n)
    witten = genus(random_manifold(n, rng, string=True), GenusKind.WITTEN, UORDER)
    assert in_span(witten, weight_basis(n))


@pytest.mark.parametrize("n", range(2, 13))
def test_witten_genus_with_p1_is_not_a_modular_form(n):
    rng = random.Random(100 + n)
    witten = genus(random_manifold(n, rng, string=False), GenusKind.WITTEN, UORDER)
    assert not in_span(witten, weight_basis(n))


@pytest.mark.parametrize("n", [12, 16, 20])
def test_every_ell2_column_lies_in_the_modular_span(n):
    rows, den = genus_columns(GenusKind.ELL2, n, 24)
    for j in range(len(partitions_of(n))):
        column = USeries({k: F(row[j], den) for k, row in rows}, 24)
        expand_in_basis(column, n)  # ResidualNonzero off the span
