"""Generalized Pythagorean triples against the brute-force oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowerlab import pythag
from flowerlab.pythag import (
    brute_force_triples,
    generate_triples,
    is_squarefree,
)
from oracles import brute_force_triples_by_x, is_primitive_solution


def test_is_squarefree():
    assert is_squarefree(1)
    assert is_squarefree(6)
    assert not is_squarefree(12)
    assert not is_squarefree(9)
    assert is_squarefree(2 * 3 * 5 * 7)
    with pytest.raises(ValueError):
        is_squarefree(0)


@pytest.mark.parametrize("n", [2.5, True, 6.0])
def test_is_squarefree_refuses_a_value_that_is_not_an_int(n):
    with pytest.raises(ValueError, match="expected a positive integer"):
        is_squarefree(n)


def test_classic_triples():
    sols = generate_triples(1, 5)
    assert {s.triple() for s in sols} == {(3, 4, 5), (4, 3, 5)}
    assert brute_force_triples(1, 5) == {(3, 4, 5), (4, 3, 5)}
    assert brute_force_triples(1, 4) == set()
    assert generate_triples(1, 4) == []


def test_non_positive_beta_is_rejected():
    for beta in (0, -3):
        for enumerate_triples in (brute_force_triples, generate_triples):
            with pytest.raises(ValueError, match="beta must be a positive integer"):
                enumerate_triples(beta, 10)


def test_beta_above_the_ceiling_is_rejected():
    for enumerate_triples in (brute_force_triples, generate_triples):
        with pytest.raises(ValueError, match=f"beta must be at most {pythag.MAX_BETA}"):
            enumerate_triples(pythag.MAX_BETA + 1, 10)
    # 999999999989 is the largest prime below the ceiling.
    assert brute_force_triples(999999999989, 10) == set()
    assert generate_triples(999999999989, 10) == []


def test_small_beta_examples():
    three = {s.triple() for s in generate_triples(3, 2)}
    assert (1, 1, 2) in three
    assert brute_force_triples(7, 4) == {(3, 1, 4)}
    assert {s.triple() for s in generate_triples(7, 4)} == {(3, 1, 4)}


def test_even_beta_same_parity_witness():
    # (1, 2, 3) for beta = 2 only arises from the unhalved formula with
    # m = n = 1; the halved form is non-integral there and is skipped.
    sols = generate_triples(2, 3)
    assert [s.triple() for s in sols] == [(1, 2, 3)]
    witnesses = sols[0].witnesses
    assert witnesses and all(not w.halved for w in witnesses)
    assert {(w.b, w.c) for w in witnesses} == {(1, 2), (2, 1)}


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        generate_triples(12, 10)
    with pytest.raises(ValueError):
        generate_triples(3, 0)
    with pytest.raises(ValueError):
        brute_force_triples(3, 0)


@pytest.mark.parametrize("beta, bound, message", [
    (True, 10, "beta must be a positive integer, got True"),
    (2.5, 10, "beta must be a positive integer, got 2.5"),
    (2, True, "bound must be in 1..[0-9]+, got True"),
    (2, 10.0, "bound must be in 1..[0-9]+, got 10.0"),
])
def test_bool_or_float_arguments_are_rejected(beta, bound, message):
    for enumerate_triples in (brute_force_triples, generate_triples):
        with pytest.raises(ValueError, match=message):
            enumerate_triples(beta, bound)


@pytest.mark.parametrize("beta", [1, 2, 3, 5, 6, 7, 10, 11, 13])
def test_generator_matches_oracle(beta):
    sols = generate_triples(beta, 300)
    assert {s.triple() for s in sols} == brute_force_triples(beta, 300)
    for s in sols:
        assert is_primitive_solution(beta, s.x, s.y, s.z)


def test_witness_parity_discipline():
    for beta in (1, 2, 3, 6, 10):
        for s in generate_triples(beta, 200):
            for w in s.witnesses:
                lhs = w.b * w.m * w.m + w.c * w.n * w.n
                if w.halved:
                    assert (w.m - w.n) % 2 == 0
                    assert lhs % 2 == 0
                elif (w.m - w.n) % 2 == 0:
                    # same parity forced into the unhalved branch only when
                    # the halved form is non-integral
                    assert lhs % 2 == 1


def test_solutions_are_sorted_and_merged():
    sols = generate_triples(1, 100)
    keys = [(s.z, s.x, s.y) for s in sols]
    assert keys == sorted(keys)
    assert len({s.triple() for s in sols}) == len(sols)


def _factor_pairs_by_full_scan(beta):
    # Reference enumeration: trial division by every b in 1..beta.  Witness
    # order inside a triple follows the b order, so _factor_pairs must keep it.
    for b in range(1, beta + 1):
        if beta % b == 0:
            yield b, beta // b


def test_factor_pairs_match_the_full_scan():
    for beta in range(1, 3000):
        assert list(pythag._factor_pairs(beta)) == list(_factor_pairs_by_full_scan(beta))


def test_triples_match_the_full_scan_enumeration(monkeypatch):
    betas = [b for b in range(1, 80) if is_squarefree(b)]
    fast = [[s.to_obj() for s in generate_triples(b, 120)] for b in betas]
    monkeypatch.setattr(pythag, "_factor_pairs", _factor_pairs_by_full_scan)
    assert fast == [[s.to_obj() for s in generate_triples(b, 120)] for b in betas]



@settings(max_examples=200, deadline=None)
@given(beta=st.integers(1, 200).filter(is_squarefree), z_bound=st.integers(1, 200))
def test_oracle_matches_the_x_walk(beta, z_bound):
    assert brute_force_triples(beta, z_bound) == brute_force_triples_by_x(beta, z_bound)


@pytest.mark.parametrize("beta", [1, 2, 3, 6, 10])
@pytest.mark.parametrize("z_bound", [1, 2, 3, 50])
def test_oracle_edge_cases_match_the_x_walk(beta, z_bound):
    assert brute_force_triples(beta, z_bound) == brute_force_triples_by_x(beta, z_bound)


def test_oracle_at_the_smallest_bounds():
    assert brute_force_triples(1, 1) == set() and brute_force_triples(1, 2) == set()
    assert brute_force_triples(3, 2) == {(1, 1, 2)}
    assert brute_force_triples(2, 3) == {(1, 2, 3)}


@pytest.mark.parametrize("beta", [1, 2])
def test_generator_matches_oracle_at_bound_3000(beta):
    assert {s.triple() for s in generate_triples(beta, 3000)} == brute_force_triples(beta, 3000)
