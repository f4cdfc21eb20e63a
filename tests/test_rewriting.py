"""Degree-truncated rewriting and normal-word counting."""

import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nicholsalg.braided import build_diagonal
from nicholsalg.configs import load_shipped, shipped_config_names
from nicholsalg.cyclo import CycNumber, zeta
from nicholsalg.fk import build_fk_space, fk_relations
from nicholsalg.tensoralg import degree, monomial, nichols_dims
from nicholsalg.relations import generate_relations
from nicholsalg.linalg import Echelon, row_axpy, sparse_rank
from nicholsalg.rewriting import RewriteSystem, rewrite_dims
from nicholsalg.weyl import enumerate_roots

import rewriting_oracle
from kernel_m_oracle import kernel_m_from_words


def test_power_relation_truncates():
    dims, _ = rewrite_dims(1, [monomial((0, 0, 0))], 6)
    assert dims == [1, 1, 1, 0, 0, 0, 0]


def test_commutative_pair():
    # yx = xy: dims of the polynomial ring in 2 variables
    rel = {(1, 0): 1, (0, 1): -1}
    dims, _ = rewrite_dims(2, [rel], 5)
    assert dims == [1, 2, 3, 4, 5, 6]


def test_overlap_completion_needed():
    # quantum plane with both square relations: overlaps produce new rules
    q = zeta(3)
    rels = [
        monomial((0, 0)),
        monomial((1, 1)),
        {(1, 0): 1, (0, 1): -q},
    ]
    dims, rs = rewrite_dims(2, rels, 8)
    assert dims[:5] == [1, 2, 1, 0, 0]


def test_normal_form_idempotent():
    rel = {(1, 0): 1, (0, 1): -1}
    _, rs = rewrite_dims(2, [rel], 6)
    nf = rs.normal_form_word((1, 0, 1, 0))
    again = {}
    for w, c in nf.items():
        for w2, c2 in rs.normal_form_word(w).items():
            again[w2] = again.get(w2, 0) + c * c2
    assert nf == again


small_roots = st.sampled_from([-1, zeta(3), zeta(4)])


@given(small_roots, small_roots, small_roots)
@settings(max_examples=15, deadline=None)
def test_serre_presentation_matches_symmetrizer(q11, q12, q22):
    """Kernel-of-symmetrizer generators in degree <= 3 bound the dims above.

    Rewriting by low-degree ideal generators can only overshoot the
    symmetrizer dims, never undershoot.
    """
    from symmetrizer_oracle import ideal_component

    V = build_diagonal([[q11, q12], [1, q22]])
    rels = ideal_component(V, 2) + ideal_component(V, 3)
    cap = 5
    dims, _ = rewrite_dims(2, rels, cap)
    nd = nichols_dims(V, cap)
    assert all(a >= b for a, b in zip(dims, nd))


def test_rule_interreduction():
    # a shorter lead subsumes the longer rule
    _, rs = rewrite_dims(1, [{(0, 0, 0, 0): 1}, {(0, 0): 1}], 8)
    assert set(rs.rules) == {(0, 0)}


def test_non_homogeneous_relation_is_rejected():
    with pytest.raises(ValueError, match="homogeneous"):
        rewrite_dims(2, [{(0,): 1, (0, 1): 1}], 3)


def test_letter_outside_the_alphabet_is_rejected():
    # the lead (1, 5) never occurs in a word of rank 2, so it must not be dropped silently
    with pytest.raises(ValueError, match="letter 5 is outside the alphabet of rank 2"):
        rewrite_dims(2, [{(0, 1): 1, (1, 5): 1}], 3)
    with pytest.raises(ValueError, match="letter -1 is outside the alphabet of rank 3"):
        rewrite_dims(3, [{(-1, 0): 1}], 3)
    _, rs = rewrite_dims(2, [{(1, 0): 1, (0, 1): -1}], 4)
    for query in (rs.normal_form_word, lambda w: rs.reduce({w: 1})):
        with pytest.raises(ValueError, match="letter 2 is outside the alphabet of rank 2"):
            query((0, 2))


@st.composite
def homogeneous_relations(draw):
    rank = draw(st.sampled_from([2, 3]))
    rels = []
    for _ in range(draw(st.integers(1, 3))):
        letters = [st.integers(0, rank - 1)] * draw(st.integers(1, 3))
        words = draw(st.lists(st.tuples(*letters), min_size=1, max_size=3, unique=True))
        rels.append({w: draw(st.sampled_from([-2, -1, 1, 2])) for w in words})
    return rank, rels


@given(homogeneous_relations())
@settings(max_examples=25, deadline=None)
def test_completion_matches_ideal_ranks(case):
    """dim_d = rank^d - rank of the span of all u r v of degree d."""
    rank, rels = case
    top = 6
    dims, rs = rewrite_dims(rank, rels, top)
    expected = []
    for d in range(top + 1):
        rows = []
        for r in rels:
            n = len(next(iter(r)))
            for left in range(d - n + 1):
                for u in product(range(rank), repeat=left):
                    for v in product(range(rank), repeat=d - n - left):
                        rows.append({u + w + v: c for w, c in r.items()})
        expected.append(rank**d - sparse_rank(rows))
        # every u r v lies in the ideal, which the rules decide up to top
        assert all(rs.reduce(row) == {} for row in rows)
    assert dims == expected


DIAGONAL_CONFIGS = [n for n in shipped_config_names() if load_shipped(n).kind == "diagonal"]


def catalog(name):
    """The space of a shipped diagonal config and its explicit catalog elements."""
    cfg = load_shipped(name)
    V = cfg.space()
    roots = enumerate_roots(
        V, cap=cfg.budgets["cartan_cap"], object_cap=cfg.budgets["object_cap"]
    )
    assert roots.finite
    elems = [
        inst.element
        for inst in generate_relations(V, roots)
        if inst.element is not None
    ]
    return V, elems


@pytest.mark.parametrize("name", DIAGONAL_CONFIGS)
def test_routes_agree_on_shipped_config(name):
    """Symmetrizer ranks and the rewritten relation catalog give the same
    dims through degree 6."""
    V, elems = catalog(name)
    dims, _ = rewrite_dims(V.rank, elems, 6)
    assert nichols_dims(V, 6) == dims


# nonzero counts of minimal relations at degree 16; the catalogs of b2,
# rank3_square, rank3_super_a3 and rank3_triangle hold redundant elements
MINIMAL_AT_16 = {
    "a2_cartan_zeta3": {3: 4, 6: 1},
    "a2_super": {2: 1, 3: 2},
    "b2": {2: 1, 3: 1, 5: 1},
    "rank3_square": {2: 3, 3: 2, 4: 1},
    "rank3_super_a3": {2: 3, 3: 2, 4: 1, 6: 1, 9: 1},
    "rank3_triangle": {2: 3, 3: 1, 6: 3},
    "rank1_zeta6": {6: 1},
}


def nonzero(counts):
    return {d: n for d, n in counts.items() if n}


def at_least_minimal(relations, minimal):
    """Every generating set holds at least minimal[d] relations of degree d."""
    counts = Counter(degree(rel) for rel in relations)
    return all(counts[d] >= n for d, n in minimal.items())


@pytest.mark.parametrize("name", sorted(MINIMAL_AT_16))
def test_minimal_relations_of_catalogs(name):
    V, elems = catalog(name)
    _, rs = rewrite_dims(V.rank, elems, 16)
    assert nonzero(rs.minimal) == MINIMAL_AT_16[name]
    assert sorted(rs.minimal) == list(range(1, 17))
    assert at_least_minimal(elems, rs.minimal)
    assert kernel_m_from_words(V, elems, 6) == {d: rs.minimal[d] for d in range(2, 7)}


@pytest.mark.parametrize("n, max_degree, expected", [(5, 8, {2: 45}), (6, 6, {2: 100})])
def test_minimal_relations_of_fk(n, max_degree, expected):
    rels = fk_relations(n)
    _, rs = rewrite_dims(build_fk_space(n).rank, rels, max_degree)
    assert nonzero(rs.minimal) == expected
    assert at_least_minimal(rels, rs.minimal)


def random_element(rng, rank, d, terms=3):
    """A homogeneous element of degree d with small rational coefficients."""
    return {
        tuple(rng.randrange(rank) for _ in range(d)): rng.choice([-2, -1, 1, 2])
        for _ in range(terms)
    }


def completion(rank, relations):
    """minimal and rules of the completion through degree 6."""
    _, rs = rewrite_dims(rank, relations, 6)
    return rs.minimal, rs.rules


@pytest.mark.parametrize("seed", range(12))
def test_minimal_relations_are_intrinsic(seed):
    """minimal depends on the ideal and its generators, not on their order
    or on redundant ones; a generator outside the ideal adds one in its degree."""
    rng = random.Random(seed)
    rank = rng.choice([2, 3])
    rels = [random_element(rng, rank, d) for d in [2, 2] + rng.choices([2, 3, 4], k=2)]
    minimal, rules = completion(rank, rels)
    V = SimpleNamespace(rank=rank)  # the oracle reads only the rank
    assert kernel_m_from_words(V, rels, 5) == {d: minimal[d] for d in range(2, 6)}

    shuffled = rels[:]
    rng.shuffle(shuffled)
    assert completion(rank, shuffled) == (minimal, rules)

    r1, r2 = rels[0], rels[1]  # both of degree 2
    a = (rng.randrange(rank),)
    c1, c2 = rng.choice([-2, 1, 3]), rng.choice([-1, 2, 5])
    combination = {}
    row_axpy(combination, c1, r1)
    row_axpy(combination, c2, r2)
    for redundant in ({a + w: c for w, c in r1.items()},
                      {w + a: c for w, c in r2.items()},
                      combination):
        assert completion(rank, rels + [redundant]) == (minimal, rules)

    dims, rs = rewrite_dims(rank, rels, 6)
    open_degrees = [d for d in (2, 3, 4) if dims[d]]
    while True:
        d = rng.choice(open_degrees)
        new = random_element(rng, rank, d)
        if rs.reduce(new):  # not in the ideal
            break
    raised, _ = completion(rank, rels + [new])
    assert all(raised[e] == minimal[e] for e in raised if e < d)
    assert raised[d] == minimal[d] + 1
    # a new generator can make later ones redundant, never add one
    assert all(raised[e] <= minimal[e] for e in raised if e > d)


def test_unit_lead_needs_no_inverse(monkeypatch):
    calls = []
    inverse = CycNumber.inverse

    def counting(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(CycNumber, "inverse", counting)
    _, rs = rewrite_dims(2, [{(1, 0): 1, (0, 1): -zeta(3)}, {(1, 1): 1}], 6)
    assert set(rs.rules) == {(1, 0), (1, 1)}
    assert calls == []
    assert rs.rules[(1, 0)] == {(0, 1): zeta(3)}



def _rational_twin(rels):
    """The same relations with every coefficient a CycNumber of Q(zeta_1)."""
    return [{w: c * zeta(1) for w, c in rel.items()} for rel in rels]


def test_fk_rules_keep_int_coefficients():
    """The FK relations have int coefficients, and so does every rule their
    completion makes: one CycNumber would bring that arithmetic back into
    every reduction that reads the rule."""
    _, rs = rewrite_dims(6, fk_relations(4), 6)
    assert rs.rules
    assert all(type(c) is int for tail in rs.rules.values() for c in tail.values())


@pytest.mark.parametrize("n", [3, 4, 5])
def test_fk_completion_matches_its_cyclotomic_twin(n):
    rank = build_fk_space(n).rank
    dims, rs = rewrite_dims(rank, fk_relations(n), 6)
    twin_dims, twin = rewrite_dims(rank, _rational_twin(fk_relations(n)), 6)
    assert dims == twin_dims and rs.minimal == twin.minimal
    assert dict(rs.rules) == dict(twin.rules)


def test_non_monic_lead_completes_through_fractions():
    rels = [{(0, 1): 2, (1, 0): -3}, {(0, 0): 1}]
    dims, rs = rewrite_dims(2, rels, 6)
    twin_dims, twin = rewrite_dims(2, _rational_twin(rels), 6)
    assert dims == twin_dims == [1, 2, 2, 2, 2, 2, 2]
    assert dict(rs.rules) == dict(twin.rules)
    coeff = rs.rules[(1, 0)][(0, 1)]
    assert type(coeff) is Fraction and coeff == Fraction(2, 3)

def test_long_words_need_no_recursion():
    """Words longer than the recursion limit reduce as in the oracle."""
    rels = [monomial((0, 0))]
    _, rs = rewrite_dims(2, rels, 3)
    _, oracle = rewriting_oracle.rewrite_dims(2, rels, 3)
    normal = (0, 1) * 1500
    assert len(normal) > sys.getrecursionlimit()
    for word in (normal, normal + (0, 0)):
        assert rs.normal_form_word(word) == oracle.normal_form_word(word)
        assert rs.reduce({word: 1}) == oracle.reduce({word: 1})
    assert rs.normal_form_word(normal) == {normal: 1}
    assert rs.reduce({normal + (0, 0): 1}) == {}
    assert rs.normal_form_word(normal + (0, 0)) == {}


def test_zero_relation_is_skipped():
    dims, _ = rewrite_dims(1, [{}], 3)
    assert dims == [1, 1, 1, 1]
    dims, _ = rewrite_dims(1, [{}, {(0, 0): 1}], 3)
    assert dims == [1, 1, 0, 0]


# -- the integer-coded engine against the tuple-word oracle ------------------

def assert_engines_agree(rank, relations, low, high, rng):
    """The engine and rewriting_oracle agree on the systems completed at low
    and at high."""
    for top in (low, high):
        dims, rs = rewrite_dims(rank, relations, top)
        oracle_dims, oracle = rewriting_oracle.rewrite_dims(rank, relations, top)
        assert dims == oracle_dims
        assert rs.rules == oracle.rules
        assert rs.minimal == oracle.minimal
        assert rs.normal_word_counts() == oracle.normal_word_counts()
        for d in range(1, top + 2):
            elem = random_element(rng, rank, d)
            assert rs.reduce(elem) == oracle.reduce(elem)
            word = next(iter(elem))
            assert rs.normal_form_word(word) == oracle.normal_form_word(word)


@pytest.mark.parametrize("name", DIAGONAL_CONFIGS)
def test_engine_matches_oracle_on_catalogs(name):
    V, elems = catalog(name)
    assert_engines_agree(V.rank, elems, 16, 18, random.Random(name))


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("max_degree", [5, 6, 7, 8])
def test_engine_matches_oracle_on_fk(n, max_degree):
    rank = build_fk_space(n).rank
    assert_engines_agree(rank, fk_relations(n), max_degree, max_degree + 1, random.Random(n))


def random_system(rng, rank):
    """Homogeneous relations in degrees 2-4; up to rank 5 one relation per
    pair of letters keeps the quotient small enough for degree 8."""
    rels = []
    if rank <= 5:
        for i in range(rank):
            for j in range(i):
                rel = {(i, j): 1, (j, i): rng.choice([-2, -1, 1, 2])}
                if rng.random() < 0.3:
                    rel[(rng.randrange(rank), rng.randrange(rank))] = rng.choice([-1, 1])
                rels.append(rel)
    for _ in range(rng.randint(1, 3) if rank <= 5 else rank):
        rels.append(random_element(rng, rank, rng.choice([2, 3, 4]), rng.randint(1, 3)))
    return rels


def seeded_system(seed):
    """(rng, rank, relations, degree bound) of the random system of a seed
    below 15: ranks 1-5 and 15-16, so letter codes of 1 to 5 bits; at rank
    15 the last letter is the all-ones digit."""
    rng = random.Random(seed)
    if seed < 10:
        rank, high = seed % 5 + 1, rng.choice([6, 7, 8])
    else:
        rank, high = 15 + seed % 2, 4
    return rng, rank, random_system(rng, rank), high


@pytest.mark.parametrize("seed", range(15))
def test_engine_matches_oracle_on_random_systems(seed):
    rng, rank, rels, high = seeded_system(seed)
    assert_engines_agree(rank, rels, rng.randrange(2, high), high, rng)


# -- the chain criterion: overlaps with a lead inside are skipped ------------

def completion_without_criterion(monkeypatch, rank, relations, top):
    """Complete with every overlap reduced. Returns the system and, per
    degree, the S-polynomials (coded) that the criterion keeps and those it
    skips, each with its reduction by the rules below that degree."""
    holds_lead, s_polynomials = RewriteSystem._holds_lead, RewriteSystem._s_polynomials
    verdicts, by_degree = [], {}

    def recording(self, code):
        verdicts.append(holds_lead(self, code))
        return False

    def sorted_by_verdict(self, d):
        kept, skipped = by_degree.setdefault(d, ([], []))
        rows = s_polynomials(self, d)
        while True:
            tested = len(verdicts)  # a row is yielded right after its test, if any
            row = next(rows, None)
            if row is None:
                return
            inside = len(verdicts) > tested and verdicts[-1]
            (skipped if inside else kept).append((row, self._reduce(row)))
            yield row

    with monkeypatch.context() as m:
        m.setattr(RewriteSystem, "_holds_lead", recording)
        m.setattr(RewriteSystem, "_s_polynomials", sorted_by_verdict)
        dims, rs = rewrite_dims(rank, relations, top)
    return dims, rs, by_degree


def assert_criterion_sound(monkeypatch, rank, relations, top):
    """The criterion changes no output, and each skipped S-polynomial lies in
    the span of the kept ones of its degree and in the ideal; returns the
    numbers of S-polynomial rows without and with the criterion."""
    dims, rs = rewrite_dims(rank, relations, top)
    all_dims, everything, by_degree = completion_without_criterion(
        monkeypatch, rank, relations, top
    )
    assert (all_dims, everything.rules, everything.minimal) == (dims, rs.rules, rs.minimal)
    assert everything.normal_word_counts() == rs.normal_word_counts()
    for kept, skipped in by_degree.values():
        ech = Echelon()
        for _, reduced in kept:
            ech.add(reduced)
        for row, reduced in skipped:
            assert ech.contains(reduced)
            assert rs._reduce(row) == {}
    rows = sum(len(kept) + len(skipped) for kept, skipped in by_degree.values())
    return rows, sum(len(kept) for kept, _ in by_degree.values())


# S-polynomial rows through degree 16 without and with the criterion
CATALOG_ROWS = {
    "a2_cartan_zeta3": (17, 8),
    "a2_super": (10, 7),
    "b2": (18, 11),
    "rank3_square": (24, 20),
    "rank3_super_a3": (41, 25),
    "rank3_triangle": (44, 35),
    "rank1_zeta6": (5, 1),
}


@pytest.mark.parametrize("name", sorted(CATALOG_ROWS))
def test_chain_criterion_on_catalogs(monkeypatch, name):
    V, elems = catalog(name)
    assert assert_criterion_sound(monkeypatch, V.rank, elems, 16) == CATALOG_ROWS[name]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_chain_criterion_skips_no_fk_overlap(monkeypatch, n):
    rows, kept = assert_criterion_sound(monkeypatch, build_fk_space(n).rank, fk_relations(n), 8)
    assert rows == kept > 0


def test_chain_criterion_on_random_systems(monkeypatch):
    skipped = 0
    for seed in range(15):
        _, rank, rels, high = seeded_system(seed)
        rows, kept = assert_criterion_sound(monkeypatch, rank, rels, high)
        skipped += rows - kept
    assert skipped > 0
