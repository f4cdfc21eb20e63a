"""Noncommutative rewriting for graded quotients of tensor algebras.

A rule rewrites its lead, the degree-lexicographically largest word of a
relation, to a tail of smaller normal words. Every relation must be
homogeneous of positive degree (`rewrite_dims` raises ValueError
otherwise), so a rule of degree d rewrites no shorter word, and the
S-polynomial of two overlapping leads is homogeneous of the degree of their
overlap word, which exceeds both. Completion therefore runs degree by
degree, the homogeneous form of Bergman's diamond lemma (Adv. Math. 1978)
as in Mora (Theor. Comput. Sci. 1994): degree d reduces its relations and
its S-polynomials by the rules below d, and the pivot rows of one
linalg.Echelon of the results give the rules of degree d. Nothing later
changes a rule below d, so each degree is final once done, and truncating
the overlaps at a degree bound leaves the normal-word counts up to it exact.

The S-polynomials of degree d enter the echelon before the relations of
degree d. Together with the rules below d they span the degree-d part of the
ideal generated in lower degrees, so the rank the relations then add is the
number of minimal relations of degree d, dim M_d for M = I/(T+ I + I T+)
(Anick, Trans. AMS 1986). A fully reduced echelon whose pivot is its largest
key is fixed by its row space, so the order changes no rule.

An overlap word w of degree d whose interior w[1:-1] holds a lead is
skipped: this is Buchberger's chain criterion (EUROSAM 1979) in the free
algebra, as in Mora's paper. Let l1 be the prefix of w, l2 its suffix, and
l3 a lead at [a, b) with 1 <= a and b <= d - 1. Rewriting w at l1 and at
l2 differ by the sum of the differences at l1 and l3 and at l3 and l2;
each is an ambiguity at a proper subword of w, between disjoint leads,
which resolves trivially, or an overlap of degree below d, which is
resolved. So the kept S-polynomials of degree d, reduced by the rules below
d, already span what the skipped one adds, with or without the relations of
degree d, and neither the rules nor the minimal counts change.

Leads are interreduced, so a word whose prefix word[:-1] is normal can only
have a lead as a suffix. A word shorter than the degree being completed
reduces by final rules, so its normal form nf(nf(word[:-1]) a) is memoized
for good; once completion is done every word is memoized this way. The
words of the degree being completed are reduced largest first, one step per
word: w becomes nf(w[:-1]) a if w[:-1] is reducible, else its suffix lead
is replaced by its tail, else w is normal. Every step yields smaller
words, so each word of a row is expanded once, with its summed coefficient,
and a word whose coefficients cancel is never expanded.

Normal words are counted by the automaton of the leads: its states are the
proper prefixes of leads, and its transitions follow suffix links, as in
Aho-Corasick (Comm. ACM 1975). A transition that completes a lead is dead,
which is exact because the leads are interreduced: no lead, and no proper
prefix of a lead, has another lead as a suffix.

Inside this module a word is one int, its code. With b = rank.bit_length()
bits per letter, letter a is the digit a + 1 and the first letter is the most
significant digit: () is 0, word[:-1] is code >> b, the suffix of length k is
code & (2^(bk) - 1), and the length is bit_length() / b rounded up. Numeric
order of codes is deglex order, so the pivot Echelon picks, the largest key,
is the lead. Rules, memos and S-polynomials are keyed by codes; the public
methods take and return words as tuples, and only this module codes them.
"""


from heapq import heapify, heappop, heappush
from types import MappingProxyType

from .linalg import Echelon, add_term, row_axpy


class RewriteSystem:
    """Degree-truncated rewriting system with deglex leading words."""

    def __init__(self, rank, max_degree):
        self.rank = rank
        self.max_degree = max_degree
        self.minimal = {}  # degree d <= max_degree -> dim M_d
        self._bits = max(rank, 1).bit_length()  # bits per letter
        self._rules = {}  # lead code -> tail {code: coeff}, lead = tail
        self._suffixes = []  # (least code, suffix mask) per lead length, ascending
        self._index = {}  # (proper prefix code, lead length) -> lead codes
        self._final = float("inf")  # codes below this reduce by final rules
        self._nf = {}  # reducible final code -> normal form
        self._normal = {0}  # irreducible final codes

    # -- word codes --------------------------------------------------------

    def _encode(self, word):
        code, bits, rank = 0, self._bits, self.rank
        for a in word:
            if not 0 <= a < rank:
                raise ValueError(f"letter {a} is outside the alphabet of rank {rank}")
            code = code << bits | a + 1
        return code

    def _decode(self, code):
        bits, digit = self._bits, (1 << self._bits) - 1
        word = []
        while code:
            word.append((code & digit) - 1)
            code >>= bits
        return tuple(reversed(word))

    def _decode_row(self, row):
        return {self._decode(w): c for w, c in row.items()}

    def _length(self, code):
        return -(-code.bit_length() // self._bits)

    # -- public API on tuple words -----------------------------------------

    @property
    def rules(self):
        """Read-only view {lead word: tail {word: coeff}} of the rules."""
        return MappingProxyType(
            {self._decode(lead): self._decode_row(tail) for lead, tail in self._rules.items()}
        )

    def normal_form_word(self, word):
        """Normal form of a word as {normal word: coeff}."""
        return self._decode_row(self._normal_form(self._encode(word)))

    def reduce(self, elem):
        """Fully reduce {word: coeff}; returns a new dict."""
        return self._decode_row(self._reduce({self._encode(w): c for w, c in elem.items()}))

    # -- reduction ---------------------------------------------------------

    def _suffix_lead(self, code):
        """The lead that ends the word of code, or None; the only redex if
        its prefix is normal."""
        rules = self._rules
        for least, mask in self._suffixes:
            if code < least:
                break
            if (code & mask) in rules:
                return code & mask
        return None

    def _normal_form(self, word):
        """Normal form {code: coeff} of a code below _final, as nf(nf(word[:-1]) a).

        Words shorter than the degree being completed reduce by final rules,
        so their normal forms are memoized for good. The result may be a
        memo entry: read it only.
        """
        nf, normal, rules = self._nf, self._normal, self._rules
        bits, digit = self._bits, (1 << self._bits) - 1
        # iterative post-order evaluation; rewrite chains can be deep
        stack = [(word, None)]
        while stack:
            w, terms = stack[-1]
            if terms is None:
                if w in normal or w in nf:
                    stack.pop()
                    continue
                head = w >> bits
                if head in normal:
                    lead = self._suffix_lead(w)
                    if lead is None:
                        normal.add(w)
                        stack.pop()
                        continue
                    prefix = w - lead  # the prefix, shifted past the lead
                    terms = [(prefix + t, c) for t, c in rules[lead].items()]
                elif head in nf:
                    last = w & digit
                    terms = [(u << bits | last, c) for u, c in nf[head].items()]
                else:
                    stack.append((head, None))
                    continue
                pending = [(v, None) for v, _ in terms if v not in normal and v not in nf]
                if pending:
                    # all of pending is evaluated before w is on top again
                    stack[-1] = (w, terms)
                    stack.extend(pending)
                    continue
            res = {}
            for v, c in terms:
                if v in normal:
                    add_term(res, v, c)
                else:
                    row_axpy(res, c, nf[v])
            nf[w] = res
            stack.pop()
        return {word: 1} if word in normal else nf[word]

    def _reduce(self, elem):
        """Fully reduce {code: coeff}; returns a new dict.

        Codes below _final take their memoized normal forms. The others, the
        words of the degree being completed, are rewritten largest first,
        one step each, as the module docstring says; every step yields
        smaller codes, so a popped code never returns.
        """
        out, pending, heap = {}, {}, []
        final, bits, digit = self._final, self._bits, (1 << self._bits) - 1
        nf, normal, rules = self._nf, self._normal, self._rules
        for w, c in elem.items():
            if w < final:
                row_axpy(out, c, self._normal_form(w))
            else:
                pending[w] = c
                heap.append(-w)
        heapify(heap)  # a max-heap of codes
        while heap:
            w = -heappop(heap)
            c = pending.pop(w)
            if not c:
                continue
            head = w >> bits
            if head not in normal and head not in nf:
                self._normal_form(head)
            if head in normal:
                lead = self._suffix_lead(w)
                if lead is None:
                    out[w] = c
                    continue
                # w becomes (t << shift) + rest for each term t of terms
                terms, shift, rest = rules[lead], 0, w - lead
            else:
                terms, shift, rest = nf[head], bits, w & digit
            for t, tc in terms.items():
                v = (t << shift) + rest
                cur = pending.get(v)
                if cur is None:
                    pending[v] = tc * c
                    heappush(heap, -v)
                else:
                    pending[v] = cur + tc * c
        return out

    # -- completion --------------------------------------------------------

    def _holds_lead(self, code):
        """Whether the word of a code below _final has a lead as a subword.

        Its prefixes are tested shortest first: known normal ones are passed
        over, the others are looked up in _nf or scanned for a suffix lead,
        and those found normal join _normal.
        """
        normal = self._normal
        bits, n = self._bits, self._length(code)
        for k in range(n - 1, -1, -1):
            prefix = code >> bits * k
            if prefix in normal:
                continue
            if prefix in self._nf or self._suffix_lead(prefix) is not None:
                return True
            normal.add(prefix)
        return False

    def _s_polynomials(self, d):
        """Differences of the two rewrites of every overlap word of length d
        whose interior, the word without its first and last letters, holds no
        lead; the others are resolved below d (the module docstring says why)."""
        bits, rules, index, normal = self._bits, self._rules, self._index, self._normal
        masks = [(1 << bits * k) - 1 for k in range(d)]  # masks[k] keeps the last k letters
        interior = masks[d - 2] if d > 2 else 0
        for l1, t1 in rules.items():
            n1 = -(-l1.bit_length() // bits)  # self._length(l1), inlined in this hot loop
            shift = bits * (d - n1)  # l1 is followed by a rest of d - n1 letters
            rest_mask = (1 << shift) - 1
            # a lead inside is no subword of l1 or l2: it holds the k shared
            # letters and the one before and after them, which needs
            # k + 2 <= n1 and k + 2 <= n2, that is k <= n1 - 2 and n1 <= d - 2
            inside = n1 - 2 if n1 <= d - 2 else 0
            for k in range(1, n1):
                # l2, of d - n1 + k letters, starts with the last k letters of l1
                n2 = d - n1 + k
                head = l1 >> bits * k << bits * n2
                for l2 in index.get((l1 & masks[k], n2), ()):
                    rest = l2 & rest_mask
                    if k <= inside:
                        middle = (l1 << shift | rest) >> bits & interior
                        if middle not in normal and self._holds_lead(middle):
                            continue
                    row = {t << shift | rest: c for t, c in t1.items()}
                    for t, c in rules[l2].items():
                        add_term(row, head | t, -c)
                    yield row

    def complete(self, relations):
        """Complete the system from {degree: [relations keyed by code]}, one
        degree at a time.

        Overlaps are resolved, and minimal relations counted, up to the
        degree bound; relations above it are still interreduced into rules,
        so none is dropped.
        """
        bits = self._bits
        for d in range(1, max([self.max_degree, *relations]) + 1):
            self._final = 1 << bits * (d - 1)  # the least code of length d
            ech = Echelon()  # its pivots are the leads of degree d
            if d <= self.max_degree:
                for row in self._s_polynomials(d):
                    ech.add(self._reduce(row))
            spanned = ech.rank
            for row in relations.get(d, ()):
                ech.add(self._reduce(row))
            if d <= self.max_degree:
                self.minimal[d] = ech.rank - spanned
            if ech.pivots:
                self._suffixes.append((self._final, (1 << bits * d) - 1))
            for lead, row in ech.pivots.items():
                self._rules[lead] = {w: -c for w, c in row.items() if w != lead}
                for k in range(1, d):
                    self._index.setdefault((lead >> bits * (d - k), d), []).append(lead)
        self._final = float("inf")

    # -- counting ----------------------------------------------------------

    def normal_word_counts(self):
        """Irreducible words per degree up to the bound, via the automaton of
        the leads, built with suffix links as in Aho-Corasick.

        A state is the longest suffix of a normal word that is a proper prefix
        of a lead; the root is the empty word. States are walked in code
        order, shorter first. delta(s, a) is s a if that is a state, dead if
        it is a lead, and else back = delta(link(s), a), the root when s is
        the root; the link of a state s a, its longest proper suffix that is
        a state, is that same back.
        """
        bits, rules = self._bits, self._rules
        states = sorted({0} | {
            lead >> bits * i for lead in rules for i in range(1, self._length(lead))
        })
        index = {s: i for i, s in enumerate(states)}
        link = [0] * len(states)
        delta = []  # state -> next state per letter, None where a lead completes
        for si, s in enumerate(states):
            row = []
            for a in range(1, self.rank + 1):
                t = s << bits | a
                back = delta[link[si]][a - 1] if s else 0
                if t in rules:
                    row.append(None)
                elif t in index:
                    row.append(index[t])
                    link[index[t]] = back
                else:
                    row.append(back)
            delta.append(row)
        trans = [[t for t in row if t is not None] for row in delta]
        counts = [0] * len(states)
        counts[index[0]] = 1
        out = [1]
        for _ in range(self.max_degree):
            nxt = [0] * len(states)
            for si, c in enumerate(counts):
                if c:
                    for t in trans[si]:
                        nxt[t] += c
            counts = nxt
            out.append(sum(counts))
        return out


def rewrite_dims(rank, relations, max_degree):
    """Graded dimensions of T(V)/(relations) up to max_degree by rewriting.

    relations: iterable of elements {word: coeff} of T(V), each homogeneous
    of positive degree in the letters 0..rank-1 (ValueError otherwise); a
    zero relation is skipped.
    """
    rs = RewriteSystem(rank, max_degree)
    by_degree = {}
    for elem in relations:
        degrees = {len(w) for w in elem}
        if len(degrees) > 1 or 0 in degrees:
            raise ValueError(f"relation is not homogeneous of positive degree: {sorted(degrees)}")
        if degrees:
            coded = {rs._encode(w): c for w, c in elem.items()}
            by_degree.setdefault(degrees.pop(), []).append(coded)
    rs.complete(by_degree)
    return rs.normal_word_counts(), rs
