"""Tuple-word rewriting: the test oracle for nicholsalg.rewriting.

The package codes each word as one integer. This module keeps the same
degree-by-degree completion on words as tuples of letters, as it was before
that coding, so tests can compare rules, minimal relations, normal forms and
normal-word counts of the two engines. The module docstring of
nicholsalg.rewriting describes the algorithm.
"""

from nicholsalg.linalg import Echelon, add_term, row_axpy


class RewriteSystem:
    """Degree-truncated rewriting system with deglex leading words."""

    def __init__(self, rank, max_degree):
        self.rank = rank
        self.max_degree = max_degree
        self.rules = {}  # lead word -> tail dict {word: coeff}, lead = tail
        self.minimal = {}  # degree d <= max_degree -> dim M_d
        self._lens = []  # distinct lead lengths, ascending
        self._index = {}  # (proper prefix, lead length) -> leads
        self._final = float("inf")  # words shorter than this reduce by final rules
        self._nf = {}  # reducible final word -> normal form
        self._normal = {()}  # irreducible final words

    # -- reduction ---------------------------------------------------------

    def suffix_lead(self, word):
        """The lead that ends word, or None; the only redex if word[:-1] is normal."""
        n = len(word)
        for k in self._lens:
            if k > n:
                break
            if word[n - k :] in self.rules:
                return word[n - k :]
        return None

    def normal_form_word(self, word, scratch=None):
        """Normal form of a word as {normal word: coeff}, as nf(nf(word[:-1]) a).

        Words shorter than the degree being completed are memoized for good,
        longer ones in scratch, a (memo, normal set) pair of the caller.
        """
        memo, final = (self._nf, self._normal), self._final
        if scratch is None:
            scratch = ({}, set())
        # iterative post-order evaluation; rewrite chains can be deep
        stack = [(word, None)]
        while stack:
            w, terms = stack[-1]
            n = len(w)
            nf, normal = memo if n < final else scratch
            if terms is None:
                if w in normal or w in nf:
                    stack.pop()
                    continue
                head = w[:-1]
                head_nf, head_normal = memo if n - 1 < final else scratch
                if head in head_normal:
                    lead = self.suffix_lead(w)
                    if lead is None:
                        normal.add(w)
                        stack.pop()
                        continue
                    prefix = w[: n - len(lead)]
                    terms = [(prefix + t, c) for t, c in self.rules[lead].items()]
                elif head in head_nf:
                    last = w[-1:]
                    terms = [(u + last, c) for u, c in head_nf[head].items()]
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
        nf, normal = memo if len(word) < final else scratch
        return {word: 1} if word in normal else nf[word]

    def reduce(self, elem):
        """Fully reduce {word: coeff}; returns a new dict."""
        out = {}
        scratch = ({}, set())
        for w, c in elem.items():
            row_axpy(out, c, self.normal_form_word(w, scratch))
        return out

    # -- completion --------------------------------------------------------

    def _s_polynomials(self, d):
        """Differences of the two rewrites of every overlap word of length d."""
        for l1, t1 in self.rules.items():
            n1 = len(l1)
            for k in range(1, n1):
                for l2 in self._index.get((l1[n1 - k :], d - n1 + k), ()):
                    rest, head = l2[k:], l1[: n1 - k]
                    row = {t + rest: c for t, c in t1.items()}
                    for t, c in self.rules[l2].items():
                        add_term(row, head + t, -c)
                    yield row

    def complete(self, relations):
        """Complete the system from {degree: [relations]}, one degree at a time.

        Overlaps are resolved, and minimal relations counted, up to the
        degree bound; relations above it are still interreduced into rules,
        so none is dropped.
        """
        for d in range(1, max([self.max_degree, *relations]) + 1):
            self._final = d
            ech = Echelon()  # its pivots are the leads of degree d
            if d <= self.max_degree:
                for row in self._s_polynomials(d):
                    ech.add(self.reduce(row))
            spanned = ech.rank
            for row in relations.get(d, ()):
                ech.add(self.reduce(row))
            if d <= self.max_degree:
                self.minimal[d] = ech.rank - spanned
            if ech.pivots:
                self._lens.append(d)
            for lead, row in ech.pivots.items():
                self.rules[lead] = {w: -c for w, c in row.items() if w != lead}
                for k in range(1, d):
                    self._index.setdefault((lead[:k], d), []).append(lead)
        self._final = float("inf")

    # -- counting ----------------------------------------------------------

    def normal_word_counts(self):
        """Irreducible words per degree up to the bound, via a suffix automaton.

        A state is the longest suffix of a normal word that is a proper
        prefix of a lead; a letter that completes a lead leads nowhere.
        """
        prefixes = {()} | {lead[:i] for lead in self.rules for i in range(1, len(lead))}
        states = sorted(prefixes)
        index = {s: i for i, s in enumerate(states)}
        trans = []  # state -> next state per live letter
        for s in states:
            trans.append([])
            for a in range(self.rank):
                t = s + (a,)
                if self.suffix_lead(t) is None:
                    longest = next(t[i:] for i in range(len(t) + 1) if t[i:] in prefixes)
                    trans[-1].append(index[longest])
        counts = [0] * len(states)
        counts[index[()]] = 1
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
    of positive degree (ValueError otherwise); a zero relation is skipped.
    """
    by_degree = {}
    for elem in relations:
        degrees = {len(w) for w in elem}
        if len(degrees) > 1 or 0 in degrees:
            raise ValueError(f"relation is not homogeneous of positive degree: {sorted(degrees)}")
        if degrees:
            by_degree.setdefault(degrees.pop(), []).append(elem)
    rs = RewriteSystem(rank, max_degree)
    rs.complete(by_degree)
    return rs.normal_word_counts(), rs
