"""Noncommutative rewriting for graded quotients of tensor algebras.

Words are reduced against a rule set ordered by degree-lexicographic
comparison. Since all defining relations in scope are homogeneous, overlap
completion can be truncated at a degree bound: an S-polynomial of two
homogeneous rules is strictly longer than either, so discarding the ones
past the bound leaves all normal-word counts below it exact.
"""

from collections import deque

from .cyclo import one
from .linalg import row_axpy, row_scale


def deglex_key(word):
    return (len(word), word)


class RewriteSystem:
    """Degree-truncated rewriting system with deglex leading words."""

    def __init__(self, rank, max_degree):
        self.rank = rank
        self.max_degree = max_degree
        self.rules = {}  # lead word -> tail dict {word: coeff}, lead = tail
        self._by_len = {}  # lead length -> set of leads
        self._nf_cache = {}

    # -- reduction ---------------------------------------------------------

    def _find_redex(self, word):
        n = len(word)
        for start in range(n):
            for length, leads in self._by_len.items():
                if start + length <= n and word[start : start + length] in leads:
                    return start, word[start : start + length]
        return None

    def normal_form_word(self, word):
        """Normal form of a basis word as {normal word: coeff}."""
        cached = self._nf_cache.get(word)
        if cached is not None:
            return cached
        # iterative post-order evaluation; rewrite chains can be deep
        stack = [word]
        while stack:
            w = stack[-1]
            if w in self._nf_cache:
                stack.pop()
                continue
            red = self._find_redex(w)
            if red is None:
                self._nf_cache[w] = {w: one()}
                stack.pop()
                continue
            start, lead = red
            tail = self.rules[lead]
            pending = []
            for tw in tail:
                nw = w[:start] + tw + w[start + len(lead) :]
                if nw not in self._nf_cache:
                    pending.append(nw)
            if pending:
                stack.extend(pending)
                continue
            res = {}
            for tw, tc in tail.items():
                nw = w[:start] + tw + w[start + len(lead) :]
                row_axpy(res, tc, self._nf_cache[nw])
            self._nf_cache[w] = res
            stack.pop()
        return self._nf_cache[word]

    def reduce(self, elem):
        """Fully reduce {word: coeff}; returns a new dict."""
        out = {}
        for w, c in elem.items():
            row_axpy(out, c, self.normal_form_word(w))
        return out

    # -- rule management ---------------------------------------------------

    def _insert(self, lead, tail):
        self.rules[lead] = tail
        self._by_len.setdefault(len(lead), set()).add(lead)
        self._nf_cache.clear()

    def _remove(self, lead):
        del self.rules[lead]
        self._by_len[len(lead)].discard(lead)
        self._nf_cache.clear()

    def add_relation(self, elem):
        """Add a homogeneous relation (element = 0); returns the new lead or None."""
        red = self.reduce(dict(elem))
        if not red:
            return None
        lead = max(red, key=deglex_key)
        if not red[lead].is_one():
            red = row_scale(red, red[lead].inverse())
        tail = {w: -c for w, c in red.items() if w != lead}
        # keep leads interreduced: rules whose lead contains the new lead
        # get re-added after the insertion
        stale = [
            l2
            for l2 in self.rules
            if len(l2) >= len(lead)
            and any(l2[s : s + len(lead)] == lead for s in range(len(l2) - len(lead) + 1))
        ]
        self._insert(lead, tail)
        for l2 in stale:
            t2 = self.rules[l2]
            self._remove(l2)
            e = {l2: one()}
            row_axpy(e, -one(), t2)
            self.add_relation(e)
        return lead

    # -- completion --------------------------------------------------------

    def complete(self):
        """Resolve all overlap ambiguities up to the degree bound."""
        pending = deque()
        for l1 in list(self.rules):
            for l2 in list(self.rules):
                pending.append((l1, l2))
        while pending:
            l1, l2 = pending.popleft()
            if l1 not in self.rules or l2 not in self.rules:
                continue
            for k in range(1, min(len(l1), len(l2))):
                if l1[len(l1) - k :] != l2[:k]:
                    continue
                word = l1 + l2[k:]
                if len(word) > self.max_degree:
                    continue
                # expand via rule1 at position 0 and rule2 at position len(l1)-k
                e1 = {}
                for tw, tc in self.rules[l1].items():
                    e1[tw + l2[k:]] = tc
                e2 = {}
                for tw, tc in self.rules[l2].items():
                    e2[l1[: len(l1) - k] + tw] = tc
                diff = dict(e1)
                row_axpy(diff, -one(), e2)
                red = self.reduce(diff)
                if red:
                    before = set(self.rules)
                    self.add_relation(red)
                    # interreduction can introduce several new leads at once
                    for new_lead in set(self.rules) - before:
                        for other in list(self.rules):
                            pending.append((other, new_lead))
                            pending.append((new_lead, other))

    # -- counting ----------------------------------------------------------

    def normal_word_counts(self, max_degree=None):
        """Number of irreducible words per degree, via a suffix automaton."""
        max_degree = self.max_degree if max_degree is None else max_degree
        leads = set(self.rules)
        prefixes = {()}
        for lead in leads:
            for i in range(1, len(lead)):
                prefixes.add(lead[:i])
        states = sorted(prefixes, key=deglex_key)
        index = {s: i for i, s in enumerate(states)}
        trans = []  # state -> letter -> state index or None (dead)
        for s in states:
            row = []
            for a in range(self.rank):
                t = s + (a,)
                dead = False
                nxt = None
                for start in range(len(t) + 1):
                    suf = t[start:]
                    if suf in leads:
                        dead = True
                        break
                    if nxt is None and suf in prefixes:
                        nxt = index[suf]
                row.append(None if dead else nxt)
            trans.append(row)
        counts = [0] * len(states)
        counts[index[()]] = 1
        out = [1]
        for _ in range(max_degree):
            nxt_counts = [0] * len(states)
            for si, c in enumerate(counts):
                if not c:
                    continue
                for a in range(self.rank):
                    t = trans[si][a]
                    if t is not None:
                        nxt_counts[t] += c
            counts = nxt_counts
            out.append(sum(counts))
        return out


def rewrite_dims(rank, relations, max_degree):
    """Graded dimensions of T(V)/(relations) up to max_degree by rewriting.

    relations: iterable of elements {word: coeff} of T(V).
    """
    rs = RewriteSystem(rank, max_degree)
    # feed in ascending degree so truncation stays sound; a zero relation says nothing
    for elem in sorted(filter(None, relations), key=lambda e: max(len(w) for w in e)):
        rs.add_relation(elem)
    rs.complete()
    return rs.normal_word_counts(max_degree), rs
