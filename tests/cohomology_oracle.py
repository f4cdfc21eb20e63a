"""Output-driven cochain faces: the test oracle for nicholsalg.cohomology.

The package builds each face from its input entries, through transposed
structure tables. This module keeps the faces, the morphism unknowns and the
equivariance rows as they were before that: every routine walks all tuples
of positive basis indices and looks its inputs up, so tests can compare the
two on the same cochain entries.
"""

from itertools import product

from nicholsalg.linalg import add_term


def tuple_label(cat, tup):
    """The label of a tuple: its legs' labels folded by label_mul."""
    lab = cat.label_unit
    for i in tup:
        lab = cat.label_mul(lab, cat.labels[i])
    return lab


def positive_tuples(B, p):
    return list(product(B.positive(), repeat=p))


def _by_source(keys):
    by_src = {}
    for key in keys:
        by_src.setdefault(key[0], []).append(key)
    return by_src


def dh_entries(B, keys, p):
    """Matrix entries of the Hochschild face on (p, q)-cochain entries."""
    look = _by_source(keys)
    if not look:
        return
    for s in positive_tuples(B, p + 1):
        for inp in look.get(s[1:], ()):
            for t2, c in B.act_left(s[0], inp[1]).items():
                yield (s, t2), inp, c
        for i in range(1, p + 1):
            for j, cm in B.mult(s[i - 1], s[i]).items():
                for inp in look.get(s[: i - 1] + (j,) + s[i + 1 :], ()):
                    yield (s, inp[1]), inp, -cm if i % 2 else cm
        for inp in look.get(s[:p], ()):
            for t2, c in B.act_right(inp[1], s[p]).items():
                yield (s, t2), inp, c if p % 2 else -c


def dc_entries(B, keys, p):
    """Matrix entries of the coalgebra face on (p, q)-cochain entries."""
    look = _by_source(keys)
    if not look:
        return
    for s in positive_tuples(B, p):
        for (j0, s2), c in B.coact_left(s).items():
            for inp in look.get(s2, ()):
                yield (s, (j0,) + inp[1]), inp, c
        for inp in look.get(s, ()):
            t = inp[1]
            for j in range(1, len(t) + 1):
                for (a, b), c in B.coprod(t[j - 1]).items():
                    yield (s, t[: j - 1] + (a, b) + t[j:]), inp, -c if j % 2 else c
        for (s2, j0), c in B.coact_right(s).items():
            for inp in look.get(s2, ()):
                t = inp[1]
                yield (s, t + (j0,)), inp, -c if len(t) % 2 == 0 else c


def rows(entries):
    """Collect a face stream into rows {output entry: {input entry: coeff}}."""
    out = {}
    for key, inp, c in entries:
        add_term(out.setdefault(key, {}), inp, c)
    return {key: row for key, row in out.items() if row}


def map_unknowns(B, p, q, ell=None):
    """Entries (s, t) of a morphism (B+)^p -> (B+)^q, of degree ell if given."""

    def degree(tup, shift=0):
        return None if ell is None else sum(B.degree(i) for i in tup) + shift

    targets = {}
    for t in positive_tuples(B, q):
        targets.setdefault(degree(t), []).append(t)
    cat = B.category
    labels = {}

    def label(tup):
        if tup not in labels:
            labels[tup] = tuple_label(cat, tup)
        return labels[tup]

    out = []
    for s in positive_tuples(B, p):
        for t in targets.get(degree(s, ell), ()):
            if cat is None or label(t) == label(s):
                out.append((s, t))
    return out


def _tensor_action(mat, tup):
    states = {(): 1}
    for i in tup:
        nxt = {}
        for partial, c in states.items():
            for j, cm in mat[i].items():
                add_term(nxt, partial + (j,), c * cm)
        states = nxt
    return states


def equivariance_rows(B, unknowns, p):
    """Rows forcing a map on the given entries to commute with the group action."""
    cat = B.category
    if cat is None or not cat.action_gens or not unknowns:
        return []
    by_src = _by_source(unknowns)
    out = []
    for mat in cat.action_gens:
        for s in positive_tuples(B, p):
            per_t = {}
            for s2, c in _tensor_action(mat, s).items():
                for key in by_src.get(s2, ()):
                    add_term(per_t.setdefault(key[1], {}), key, c)
            for key in by_src.get(s, ()):
                for t2, c in _tensor_action(mat, key[1]).items():
                    add_term(per_t.setdefault(t2, {}), key, -c)
            out.extend(r for r in per_t.values() if r)
    return out
