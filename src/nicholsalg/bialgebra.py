"""Finite graded braided bialgebras: the Nichols algebra B(V) by its layers.

from_nichols reads B(V) off the tensoralg.NicholsDegree layers. The basis
is the layers' basis words, one flat index each; it is prefix-closed, and
the layer above e_k writes each word e_k x_a in the basis. So a product
e_i e_j folds the letters of e_j's word into e_i one at a time, and any word
of T(V) folds into the unit the same way, with no rewriting system. The
Nichols ideal is a Hopf ideal (Andruskiewitsch-Schneider, MSRI Publ. 43,
2002), so the braiding descends to B and the coproduct is pushed down one
letter at a time, Delta(w x) = Delta(w)(x (x) 1 + 1 (x) x) in B (x) B, with
no coideal test. The braiding has Yetter-Drinfeld form, c(x (x) y) =
x_(-1).y (x) x_(0), with each basis word homogeneous for the coaction: the
left leg passes to the right unchanged, so braid keeps only the leg that
moves.

A bialgebra can carry a category structure: a label per basis element, its
word's label under a braided.Grading ((group, character) pairs for diagonal
braidings, permutations for group type), plus, for nonabelian gradings,
explicit action matrices. Cohomology computations constrain all maps to be
morphisms for this structure.
"""

from itertools import product

from .braided import group_grading
from .linalg import add_term, row_axpy, row_scale
from .tensoralg import NicholsDegree


class NotFinite(ValueError):
    """B(V) is not shown finite within the degree budget."""


class CategoryStructure:
    """Homogeneity data making B an object of a braided module category.

    labels[i] is a hashable degree label of the i-th basis element;
    label_mul/label_unit give the label monoid. action_gens, when present,
    is a list of matrices (vec dicts per basis index) generating the group
    action; for abelian diagonal braidings the action is encoded in the
    labels and action_gens stays None.

    Labels are also interned as small ints: label_table[k] is the label of
    id k, label_ids[i] the id of labels[i] and unit_id that of label_unit.
    The tuple-state graphs of B key on the ids, so hashing a state costs
    the same whatever the labels are made of, and mul_ids folds each pair of
    ids once per category.
    """

    def __init__(self, labels, label_mul, label_unit, action_gens=None):
        self.labels = list(labels)
        self.label_mul = label_mul
        self.label_unit = label_unit
        self.action_gens = action_gens
        self.label_table = []
        self._ids = {}
        self._products = {}  # (id, id) -> id
        self.unit_id = self.label_id(label_unit)
        self.label_ids = [self.label_id(lab) for lab in self.labels]

    def label_id(self, label):
        """The id of label, interned on first sight."""
        k = self._ids.get(label)
        if k is None:
            k = self._ids[label] = len(self.label_table)
            self.label_table.append(label)
        return k

    def mul_ids(self, a, b):
        """The id of label_mul of the labels of ids a and b."""
        k = self._products.get((a, b))
        if k is None:
            k = self._products[a, b] = self.label_id(
                self.label_mul(self.label_table[a], self.label_table[b])
            )
        return k


class GradedBialgebraData:
    """Structure constants of a finite graded bialgebra generated in degree 1.

    basis_by_degree holds the basis words per degree, degree 0 first, each
    degree's words b x in the order of their prefixes b, so flat indices are
    contiguous per degree. nf[k theta + a] writes the word of e_k followed
    by letter a as {flat index: coeff}, theta = V.rank; it is the
    concatenation of the layers' nf from degree 1 through top + 1.
    """

    def __init__(self, V, basis_by_degree, nf):
        self.V = V
        self.basis = basis_by_degree  # words per degree, degree 0 first
        self.nf = nf
        self.flat = [w for level in basis_by_degree for w in level]
        self.index = {w: i for i, w in enumerate(self.flat)}
        self.degrees = [len(w) for w in self.flat]
        self.unit = self.index[()]
        self.category = None
        self._mult = {}
        self._coprod = {}
        self._braid = {}
        self._act_left = {}
        self._act_right = {}
        self._coact_left = {}
        self._coact_right = {}
        self._walks = {}  # (n, graded, category) -> state graph of positive n-tuples
        self._transposes = {}  # slices of mult, the coactions and the action, read by output
        self._group_act = {}  # (generator, tuple) -> {tuple: coeff}

    # -- bookkeeping -------------------------------------------------------

    @property
    def dim(self):
        return len(self.flat)

    @property
    def top_degree(self):
        return len(self.basis) - 1

    def dims(self):
        return [len(level) for level in self.basis]

    def degree(self, i):
        return self.degrees[i]

    def positive(self):
        """Indices of the augmentation ideal basis."""
        return [i for i in range(self.dim) if self.degrees[i] > 0]

    # -- positive tuples ----------------------------------------------------
    # The state of a tuple is its degree (0 for every tuple if not graded) and
    # the id of its label, the product of its legs' labels under label_mul
    # (None without a category). The graph of states is built once per
    # length; labels are folded only while it is built, through the
    # category's mul_ids, so each pair of ids once per category.

    def _walk(self, n, graded):
        """(kind per positive index, [{(state, kind): next state}] per leg, end states)."""
        key = (n, graded, self.category)
        if key not in self._walks:
            cat = self.category
            kind = {i: (self.degrees[i] * graded, cat and cat.label_ids[i]) for i in self.positive()}
            kinds, steps, reach = set(kind.values()), [], {(0, cat and cat.unit_id)}
            for _ in range(n):
                steps.append({
                    (st, k): (st[0] + k[0], cat and cat.mul_ids(st[1], k[1]))
                    for st in reach
                    for k in kinds
                })
                reach = set(steps[-1].values())
            self._walks[key] = kind, steps, reach
        return self._walks[key]

    def tuple_states(self, n, graded=True):
        """The (degree, label id) states of the positive n-tuples."""
        return self._walk(n, graded)[2]

    def tuples(self, n, wanted, graded=True):
        """[(tuple, state)] over the positive n-tuples whose state is wanted,
        in product order. A prefix is extended only while some completion of
        it is wanted, so no other tuple is visited."""
        kind, steps, reach = self._walk(n, graded)
        alive = [reach.intersection(wanted)]
        for step in reversed(steps):
            alive.append({st for (st, k), nxt in step.items() if nxt in alive[-1]})
        level = [((), st) for st in alive.pop()]
        for step in steps:
            ok = alive.pop()
            level = [
                (t + (i,), nxt)
                for t, st in level
                for i, k in kind.items()
                if (nxt := step[st, k]) in ok
            ]
        return level

    def tuples_of_degree(self, n, d):
        """The positive n-tuples of degree d, in product order."""
        return [t for t, _ in self.tuples(n, [st for st in self.tuple_states(n) if st[0] == d])]

    def _times_letter(self, vec, a):
        """vec x_a in the basis, for vec = {index: coeff}."""
        out, nf, theta = {}, self.nf, self.V.rank
        for k, c in vec.items():
            row_axpy(out, c, nf[k * theta + a])
        return out

    def vec_of(self, element):
        """Basis coordinates of a {word: coeff} element of T(V): each word's
        letters folded into the unit."""
        out = {}
        for w, c in element.items():
            vec = {self.unit: 1}
            for a in w:
                if not 0 <= a < self.V.rank:
                    raise ValueError(f"letter {a} is outside the alphabet of rank {self.V.rank}")
                vec = self._times_letter(vec, a)
            row_axpy(out, c, vec)
        return out

    # -- structure constants -----------------------------------------------

    def mult(self, i, j):
        """Product of basis elements as {index: coeff}: the last letter of
        e_j folded into e_i times the prefix of e_j."""
        hit = self._mult.get((i, j))
        if hit is None:
            word = self.flat[j]
            if word:
                hit = self._times_letter(self.mult(i, self.index[word[:-1]]), word[-1])
            else:
                hit = {i: 1}
            self._mult[i, j] = hit
        return hit

    def mult_sources(self, j):
        """[(x, y, coeff)] over positive x, y whose product has coeff at e_j:
        the transpose of mult, built per degree of j on first use."""
        d = self.degrees[j]
        table = self._transposes.get(("mult", d))
        if table is None:
            table = self._transposes["mult", d] = {}
            for x, y in self.tuples_of_degree(2, d):
                for k, c in self.mult(x, y).items():
                    table.setdefault(k, []).append((x, y, c))
        return table.get(j, ())

    def coprod(self, i):
        """Coproduct as {(left index, right index): coeff}, unit legs included.

        The basis is prefix-closed, so e_i = e_j x for a basis element e_j
        and a letter x, and Delta(e_i) = times_primitive(Delta(e_j), x).
        """
        hit = self._coprod.get(i)
        if hit is None:
            word = self.flat[i]
            if not word:
                hit = {(i, i): 1}
            else:
                prefix = self.coprod(self.index[word[:-1]])
                hit = self.times_primitive(prefix, self.index[word[-1:]])
            self._coprod[i] = hit
        return hit

    def times_primitive(self, delta, x):
        """delta (x (x) 1 + 1 (x) x) in the braided tensor product B (x) B, for
        delta = {(a, b): coeff} and x a degree-1 index: (a (x) b)(x (x) 1) =
        sum a x' (x) b over c(b (x) x) = sum x' (x) b, (a (x) b)(1 (x) x) =
        a (x) b x."""
        out = {}
        for (a, b), c in delta.items():
            for xb, cb in self.braid(b, x).items():
                for k, cm in self.mult(a, xb).items():
                    add_term(out, (k, b), c * cb * cm)
            for k, cm in self.mult(b, x).items():
                add_term(out, (a, k), c * cm)
        return out

    def braid(self, i, j):
        """c(e_i (x) e_j) = sum coeff e_k (x) e_i as {k: coeff} (module doc).
        e_i's group degree acts on B by algebra automorphisms: on e_j's last
        letter, folded into its action on e_j's prefix, and on a letter as
        e_i's last letter does (V.braid_pair), then as e_i's prefix does."""
        hit = self._braid.get((i, j))
        if hit is None:
            left, word = self.flat[i], self.flat[j]
            if not left or not word:
                hit = {j: 1}
            elif len(word) == 1:
                s, a = self.V.braid_pair(left[-1], word[0])
                hit = row_scale(self.braid(self.index[left[:-1]], self.index[(a,)]), s)
            else:
                ((k, s),) = self.braid(i, self.index[word[-1:]]).items()
                prefix = self.braid(i, self.index[word[:-1]])
                hit = row_scale(self._times_letter(prefix, self.flat[k][0]), s)
            self._braid[i, j] = hit
        return hit

    # -- tensor power structure --------------------------------------------
    # Each operation peels one tensor leg and recurses on the shorter tuple,
    # using only coprod, braid and mult. This is valid because the braiding
    # is natural for the product and the coproduct, and it keeps degrees, so
    # a braided leg is positive exactly when the leg it came from was.

    def act_left(self, i, t):
        """Regular left action Delta^(q)(e_i) . t on B^(x)q: {t': coeff}."""
        key = (i, t)
        hit = self._act_left.get(key)
        if hit is None:
            if not t:
                hit = {(): 1} if i == self.unit else {}
            else:
                hit = {}
                head, rest = t[0], t[1:]
                for (a1, a2), c0 in self.coprod(i).items():
                    tail = self.act_left(a2, rest)
                    if not tail:
                        continue
                    for h, cb in self.braid(a2, head).items():
                        for k, cm in self.mult(a1, h).items():
                            c = c0 * cb * cm
                            for r, cr in tail.items():
                                add_term(hit, (k,) + r, c * cr)
            self._act_left[key] = hit
        return hit

    def act_right(self, t, i):
        """Regular right action t . Delta^(q)(e_i) on B^(x)q: {t': coeff}."""
        key = (t, i)
        hit = self._act_right.get(key)
        if hit is None:
            if not t:
                hit = {(): 1} if i == self.unit else {}
            else:
                hit = {}
                front, last = t[:-1], t[-1]
                for (b1, b2), c0 in self.coprod(i).items():
                    for b1p, cb in self.braid(last, b1).items():
                        front_acted = self.act_right(front, b1p)
                        if not front_acted:
                            continue
                        for k, cm in self.mult(last, b2).items():
                            c = c0 * cb * cm
                            for f, cf in front_acted.items():
                                add_term(hit, f + (k,), c * cf)
            self._act_right[key] = hit
        return hit

    def coact_left(self, t, keep=True):
        """Left coaction B^(x)p -> B (x) (B+)^(x)p: {(j, t'): coeff}.

        Only the terms whose tensor side t' has every leg positive are kept:
        the cochain faces act on (B+)^(x)p, and the unit is the one basis
        element of degree 0. A unit leg is skipped as soon as it is split off.
        Memoized unless keep is false; shorter tuples are memoized always.
        """
        hit = self._coact_left.get(t)
        if hit is None:
            if not t:
                hit = {(self.unit, ()): 1}
            else:
                hit = {}
                head, rest = t[0], t[1:]
                for (j, r), c1 in self.coact_left(rest).items():
                    for (a1, a2), c0 in self.coprod(head).items():
                        if a2 == self.unit:
                            continue
                        for h, cb in self.braid(a2, j).items():
                            c = c1 * c0 * cb
                            for k, cm in self.mult(a1, h).items():
                                add_term(hit, (k, (a2,) + r), c * cm)
            if keep:
                self._coact_left[t] = hit
        return hit

    def coact_right(self, t, keep=True):
        """Right coaction B^(x)p -> (B+)^(x)p (x) B: {(t', j): coeff}.

        As coact_left, only terms with every leg of t' positive are kept.
        """
        hit = self._coact_right.get(t)
        if hit is None:
            if not t:
                hit = {((), self.unit): 1}
            else:
                hit = {}
                front, last = t[:-1], t[-1]
                for (f, j), c1 in self.coact_right(front).items():
                    for (b1, b2), c0 in self.coprod(last).items():
                        if b1 == self.unit:
                            continue
                        for b1p, cb in self.braid(j, b1).items():
                            c = c1 * c0 * cb
                            for k, cm in self.mult(j, b2).items():
                                add_term(hit, (f + (b1p,), k), c * cm)
            if keep:
                self._coact_right[t] = hit
        return hit

    def coaction_sources(self, side, s2):
        """(s, j, coeff) over the positive tuples s whose coaction on side
        "left" ("right") has the term j (x) s2 (s2 (x) j) with that coeff.
        The transpose is built per length and degree of s on first use, from
        coactions not memoized beside it; deg s = deg s2 + deg j."""
        p, e = len(s2), sum(self.degrees[i] for i in s2)
        coact = self.coact_left if side == "left" else self.coact_right
        for d in range(e, min(e + self.top_degree, p * self.top_degree) + 1):
            table = self._transposes.get((side, p, d))
            if table is None:
                table = self._transposes[side, p, d] = {}
                for s in self.tuples_of_degree(p, d):
                    for key, c in coact(s, keep=False).items():
                        j, t = key if side == "left" else key[::-1]
                        table.setdefault(t, []).append((s, j, c))
            yield from table.get(s2, ())

    # -- the action of a category's generators on tuples --------------------

    def tensor_action(self, g, t):
        """Action generator g of the category on the tuple t, legwise: {t': coeff}."""
        hit = self._group_act.get((g, t))
        if hit is None:
            hit = {} if t else {(): 1}
            if t:
                row = self.category.action_gens[g][t[-1]]
                for front, c in self.tensor_action(g, t[:-1]).items():
                    for j, cm in row.items():
                        add_term(hit, front + (j,), c * cm)
            self._group_act[g, t] = hit
        return hit

    def action_sources(self, g, t):
        """The positive tuples s whose image under generator g has a term at t."""
        table = self._transposes.get(("action", g))
        if table is None:
            table = self._transposes["action", g] = {}
            for x in self.positive():
                for j in self.category.action_gens[g][x]:
                    table.setdefault(j, []).append(x)
        return product(*(table.get(j, ()) for j in t))


# -- axiom checks ------------------------------------------------------------


def check_associativity(dim, mult):
    """(True, None), or (False, (i, j, k)) for the first basis triple where
    mult, a callable returning sparse dicts, is not associative."""
    for i, j, k in product(range(dim), repeat=3):
        acc = {}
        for a, c in mult(i, j).items():
            row_axpy(acc, c, mult(a, k))
        for a, c in mult(j, k).items():
            row_axpy(acc, -c, mult(i, a))
        if acc:
            return False, (i, j, k)
    return True, None


def from_nichols(V, max_degree):
    """The Nichols algebra B(V) with its structure constants, from the
    NicholsDegree layers; NotFinite if B(V) has a word of degree max_degree."""
    layer, basis, nf = NicholsDegree(V), [], []
    while layer.basis:
        basis.append(layer.basis)
        if len(basis) > max_degree:
            dims = [len(level) for level in basis]
            raise NotFinite(f"quotient not finite within degree {max_degree}: dims {dims}")
        layer = NicholsDegree(V, layer)
        # the layer's basis indices count from 0, its flat ones past every lower degree
        start = sum(map(len, basis))
        nf += ({start + q: c for q, c in row.items()} for row in layer.nf)
    return GradedBialgebraData(V, basis, nf)


def attach_diagonal_category(B, grading):
    """Label each basis word by its (group, character) degree under grading,
    a realization (relations.realization).

    For abelian gradings the group action is diagonal and fully captured by
    the character half of the label, so no action generators are stored.
    """
    labels = [grading.label(w) for w in B.flat]
    B.category = CategoryStructure(labels, grading.mul, grading.unit)
    return B.category


def attach_group_category(B, generators):
    """Group-type category data, labels the group degrees of the basis words.

    generators: letter indices g whose group degrees generate the group; g
    acts on the basis as the braiding by x_g does, e_j -> c(x_g (x) e_j)
    = g.e_j (x) x_g, which B.braid folds letter by letter in normal form.
    """
    grading = group_grading(B.V.group_degrees)
    labels = [grading.label(w) for w in B.flat]
    action_gens = [[B.braid(B.index[(g,)], j) for j in range(B.dim)] for g in generators]
    B.category = CategoryStructure(labels, grading.mul, grading.unit, action_gens)
    return B.category
