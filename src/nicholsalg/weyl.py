"""Root systems of diagonal braidings via reflections of the q-matrix.

Objects are q-matrices; reflections act through the bicharacter
chi(alpha, beta) = prod q_ij^(a_i b_j) on Z^theta (braided.bichar). A
breadth-first walk over reflection-equivalent matrices collects positive
roots as images of the simple roots under composed reflections. Every
q-matrix of the walk is [chi(alpha_j, alpha_k)] for the images alpha_j of
its simple roots at V, so the walk evaluates each chi value once, from a
memo, and computes Cartan data once per diagram (q_ii, q_ij q_ji), on which
they alone depend.
Cartan matrices are computed here and nowhere else; the initial object's
travels with the root data.
"""

from collections import deque
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Optional

from .braided import (
    DEFAULT_CARTAN_CAP,
    bichar,
    build_diagonal,
    cartan_integer,
    cyc_order,
    dynkin_diagram,
    is_cartan_vertex,
)

DEFAULT_OBJECT_CAP = 64


def cartan_matrix(V, cap=DEFAULT_CARTAN_CAP):
    """Cartan-scheme matrix of V (c_ii = 2); raises at the first entry, in
    row-major order, that is undefined within cap."""
    cmat = [[2] * V.rank for _ in range(V.rank)]
    for i, j in permutations(range(V.rank), 2):
        cmat[i][j] = cartan_integer(V, i, j, cap=cap)
        if cmat[i][j] is None:
            raise ValueError(f"Cartan integer c[{i}][{j}] undefined within cap {cap}")
    return cmat


@dataclass
class RootSystemData:
    finite: bool
    positive_roots: list  # tuples in N_0^theta, at the initial object
    cartan_roots: list  # subset closed under the groupoid action
    objects: int
    # Cartan matrix and Cartan-vertex flags of the initial object; None unless finite
    cartan: Optional[list]
    cartan_vertices: Optional[list]

    def root_scalar(self, V, alpha):
        """q_alpha = chi(alpha, alpha)."""
        return bichar(V.qmatrix, alpha, alpha)

    def root_order(self, V, alpha) -> Optional[int]:
        """N_alpha = ord(q_alpha), None if q_alpha is not a root of unity."""
        return cyc_order(self.root_scalar(V, alpha))


def enumerate_roots(V, cap=DEFAULT_CARTAN_CAP, object_cap=DEFAULT_OBJECT_CAP):
    """Walk the reflection groupoid from V and collect the root data.

    A state is (object number, columns): column j is M a_j, where the integer
    matrix M sends the object's simple roots back to degrees at the initial
    object. Objects are the q-matrices reached by reflections, numbered as
    found. Every state of an object has q-matrix [chi(M a_j, M a_k)], chi the
    bicharacter of V, so an object's reflected q-matrices are read off the
    columns of M s_i through one memo of chi values per walk; its Cartan
    matrix and Cartan-vertex flags depend only on the diagram (q_ii,
    q_ij q_ji) and are computed once per diagram. Roots of the initial
    object are all visited columns (both signs). The walk is declared
    infinite past object_cap objects or 1000 * object_cap states, or at an
    object with a Cartan integer undefined within cap.
    """
    theta = V.rank
    start = V.qmatrix
    ident = tuple(tuple(1 if r == c else 0 for r in range(theta)) for c in range(theta))
    numbers = {start: 0}  # q-matrix -> object number
    qmatrices = [start]
    chi = {}  # (alpha, beta) -> chi(alpha, beta)
    by_diagram = {}  # diagram -> (Cartan matrix, Cartan-vertex flags)
    cartan_data = {}  # object number -> (Cartan matrix, Cartan-vertex flags)
    images = {}  # object number -> reflected q-matrices
    queue = deque([(0, ident)])
    seen_states = {(0, ident)}
    roots = set()
    cartan = set()

    def not_finite():
        return RootSystemData(False, [], [], len(numbers), None, None)

    def qmatrix_at(cols):
        rows = []
        for alpha in cols:
            row = []
            for beta in cols:
                value = chi.get((alpha, beta))
                if value is None:
                    value = chi[alpha, beta] = bichar(V.qmatrix, alpha, beta)
                row.append(value)
            rows.append(tuple(row))
        return tuple(rows)

    def reflect(cols, i, crow):
        """Columns of M s_i from those of M, as s_i a_j = a_j - c_ij a_i."""
        ci = cols[i]
        return tuple(
            tuple(-x for x in ci) if j == i else tuple(x - crow[j] * y for x, y in zip(cols[j], ci))
            for j in range(theta)
        )

    while queue:
        obj, cols = queue.popleft()
        if obj not in cartan_data:
            qm = qmatrices[obj]
            diagram = (
                tuple(qm[i][i] for i in range(theta)),
                tuple(qm[i][j] * qm[j][i] for i, j in combinations(range(theta), 2)),
            )
            if diagram not in by_diagram:
                W = build_diagonal(qm)
                try:
                    cmat = cartan_matrix(W, cap)
                except ValueError:
                    return not_finite()
                by_diagram[diagram] = (cmat, [is_cartan_vertex(W, j, cmat[j]) for j in range(theta)])
            cartan_data[obj] = by_diagram[diagram]
        cmat, flags = cartan_data[obj]
        for col, flag in zip(cols, flags):
            roots.add(col)
            if flag:
                cartan.add(col)
        moved = [reflect(cols, i, crow) for i, crow in enumerate(cmat)]
        if obj not in images:
            images[obj] = [qmatrix_at(cols2) for cols2 in moved]
        for qm2, cols2 in zip(images[obj], moved):
            if qm2 not in numbers:
                if len(numbers) >= object_cap:
                    return not_finite()
                numbers[qm2] = len(qmatrices)
                qmatrices.append(qm2)
            state = (numbers[qm2], cols2)
            if state not in seen_states:
                # morphism count of a finite groupoid is bounded; bail out
                # instead of walking an infinite Weyl groupoid forever
                if len(seen_states) >= 1000 * object_cap:
                    return not_finite()
                seen_states.add(state)
                queue.append(state)
    positive = sorted(r for r in roots if all(x >= 0 for x in r) and any(r))
    negatives = {tuple(-x for x in r) for r in positive}
    if not set(r for r in roots if any(r)) <= set(positive) | negatives:
        return not_finite()
    cartan_pos = sorted(
        {r if all(x >= 0 for x in r) else tuple(-x for x in r) for r in cartan}
    )
    cmat, flags = cartan_data[0]
    return RootSystemData(True, positive, cartan_pos, len(numbers), cmat, flags)


def diagram_summary(V, cap=DEFAULT_CARTAN_CAP):
    """Printable diagram data: vertex scalars, edges, Cartan matrix, vertex types."""
    diag = dynkin_diagram(V)
    cmat = cartan_matrix(V, cap)
    kinds = [
        "cartan" if is_cartan_vertex(V, i, cmat[i]) else "non-cartan"
        for i in range(V.rank)
    ]
    return diag, cmat, kinds
