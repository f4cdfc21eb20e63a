"""The root walk as it stood before the chi memo: the test oracle for weyl.

Each object's reflections are computed from its own q-matrix, with a
Cartan matrix per object; tests compare weyl.enumerate_roots with this walk.
"""

from collections import deque

from nicholsalg.braided import DEFAULT_CARTAN_CAP, bichar, build_diagonal, is_cartan_vertex
from nicholsalg.weyl import DEFAULT_OBJECT_CAP, RootSystemData, cartan_matrix


def reflect_qmatrix(V, i, crow):
    """q-matrix of the i-th reflection: q'_jk = chi(s_i a_j, s_i a_k), where
    crow is row i of the Cartan matrix."""
    theta = V.rank

    def s_i(j):
        alpha = [0] * theta
        alpha[j] = 1
        alpha[i] -= crow[j]
        return tuple(alpha)

    images = [s_i(j) for j in range(theta)]
    return tuple(
        tuple(bichar(V.qmatrix, images[j], images[k]) for k in range(theta))
        for j in range(theta)
    )


def enumerate_roots(V, cap=DEFAULT_CARTAN_CAP, object_cap=DEFAULT_OBJECT_CAP):
    """Walk the reflection groupoid from V and collect the root data.

    Objects are the q-matrices reached by reflections, numbered as found;
    each object's Cartan matrix, Cartan-vertex flags and reflections are
    computed once. A state is (object number, M), where the integer matrix M
    sends the object's simple roots back to degrees at the initial object.
    Roots of the initial object are the columns of all visited M (both
    signs). The walk is declared infinite past object_cap objects, or at an
    object with a Cartan integer undefined within cap.
    """
    theta = V.rank
    start = V.qmatrix
    ident = tuple(tuple(1 if r == c else 0 for c in range(theta)) for r in range(theta))
    numbers = {start: 0}  # q-matrix -> object number
    qmatrices = [start]
    reflected = {}  # object number -> (Cartan matrix, Cartan-vertex flags, reflected q-matrices)
    queue = deque([(0, ident)])
    seen_states = {(0, ident)}
    roots = set()
    cartan = set()

    def not_finite():
        return RootSystemData(False, [], [], len(numbers), None, None)

    while queue:
        obj, M = queue.popleft()
        if obj not in reflected:
            W = build_diagonal(qmatrices[obj])
            try:
                cmat = cartan_matrix(W, cap)
            except ValueError:
                return not_finite()
            reflected[obj] = (
                cmat,
                [is_cartan_vertex(W, j, cmat[j]) for j in range(theta)],
                [reflect_qmatrix(W, i, cmat[i]) for i in range(theta)],
            )
        cmat, flags, images = reflected[obj]
        for j in range(theta):
            col = tuple(M[r][j] for r in range(theta))
            roots.add(col)
            if flags[j]:
                cartan.add(col)
        for i, (crow, qm2) in enumerate(zip(cmat, images)):
            # columns of M compose: new simple a_j at qm2 maps to M(s_i a_j)
            M2 = tuple(
                tuple(
                    M[r][j] - crow[j] * M[r][i] if j != i else -M[r][i]
                    for j in range(theta)
                )
                for r in range(theta)
            )
            if qm2 not in numbers:
                if len(numbers) >= object_cap:
                    return not_finite()
                numbers[qm2] = len(qmatrices)
                qmatrices.append(qm2)
            state = (numbers[qm2], M2)
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
    cmat, flags, _ = reflected[0]
    return RootSystemData(True, positive, cartan_pos, len(numbers), cmat, flags)
