"""Sparse exact linear algebra: echelon form."""

from nicholsalg.cyclo import CycNumber, one, rational, zeta
from nicholsalg.linalg import Echelon


def count_inverses(monkeypatch):
    calls = []
    inverse = CycNumber.inverse

    def counting(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(CycNumber, "inverse", counting)
    return calls


def test_unit_pivot_needs_no_inverse(monkeypatch):
    calls = count_inverses(monkeypatch)
    ech = Echelon()
    ech.add({3: one(), 2: zeta(3)})
    ech.add({2: one(), 1: rational(5)})
    assert calls == []
    assert ech.pivots == {
        3: {3: one(), 1: -(zeta(3) * rational(5))},
        2: {2: one(), 1: rational(5)},
    }
    ech.add({1: zeta(3), 0: one()})
    assert len(calls) == 1
    assert ech.pivots[1] == {1: one(), 0: zeta(3).inverse()}
