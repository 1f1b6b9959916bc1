r"""Exact ground-state perturbation coefficients of the anisotropic
quartic oscillator via a Bender-Wu style recursion.

For the reduced two-dimensional Schroedinger problem

    [-(1/2)(d_xx + d_yy) + r^2/2 + (g/4)(r^4 - 2 d x^2 y^2)] Psi = E Psi

the ground-state energy has the double expansion

    E = sum_{m} sum_{l>=m} (g/4)^l (2 d)^m E_lm ,     E_00 = 1.

Writing Psi = sum_{k,n} (-g/4)^k (2 d)^n exp(-r^2/2) Phi_kn with polynomial
Phi_kn(x, y) = sum_{i,j} A^{kn}_{ij} x^{2i} y^{2j} turns the eigenvalue problem
into a closed difference equation for the A coefficients,

    2 (i+j) A^{kn}_{ij} = (2i+1)(i+1) A^{kn}_{i+1,j} + (2j+1)(j+1) A^{kn}_{i,j+1}
        + A^{k-1,n}_{i-2,j} + A^{k-1,n}_{i,j-2} + 2 A^{k-1,n}_{i-1,j-1}
        - A^{k-1,n-1}_{i-1,j-1}
        - sum_{l=1}^{k} e_{l0} A^{k-l,n}_{ij}
        - sum_{m=1}^{n} sum_{l=m}^{k} e_{lm} A^{k-l,n-m}_{ij},

with e_{lm} = A^{lm}_{10} + A^{lm}_{01} and the energy extracted as
E_kn = -(-1)^k e_{kn}.  Support: A^{kn}_{ij} = 0 for i or j above 2k-n, for
i+j above 2k (each order raises the degree in r^2 by at most two), for any
negative index, and for k < n; initialization A^{kn}_{00} = delta_{k0}
delta_{n0}.

Storage is integer and covers only the half j <= i: the potential is
symmetric under x <-> y, so A^{kn}_{ij} = A^{kn}_{ji}.  Block (k, n) is one
flat list N of Python ints over one denominator D_kn, A^{kn}_{ij} = N[p] / D_kn
with j <= i at p = off(i+j) + j, off(s) = sum_{t<s} (t//2 + 1); the entries
with i above 2k-n are stored as zeros.  Every block shares this layout, so a
block of lower order is a prefix of one of higher order.  The terms from
earlier blocks enter with one integer factor per feeding block over Q, the
lcm of their denominators: each energy term is one pass over the prefix, the
shift terms go in one antidiagonal at a time, with A_{i-2,j} read as
A_{j,i-2} where j > i-2; the l = k terms multiply A^{0,n-m}_{ij} = 0 for
i+j >= 1 and are skipped.  The block is then filled antidiagonal by
antidiagonal, s = i+j descending from 2k to 1 (A_{i,i+1} is read as
A_{i+1,i}), all over Q T with T = prod_{t=1}^{2k} 2t = 4^k (2k)! (one T per
order), so the loop does no gcd and one gcd reduces the block at the end.
An entry on antidiagonal s is 2s A_ij Q T // 2s, an exact division: A_ij Q
prod_{t=s}^{2k} 2t is an integer (by induction from s = 2k), and T is that
product times prod_{t<s} 2t.  The result A is a read-only mapping over the
blocks; A[(i, j, k, n)] is formed as a reduced Fraction only when read.

Checks: the x <-> y symmetry is built into the layout; the tests check it
against a recursion over the full (i, j) square.  The i=j=0 row is not
evaluated: its left side vanishes and A^{kn}_{00} = 0 off (k, n) = (0, 0) (the
fill stops at s = 1, the shift terms start at s = 2, the energy terms feed from
blocks k-l >= 1), so its residual e_kn - e_kn A^{00}_{00} is identically 0; the
tests check that A^{kn}_{00} vanishes.  The independent check of the n = 0
column is the isotropic radial recursion in the tests.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Dict, List, Tuple

from .series import CoefficientTable, checked_kmax

__all__ = ["BwState", "build"]


def _off(s: int) -> int:
    """Start of antidiagonal s in a block: sum_{t<s} (t//2 + 1)."""
    return (s // 2 + 1) * ((s + 1) // 2)


class _Wavefunction(Mapping):
    """A[(i, j, k, n)] = N[off(i+j) + min(i, j)] / D_kn over the blocks of build.

    Only nonzero entries are keys, in the order the blocks were filled and
    row by row over the full square; a zero, out-of-support or negative index,
    or a key that is not a 4-tuple of ints, raises KeyError.
    """

    __slots__ = ("_blocks", "_rows")

    def __init__(self, blocks: Dict[Tuple[int, int], Tuple[List[int], int]], kmax: int):
        self._blocks = blocks
        # flat position of (i, j), row i by row, shared by every block
        self._rows = [[_off(i + j) + min(i, j) for j in range(2 * kmax + 1 - i)]
                      for i in range(2 * kmax + 1)]

    def __getitem__(self, key):
        try:
            i, j, k, n = key
            N, D = self._blocks[k, n]
        except (TypeError, ValueError, KeyError):
            raise KeyError(key) from None
        if type(i) is type(j) is type(k) is type(n) is int:
            if i < j:
                i, j = j, i
            if 0 <= j and i <= 2 * k - n and i + j <= 2 * k and (x := N[_off(i + j) + j]):
                return Fraction(x, D)
        raise KeyError(key)

    def __iter__(self):
        rows = self._rows
        return ((i, j, k, n) for (k, n), (N, _) in self._blocks.items()
                for i in range(2 * k - n + 1)
                for j, x in enumerate(map(N.__getitem__, rows[i][:min(2 * k - n, 2 * k - i) + 1]))
                if x)

    def __len__(self):
        # each nonzero entry off the diagonal i = j stands for two keys
        return sum(2 * (len(N) - N.count(0)) - sum(1 for i in range(k + 1) if N[_off(2 * i) + i])
                   for (k, _), (N, _) in self._blocks.items())


@dataclass(frozen=True)
class BwState:
    """Filled recursion state: wave-function coefficients and energies.

    A maps (i, j, k, n) to the reduced Fraction A^{kn}_{ij} for every nonzero
    coefficient.  It is a read-only Mapping, not a dict: each value is formed
    from the recursion's integer blocks when it is read.
    """

    A: Mapping[Tuple[int, int, int, int], Fraction]
    energy: CoefficientTable  # (k, n) -> E_kn


def build(kmax: int) -> BwState:
    """Run the recursion through order kmax; pure exact arithmetic."""
    kmax = checked_kmax(kmax)
    blocks = {(0, 0): ([1], 1)}  # (k, n) -> (flat lower half N, D_kn)
    e: Dict[Tuple[int, int], Fraction] = {}
    energies: Dict[Tuple[int, int], Fraction] = {(0, 0): Fraction(1)}
    C = [(2 * i + 1) * (i + 1) for i in range(2 * kmax + 1)]
    for k in range(1, kmax + 1):
        zeros = ([0] * _off(2 * k - 1), 1)  # stands in for a shift block k < n or n < 0
        T = math.factorial(2 * k) << (2 * k)  # M[off(s) + j] becomes A_ij * Q * T
        for n in range(k + 1):
            # energy terms: (numerator, denominator, feeding block)
            feed = [(-v.numerator, v.denominator, (k - l, n - m))
                    for (l, m), v in e.items() if l < k and 0 <= n - m <= k - l]
            (N1, D1), (N2, D2) = blocks.get((k - 1, n), zeros), blocks.get((k - 1, n - 1), zeros)
            Q = math.lcm(D1, D2, *(d * blocks[src][1] for _, d, src in feed))
            M = [0] * _off(2 * k + 2)  # Q * external terms; antidiagonal 2k+1 stays zero
            for c, d, src in feed:
                N, D = blocks[src]
                M[:len(N)] = map(add, M, map((c * (Q // (d * D))).__mul__, N))
            f1, f2 = Q // D1, Q // D2
            # A_{i-2,j} + A_{i,j-2} + 2 A_{i-1,j-1} - A^{k-1,n-1}_{i-1,j-1} on antidiagonal
            # t + 2 from t; at j = h, A_{i-2,j} is read as A_{j,i-2} (zero where t < h)
            for t in range(2 * k - 1):
                o, h, o2 = _off(t), t // 2 + 1, _off(t + 2)
                x, w = N1[o:o + h], N2[o:o + h]
                a = x + [x[t - h] if t >= h else 0]
                M[o2:o2 + h + 1] = [m + f1 * (p + q + 2 * r) - f2 * v for m, p, q, r, v in
                                    zip(M[o2:o2 + h + 1], a, [0, 0] + x, [0] + x, [0] + w)]
            for s in range(2 * k, 0, -1):
                o, o1, lo, hi = _off(s), _off(s + 1), max(0, s - 2 * k + n), s // 2
                R = M[o1:o1 + (s + 1) // 2 + 1]  # antidiagonal s+1
                if s % 2 == 0:
                    R.append(R[-1])  # A_{i,i+1} = A_{i+1,i} on the diagonal
                M[o + lo:o + hi + 1] = [(m * T + C[s - j] * R[j] + C[j] * R[j + 1]) // (2 * s)
                                        for j, m in zip(range(lo, hi + 1), M[o + lo:o + hi + 1])]
            g = math.gcd(Q * T, *M)
            N = [x // g for x in M[:_off(2 * k + 1)]]
            D = Q * T // g
            e[k, n] = e_kn = Fraction(2 * N[1], D)  # A_10 + A_01
            blocks[k, n] = N, D
            energies[k, n] = -((-1) ** k) * e_kn
    return BwState(A=_Wavefunction(blocks, kmax), energy=CoefficientTable(energies, kmax))
