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

Storage is integer: block (k, n) is a list of rows of Python ints N[i][j]
(row i ends at j = min(2k-n, 2k-i)) over one denominator D_kn, so that
A^{kn}_{ij} = N[i][j] / D_kn.  The terms from earlier blocks enter with one
integer factor per feeding block over Q, the lcm of their denominators; the
l = k terms multiply A^{0,n-m}_{ij} = 0 for i+j >= 1 and are skipped.  The
block is then filled with the total degree s = i+j descending from 2k to 1,
each entry carried over Q T_s with T_s = prod_{t=s}^{2k} 2t, so the loop
does no gcd; one gcd over the whole block reduces it at the end.  The
result A is a read-only mapping over these blocks: A[(i, j, k, n)] forms the
reduced Fraction N[i][j] / D_kn only when it is read.

Checks: the x <-> y symmetry N[i][j] == N[j][i] of the potential is
asserted over every whole block.  The i=j=0 equation has a vanishing left
side, and since A^{kn}_{00} = 0 for (k, n) != (0, 0) its residual is
e_kn - e_kn: it restates the definition of e_kn.  It is asserted to be
exactly zero all the same.  The independent check of the n = 0 column is
the isotropic radial recursion in the tests.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from .series import CoefficientTable

__all__ = ["BwState", "build"]


class _Wavefunction(Mapping):
    """A[(i, j, k, n)] = N[i][j] / D_kn over the integer blocks of build.

    Only nonzero entries are keys, in the order the blocks were filled and
    row by row; a zero, out-of-support or negative index raises KeyError.
    """

    __slots__ = ("_blocks", "_len")

    def __init__(self, blocks: Dict[Tuple[int, int], Tuple[List[List[int]], int]]):
        self._blocks = blocks
        self._len = None

    def __getitem__(self, key):
        i, j, k, n = key
        rows, D = self._blocks.get((k, n), ((), 1))
        if 0 <= i < len(rows) and 0 <= j < len(rows[i]) and rows[i][j]:
            return Fraction(rows[i][j], D)
        raise KeyError(key)

    def __iter__(self):
        return ((i, j, k, n) for (k, n), (rows, _) in self._blocks.items()
                for i, row in enumerate(rows) for j, x in enumerate(row) if x)

    def __len__(self):
        if self._len is None:  # counted on first use
            self._len = sum(1 for _ in self)
        return self._len


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
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    blocks = {(0, 0): ([[1]], 1)}  # (k, n) -> (rows N, D_kn)
    e: Dict[Tuple[int, int], Fraction] = {}
    energies: Dict[Tuple[int, int], Fraction] = {(0, 0): Fraction(1)}
    for k in range(1, kmax + 1):
        for n in range(k + 1):
            lim = 2 * k - n
            # feeding blocks: (numerator, denominator, block, row shift, column shift)
            feed = [(-v.numerator, v.denominator, (k - l, n - m), 0, 0)
                    for (l, m), v in e.items() if l < k and 0 <= n - m <= k - l]
            if n < k:
                feed += [(c, 1, (k - 1, n), di, dj)
                         for c, di, dj in ((1, 2, 0), (1, 0, 2), (2, 1, 1))]
            if n:
                feed.append((-1, 1, (k - 1, n - 1), 1, 1))
            Q = math.lcm(*(d * blocks[src][1] for _, d, src, _, _ in feed))
            M = [[0] * (lim + 2) for _ in range(lim + 2)]  # Q * external terms, zero-padded
            for c, d, src, di, dj in feed:
                rows, D = blocks[src]
                f = c * (Q // (d * D))
                for i, row in enumerate(rows, di):
                    t = M[i]
                    t[dj:dj + len(row)] = [x + f * y for x, y in zip(t[dj:], row)]
            T = 1  # T_{s+1}; M[i][j] becomes A_ij * Q * T_s
            for s in range(2 * k, 0, -1):
                for i in range(min(lim, s), max(0, s - lim) - 1, -1):
                    j, r = s - i, M[i]
                    r[j] = (r[j] * T + (2 * i + 1) * (i + 1) * M[i + 1][j]
                            + (2 * j + 1) * (j + 1) * r[j + 1])
                T *= 2 * s
            scale = [1, 1]  # T_1 / T_s
            for s in range(1, 2 * k):
                scale.append(scale[-1] * 2 * s)
            N = [[M[i][j] * scale[i + j] for j in range(min(lim, 2 * k - i) + 1)]
                 for i in range(lim + 1)]
            del M
            g = math.gcd(Q * T, *(x for row in N for x in row))
            N = [[x // g for x in row] for row in N]
            D = Q * T // g
            assert all(x == N[j][i] for i, row in enumerate(N) for j, x in enumerate(row)), \
                f"A not symmetric at (k,n)=({k},{n})"
            e[k, n] = e_kn = Fraction(N[1][0] + N[0][1], D)
            residual = e_kn  # the i = j = 0 row, see the module docstring
            for (l, m), v in e.items():
                rows, d = blocks.get((k - l, n - m), ([[0]], 1))
                if rows[0][0]:
                    residual -= v * Fraction(rows[0][0], d)
            assert residual == 0, f"i=j=0 identity violated at (k,n)=({k},{n})"
            blocks[k, n] = N, D
            energies[k, n] = -((-1) ** k) * e_kn
    return BwState(A=_Wavefunction(blocks), energy=CoefficientTable(energies, kmax))
