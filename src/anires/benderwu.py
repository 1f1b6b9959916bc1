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
flat list N of Python ints over one denominator D_k shared by every n of order
k, A^{kn}_{ij} = N[p] / D_k with j <= i at p = off(i+j) + j, off(s) =
sum_{t<s} (t//2 + 1); the entries with i above 2k-n are stored as zeros.
Every block shares this layout, so a block of lower order is a prefix of one
of higher order.

Packed evaluation.  The index n is the power of z = 2d, so each position
of order k holds the polynomial A^k_ij(z) = sum_n A^{kn}_{ij} z^n, and the
recursion above is one recursion in z: the shift terms carry
(2 - z) A^{k-1}_{i-1,j-1}, and the energy terms are sum_{l<k} e_l(z)
A^{k-l}_{ij}(z) with e_l(z) = sum_m e_{lm} z^m (the l = k term multiplies
A^0_{ij} = 0 for i+j >= 1).  No product has degree above k in z.  Setting
z = 2^B (Kronecker substitution) turns a position into one integer
sum_n N_n 2^{Bn}, with one B-bit slot per n.  Order k then runs over Q, the
lcm of D_{k-1} and the products D_l D_{k-l}, 0 < l < k:
  - the energy terms are one packed product per l and position, of
    -e_l(2^B) Q / (D_l D_{k-l}) and A^{k-l}(2^B);
  - the shift terms add f (p + q + 2r) - f (r << B), f = Q / D_{k-1}, once
    per antidiagonal;
  - the block moves to the fill's wider slots and is filled antidiagonal by
    antidiagonal, s = i+j descending from 2k to 1 (A_{i,i+1} is read as
    A_{i+1,i}), all over Q T with T = prod_{t=1}^{2k} 2t = 4^k (2k)!.
An entry on antidiagonal s is 2s A_ij Q T // 2s, an exact division:
A_ij Q prod_{t=s}^{2k} 2t is an integer (by induction from s = 2k), and T is
that product times prod_{t<s} 2t.  The packed fill computes every slot of an
antidiagonal, also those with i above 2k-n, which the support makes zero.
Each order is decoded once into its (k, n) lists, reduced by one gcd, and
kept as bytes of its own slot width to be packed again at later orders.

Exactness.  Packing evaluates integer polynomials at 2^B, so the sums,
products, shifts and exact divisions are exact whatever the slot values.
Only decoding can go wrong: a slot that reaches 2^(B-1) decodes to a small
wrong value plus a carry into the next slot, and nothing in the decoded
values shows it.  So every width comes from a bound on the slots, one per
antidiagonal, built before any packed work from the decoded magnitudes of
the operands.  The energy terms on antidiagonal t contribute, per l, the
number of terms of a slot times Q / (D_l D_{k-l}) times the largest
|N^{lm}_{10}| times the largest |N| of order k-l on t; the shift terms add
5 f times the largest |N| of order k-1 on t - 2.  The fill's bound follows
s down from 2k as (bound_s T + (C_s + 1) fill_{s+1}) // 2s with
C_s = (2s+1)(s+1).  The width is the bound's bit length plus one, rounded up
to whole bytes; the decoder checks it against the bound and raises
OverflowError if a slot could have overflowed, so no value is ever read from
an overflowed slot.

The result A is a read-only mapping over the blocks; A[(i, j, k, n)] is
formed as a reduced Fraction only when read.

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
from itertools import chain, repeat
from operator import add, floordiv, getitem, sub
from typing import Dict, List, Tuple

from .series import CoefficientTable, checked_kmax

__all__ = ["BwState", "build"]


def _off(s: int) -> int:
    """Start of antidiagonal s in a block: sum_{t<s} (t//2 + 1)."""
    return (s // 2 + 1) * ((s + 1) // 2)


def _width(bound: int) -> int:
    """Slot width B in bits, a multiple of 8, with bound < 2^(B-1)."""
    return bound.bit_length() // 8 * 8 + 8


def _ones(nslots: int, B: int) -> int:
    """sum_{n<nslots} 2^(Bn): a 1 in each of nslots B-bit slots."""
    return int.from_bytes(b"\1".ljust(B // 8, b"\0") * nslots, "little")


def _digits(cols: List[List[int]], B: int) -> bytes:
    """The B-bit digits N_n + 2^(B-1) of the columns, little-endian, position by position."""
    values = map(add, chain.from_iterable(zip(*cols)), repeat(1 << (B - 1)))
    return b"".join(map(int.to_bytes, values, repeat(B // 8), repeat("little")))


def _pack(digits: bytes, nslots: int, b: int, B: int) -> List[int]:
    """Per position sum_n N_n 2^(Bn), from the b-bit digits of N_n (B >= b)."""
    nb, NB = b // 8, B // 8
    if NB > nb:  # each digit to the low end of a B-bit slot, zeros above it
        wide = bytearray(len(digits) // nb * NB)
        for r in range(nb):
            wide[r::NB] = digits[r::nb]
        digits = wide
    ends = range(nslots * NB, len(digits) + 1, nslots * NB)
    rows = map(memoryview(digits).__getitem__, map(slice, range(0, len(digits), nslots * NB), ends))
    return list(map(sub, map(int.from_bytes, rows, repeat("little")),
                    repeat((1 << (b - 1)) * _ones(nslots, B))))


def _unpack(X: List[int], nslots: int, B: int, bound: int) -> List[bytes]:
    """Per position the B-bit digits of X = sum_n N_n 2^(Bn), every |N_n| at most bound."""
    if bound >> (B - 1):
        raise OverflowError(f"{B}-bit slots cannot hold values up to {bound}")
    return list(map(int.to_bytes, map(add, X, repeat((1 << (B - 1)) * _ones(nslots, B))),
                    repeat(B // 8 * nslots), repeat("little")))


def _decode(X: List[int], nslots: int, B: int, bound: int) -> List[List[int]]:
    """The columns N_n of positions X = sum_n N_n 2^(Bn), every |N_n| at most bound."""
    rows, nb, h = _unpack(X, nslots, B, bound), B // 8, 1 << (B - 1)
    slots = (map(getitem, rows, repeat(slice(n * nb, n * nb + nb))) for n in range(nslots))
    return [list(map(sub, map(int.from_bytes, col, repeat("little")), repeat(h))) for col in slots]


def _feed(M: List[int], c: int, V: List[int]) -> None:
    """M[p] += c V[p] over the positions of V: one packed product each."""
    M[:len(V)] = map(add, M, map(c.__mul__, V))


class _Wavefunction(Mapping):
    """A[(i, j, k, n)] = N[off(i+j) + min(i, j)] / D_k over the blocks of build.

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
    C = [(2 * i + 1) * (i + 1) for i in range(2 * kmax + 1)]
    energies = {(0, 0): Fraction(1)}
    # per order: the n columns, D_k, the largest |N| per antidiagonal, and the
    # columns as digits of their own width (order 0 is never packed)
    cols, dens, tops, digits = [[[1]]], [1], [[1]], [None]
    for k in range(1, kmax + 1):
        Q = math.lcm(dens[k - 1], *(dens[l] * dens[k - l] for l in range(1, k)))
        T = math.factorial(2 * k) << (2 * k)  # M[off(s) + j] becomes A_ij * Q * T
        f = Q // dens[k - 1]
        # e_l A^{k-l} over Q is the column N^l_1 times scale[l] times A^{k-l}'s columns
        scale = [0] + [2 * Q // (dens[l] * dens[k - l]) for l in range(1, k)]
        # |slot| bounds per antidiagonal: of the external terms (a slot of e_l A^{k-l}
        # sums at most min(l, k-l) + 1 products; the shift terms read 5 values of
        # order k-1), then of the fill; B and B2 are their slot widths
        bound = [sum((min(l, k - l) + 1) * scale[l] * tops[l][1] * tops[k - l][t]
                     for l in range(1, k) if t <= 2 * (k - l))
                 + (5 * f * tops[k - 1][t - 2] if t >= 2 else 0) for t in range(2 * k + 1)]
        fill = [0] * (2 * k + 2)
        for s in range(2 * k, 0, -1):
            fill[s] = (bound[s] * T + (C[s] + 1) * fill[s + 1]) // (2 * s)
        B, B2 = _width(max(bound)), _width(max(fill))

        M = [0] * _off(2 * k + 2)  # Q * external terms; antidiagonal 2k+1 stays zero
        V = [1]  # order 0 packed at any width
        for j in range(1, k):  # order j = k - l feeds -e_l(z) A^j(z)
            V = _pack(*digits[j], B)
            e = sum(N[1] << (B * m) for m, N in enumerate(cols[k - j]))
            _feed(M, -scale[k - j] * e, V)
        # V is order k-1: A_{i-2,j} + A_{i,j-2} + (2 - z) A_{i-1,j-1} on antidiagonal t + 2
        # from t; at j = h, A_{i-2,j} is read as A_{j,i-2} (zero where t < h)
        for t in range(2 * k - 1):
            o, h, o2 = _off(t), t // 2 + 1, _off(t + 2)
            x = V[o:o + h]
            a = x + [x[t - h] if t >= h else 0]
            M[o2:o2 + h + 1] = [m + f * (p + q + 2 * r - (r << B)) for m, p, q, r in
                                zip(M[o2:o2 + h + 1], a, [0, 0] + x, [0] + x)]
        M = _pack(b"".join(_unpack(M, k + 1, B, max(bound))), k + 1, B, B2)
        for s in range(2 * k, 0, -1):
            o, o1 = _off(s), _off(s + 1)
            R = M[o1:o1 + (s + 1) // 2 + 1]  # antidiagonal s+1
            if s % 2 == 0:
                R.append(R[-1])  # A_{i,i+1} = A_{i+1,i} on the diagonal
            M[o:o1] = [(m * T + C[s - j] * R[j] + C[j] * R[j + 1]) // (2 * s)
                       for j, m in enumerate(M[o:o1])]
        order = _decode(M[:_off(2 * k + 1)], k + 1, B2, max(fill))
        g = math.gcd(Q * T, *chain.from_iterable(order))
        order = [list(map(floordiv, N, repeat(g))) for N in order]
        cols.append(order)
        dens.append(Q * T // g)
        top = list(map(max, *(map(abs, N) for N in order)))  # per position, over n
        tops.append([max(top[_off(t):_off(t + 1)]) for t in range(2 * k + 1)])
        b = _width(max(tops[k]))
        digits.append((_digits(order, b), k + 1, b))
        for n, N in enumerate(order):
            energies[k, n] = -((-1) ** k) * Fraction(2 * N[1], dens[k])  # e_kn = A_10 + A_01
    blocks = {(k, n): (N, D) for k, (order, D) in enumerate(zip(cols, dens))
              for n, N in enumerate(order)}
    return BwState(A=_Wavefunction(blocks, kmax), energy=CoefficientTable(energies, kmax))
