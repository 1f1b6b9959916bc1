import hashlib
import importlib.util
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from anires import benderwu, benderwu_build

from fixtures_tables import TABLE1_EXACT


class TestAgainstReferenceTable:
    def test_low_orders(self, bw_state):
        e = bw_state.energy
        assert e.entry(0, 0) == 1
        assert e.entry(1, 0) == 2
        assert e.entry(1, 1) == Fraction(-1, 4)

    def test_spot_values(self, bw_state):
        e = bw_state.energy
        assert e.entry(4, 3) == Fraction(2465, 128)
        assert e.entry(7, 6) == Fraction(4423646695, 1769472)
        assert e.entry(12, 12) == Fraction(
            -52920213881686076606297, 35224100536320000
        )

    def test_all_91_entries_exact(self, bw_state):
        for (k, n), expected in TABLE1_EXACT.items():
            assert bw_state.energy.entry(k, n) == expected, (k, n)
        assert len(bw_state.energy) == 91


class TestStructure:
    def test_sign_alternation(self, bw_state):
        # E_kn = (-1)^{k+n+1} |E_kn| for k >= 1; alternates in k at fixed n
        for (k, n), v in bw_state.energy.items():
            if k == 0:
                continue
            expected = 1 if (k + n + 1) % 2 == 0 else -1
            assert (1 if v > 0 else -1) == expected, (k, n)

    def test_support_bound(self, bw_state):
        # stored wave-function coefficients respect i, j <= 2k - n
        for (i, j, k, n), v in bw_state.A.items():
            assert v != 0
            assert 0 <= i <= 2 * k - n and 0 <= j <= 2 * k - n
            assert n <= k

    def test_storage_growth_polynomial(self):
        # number of stored entries grows like k^3 per order, not worse
        counts = []
        for kmax in (4, 8):
            state = benderwu_build(kmax)
            counts.append(len(state.A))
        assert counts[1] <= counts[0] * (8 / 4) ** 4  # comfortably cubic-ish

    def test_large_order_ratio_diagnostic(self, bw_state):
        # |E_{k+1,0} / E_{k,0}| ~ 3 (k+1) with a ~0.7/k deviation envelope
        # (exact Table-1 arithmetic: 0.084, 0.067, 0.054, 0.043 for k = 8..11)
        e = bw_state.energy
        devs = []
        for k in range(8, 12):
            ratio = e.entry(k + 1, 0) / e.entry(k, 0)
            assert ratio < 0  # alternation
            deviation = abs(abs(ratio) / (3.0 * (k + 1)) - 1.0)
            assert deviation <= 0.7 / k, (k, deviation)
            devs.append(deviation)
        assert all(a > b for a, b in zip(devs, devs[1:]))  # shrinks ~1/k
        assert devs[-1] == pytest.approx(0.043, abs=1e-3)  # k = 11

    def test_k11_ratio_value(self, bw_state):
        e = bw_state.energy
        ratio = abs(e.entry(12, 0) / e.entry(11, 0))
        assert ratio == pytest.approx(37.546, abs=5e-4)


class TestEnergySeries:
    def test_first_order_gaussian_moment_oracle(self, bw_state):
        # <V> in the product ground state: <x^4> = 3/4, <x^2 y^2> = 1/4
        # so E(g, d) = 1 + (g/4)(2 - d/2) + O(g^2): E_10 = 2, E_11 = -1/4
        table = bw_state.energy
        x4 = Fraction(3, 4)
        x2y2 = Fraction(1, 4)
        # potential (g/4)[x^4 + 2(1-d) x^2 y^2 + y^4]: coefficient of (g/4):
        # 2*x4 + 2*x2y2 - 2d*x2y2 = 2 - d/2 = E_10 + 2d E_11
        assert table.entry(1, 0) == 2 * x4 + 2 * x2y2
        assert 2 * table.entry(1, 1) == -2 * x2y2

    def test_second_order_against_diagonalization(self, bw_state):
        # finite difference in gbar of a 30x30 product-basis diagonalization
        # at d=0 isolates E_20 (g/4)^2; expect -9 within 5%
        nmax = 30
        x = np.zeros((nmax, nmax))
        for i in range(nmax - 1):
            x[i, i + 1] = x[i + 1, i] = math.sqrt((i + 1) / 2.0)
        x2 = x @ x
        x4 = x2 @ x2
        ident = np.eye(nmax)
        h0 = np.diag(np.arange(nmax) + 0.5)

        def ground(gbar):
            h = np.kron(h0, ident) + np.kron(ident, h0)
            h = h + gbar * (np.kron(x4, ident) + np.kron(ident, x4) + 2.0 * np.kron(x2, x2))
            return np.linalg.eigvalsh(h)[0]

        gbar = 2.5e-5
        second = (ground(2 * gbar) - 2 * ground(gbar) + 1.0) / gbar**2
        e20 = second / 2.0
        assert abs(e20 - float(bw_state.energy.entry(2, 0))) <= 0.05 * 9.0
        assert bw_state.energy.entry(2, 0) == -9

    def test_series_evaluation_low_order(self, bw_state):
        # E = 1 + 2 (g/4) - (1/4)(g/4)(2d) + O(g^2)
        from paper_formulas import truncated_double_sum

        val = truncated_double_sum(bw_state.energy, Fraction(1, 100), Fraction(1, 10), 1)
        assert val == 1 + 2 * Fraction(1, 100) - Fraction(1, 4) * Fraction(1, 100) * Fraction(1, 10)


def test_build_runtime_budget(bw_state):
    import time

    start = time.perf_counter()
    benderwu_build(12)
    assert time.perf_counter() - start <= 10.0


def test_kmax_zero():
    state = benderwu_build(0)
    assert state.energy.entry(0, 0) == 1
    assert len(state.energy) == 1


@pytest.mark.parametrize("kmax", [2.5, None, "3", Fraction(3)])
def test_kmax_not_an_int_is_named(kmax):
    with pytest.raises(TypeError, match="kmax must be an int"):
        benderwu_build(kmax)


def test_kmax_by_index_protocol():
    # any integer type is taken by its index; a negative order stays a ValueError
    assert benderwu_build(np.int64(3)).energy.items() == benderwu_build(3).energy.items()
    with pytest.raises(ValueError, match="kmax must be >= 0"):
        benderwu_build(-1)


def test_full_square_recursion_oracle():
    # the difference equation in plain Fractions over every (i, j), no half
    # block and no support bound: x <-> y symmetric, and equal to build key
    # for key and value (every block is independent of kmax, so 8 covers 0..8)
    from paper_formulas import bender_wu_wavefunction

    A, E = bender_wu_wavefunction(8)
    assert all(A.get((j, i, k, n)) == v for (i, j, k, n), v in A.items())
    state = benderwu_build(8)
    assert set(state.A) == set(A) and len(state.A) == len(A) == 3061
    assert all(state.A[key] == v for key, v in A.items())
    assert dict(state.energy.items()) == E


def isotropic_energies(kmax):
    """E_k0 from the radial problem of the isotropic oscillator (d = 0).

    With u = r^2 and Psi = exp(-u/2) sum_k (g/4)^k P_k(u), P_k = sum_i c^k_i u^i,
    P_0 = 1 and c^k_0 = 0 for k >= 1, the order-k equation reads
    2i c^k_i = 2(i+1)^2 c^k_{i+1} - c^{k-1}_{i-2} + sum_{l=1}^{k-1} eps_l c^{k-l}_i
    for i >= 1, and its i = 0 row gives eps_k = -2 c^k_1 = E_k0.
    """
    c = [[Fraction(1)]]
    eps = [Fraction(1)]

    def coeff(k, i):
        return c[k][i] if 0 <= i < len(c[k]) else 0

    for k in range(1, kmax + 1):
        ck = [Fraction(0)] * (2 * k + 2)
        for i in range(2 * k, 0, -1):
            rhs = 2 * (i + 1) ** 2 * ck[i + 1] - coeff(k - 1, i - 2)
            rhs += sum(eps[l] * coeff(k - l, i) for l in range(1, k))
            ck[i] = rhs / (2 * i)
        c.append(ck[:-1])
        eps.append(-2 * ck[1])
    return eps


def test_isotropic_column_against_radial_recursion(bw_state_20):
    # independent of the two-dimensional recursion: only the r^2 polynomial
    for k, expected in enumerate(isotropic_energies(20)):
        assert bw_state_20.energy.entry(k, 0) == expected, k


def test_hellmann_feynman_n1_column(bw_state_20):
    # at d = 0, dE/d(2d) = -gbar <x^2 y^2> = -(gbar/8) <r^4> = -(gbar/8) dE/dgbar,
    # since the angular mean of cos^2 sin^2 is 1/8: E_k1 = -(k/8) E_k0 exactly
    e = bw_state_20.energy
    for k in range(21):
        assert e.entry(k, 1) == -Fraction(k, 8) * e.entry(k, 0), k


def test_zero_outside_the_support(bw_state):
    # the packed fill computes every slot of an antidiagonal, also those with
    # i above 2k - n, and relies on the support theorem that makes them zero
    outside = [(k, n, N[benderwu._off(i + j) + j]) for (k, n), (N, _) in bw_state.A._blocks.items()
               for i in range(2 * k + 1) for j in range(min(i, 2 * k - i) + 1) if i > 2 * k - n]
    assert len(outside) == 1365
    assert [(k, n) for k, n, x in outside if x] == []


def test_one_decode_per_order_and_one_product_per_energy_term(monkeypatch):
    # order k packs e_l(2^B) and A^{k-l}(2^B) and feeds k - 1 products per
    # position, one call per l, and decodes its positions once
    events = []
    decode, feed = benderwu._decode, benderwu._feed
    monkeypatch.setattr(benderwu, "_decode", lambda *args: events.append("|") or decode(*args))
    monkeypatch.setattr(benderwu, "_feed", lambda *args: events.append("*") or feed(*args))
    benderwu_build(9)
    assert "".join(events).split("|") == ["*" * (k - 1) for k in range(1, 10)] + [""]


@pytest.mark.parametrize("narrow", [lambda width: min(width, 256), lambda width: max(8, width - 8)],
                         ids=["capped-at-256-bits", "one-byte-short"])
def test_too_narrow_a_slot_is_never_decoded(monkeypatch, narrow):
    # the decoder checks each slot width against the bound it was chosen from:
    # a width rule that leaves a slot too little room makes build raise before
    # any slot is read, instead of returning a table with a carried-over slot
    width = benderwu._width
    monkeypatch.setattr(benderwu, "_width", lambda bound: narrow(width(bound)))
    with pytest.raises(OverflowError, match="slots cannot hold"):
        benderwu_build(20)


def test_kmax20_table_pinned(bw_state_20):
    # digest of the kmax-20 energy table and size of A, recorded from the
    # Fraction-dict recursion that the integer-block recursion replaced
    lines = "".join(f"{k},{n},{v.numerator},{v.denominator}\n"
                    for (k, n), v in bw_state_20.energy.items())
    assert hashlib.sha256(lines.encode()).hexdigest() == (
        "b46dcc490d3c4b870d84b08d08d0fbe8f7ed06d6b8f7e0baafa91cd69d515038")
    assert len(bw_state_20.A) == 85471


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def wavefunction_digest(A):
    # the benchmark's digest of A, loaded from its file (perfbench is no package)
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.wavefunction_digest(A)


class TestWavefunctionView:
    # A is a read-only Mapping over the integer blocks; each value is formed when read

    @pytest.mark.parametrize("K", [12, 13, 15])
    def test_digest_matches_benchmark_reference(self, bw_state, K):
        # the benderwu.A:K references, recorded from the eager Fraction dict and
        # read here as they are; K = 15 has the largest denominator 4^k (2k)! of them
        refs = json.loads((PERFBENCH / "reference" / "exact.json").read_text())
        state = bw_state if K == 12 else benderwu_build(K)
        assert wavefunction_digest(state.A) == refs[f"benderwu.A:{K}"]

    def test_size_and_ground_entry(self, bw_state):
        A = bw_state.A
        assert len(A) == len(list(A)) == 12923
        assert A[(0, 0, 0, 0)] == 1

    def test_ground_entry_only_at_order_zero(self, bw_state):
        # build leaves the i = j = 0 row unevaluated: its residual e_kn - e_kn A^{00}_{00}
        # vanishes because A^{kn}_{00} = 0 for every other (k, n)
        A = bw_state.A
        assert A[(0, 0, 0, 0)] == 1
        assert [(k, n) for k in range(13) for n in range(k + 1) if (0, 0, k, n) in A] == [(0, 0)]

    @pytest.mark.parametrize("key", [
        (0, 0, 1, 0),  # A^{kn}_00 = 0 off (0, 0): stored, but zero
        (6, 0, 3, 1), (0, 6, 3, 1),  # i or j past 2k - n = 5
        (3, 3, 2, 0),  # i + j past 2k
        (-1, 0, 3, 1), (0, -1, 3, 1), (0, 0, -1, 0),  # negative indices
        (0, 0, 1, 2), (0, 0, 13, 0),  # k < n, k past kmax
        "x", "abcd", 5, None, (0, 0, 0), (0, 0, 0, 0, 0),  # not a 4-tuple of ints
        (0.0, 0, 0, 0), (1, 0, 1, 0.5), ("0", 0, 0, 0), ([0], 0, 0, 0),
    ])
    def test_missing_keys_raise(self, bw_state, key):
        A = bw_state.A
        with pytest.raises(KeyError):
            A[key]
        assert key not in A and A.get(key) is None

    def test_key_order(self, bw_state):
        # blocks in the order they are filled (k, then n), each row by row
        keys = list(bw_state.A)
        assert keys == sorted(keys, key=lambda key: (key[2], key[3], key[0], key[1]))

    def test_stores_only_the_lower_half(self, bw_state):
        # the x <-> y symmetric half of each block, i >= j, as Python ints:
        # sum_k (k+1)^3 = 8,281 at kmax 12 (13,013 with both halves)
        def ints(x):
            return 1 if type(x) is int else sum(map(ints, x))

        assert sum(ints(N) for N, _ in bw_state.A._blocks.values()) <= 8300

    def test_read_only(self, bw_state):
        A = bw_state.A
        with pytest.raises(TypeError):
            A[(0, 0, 0, 0)] = Fraction(2)
        with pytest.raises(TypeError):
            del A[(0, 0, 0, 0)]
        assert A[(0, 0, 0, 0)] == 1
