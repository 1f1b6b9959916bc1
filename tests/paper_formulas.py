"""The paper's closed forms that no command evaluates: the test oracle.

Large-order laws, imaginary parts on the negative-coupling cut and the
strong-coupling prefactor of the model integral and of the oscillator.  The
runtime reads only ``LargeOrderParams`` (sigma, b0 offset, alpha); these
formulas are what the tests check those constants and the exact tables
against.  The variational energy W_k summed term by term over the
reexpansion coefficients eps_l, as the paper writes it, is what the tests
check the regrouped ``anires.vpt.w_laurent`` against.  The Bender-Wu
difference equation of the ``anires.benderwu`` docstring, solved over the full
(i, j) square in plain Fractions, is what the tests check the half-block
recursion and its x <-> y symmetry against.  The Borel t-integral of the
``anires.borel`` docstring, its logarithm summed term by term as written, is
what the tests check the regrouped ``basis_integral_tform`` against.  The
power series of each I_p, term by term from its hypergeometric ratio
(``_basis_series``), is what the tests check the exact triangle's inverse
against, and the reexpansion check summed over it in plain Fractions is what
the tests check the integer sums of ``reexpansion_check`` against.
Conventions follow ``anires.model`` (Z = sum Z_kn g^k d^n) and ``anires.qm``
(E = sum E_kn (g/4)^k (2d)^n).
"""

import math
from fractions import Fraction
from itertools import count

from anires import SignedLog, generalized_binomial, integrate_semiline, z_coeff


def large_order_estimate(params, gamma, k, n, gamma_form=False):
    """Leading large-order estimate of c_kn, with beta(n) = n + b0_offset - 3/2:

    c_kn ~ gamma (-sigma)^k k! k^{beta(n)}, or, with ``gamma_form``,
    c_kn ~ gamma (-sigma)^k Gamma(k + beta(n) + 1), the form the dispersion
    integral over the leading imaginary part produces (the two differ by O(1/k)).
    """
    if k < 1:
        raise ValueError("requires k >= 1")
    beta = n + float(params.b0_offset) - 1.5
    ln_abs = math.log(abs(gamma)) + k * math.log(float(params.sigma))
    if gamma_form:
        ln_abs += math.lgamma(k + beta + 1.0)
    else:
        ln_abs += math.lgamma(k + 1.0) + beta * math.log(k)
    return SignedLog((1 if gamma > 0 else -1) * (-1) ** k, ln_abs)


def truncated_double_sum(table, g, delta, K):
    """sum_{k<=K} sum_{n<=k} c_kn g^k d^n in exact arithmetic; a float if g or
    d is a float (converted exactly first)."""
    gq, dq = Fraction(g), Fraction(delta)
    total = sum(sum(table.entry(k, n) * dq**n for n in range(k + 1)) * gq**k
                for k in range(K + 1))
    return float(total) if isinstance(g, float) or isinstance(delta, float) else total


def bender_wu_wavefunction(kmax):
    """A[(i, j, k, n)] for every nonzero A^{kn}_{ij} with k <= kmax, and the
    energies E[(k, n)], from the difference equation of ``anires.benderwu``
    taken as written, over every 0 <= i, j with i + j <= 2k (no support bound).

    The l = k energy terms multiply A^{0,n-m}_{ij} = 0 for i + j >= 1.
    """
    A = {(0, 0, 0, 0): Fraction(1)}
    e = {}

    def a(i, j, k, n):
        return A.get((i, j, k, n), 0)

    for k in range(1, kmax + 1):
        for n in range(k + 1):
            for s in range(2 * k, 0, -1):
                for i in range(s + 1):
                    j = s - i
                    rhs = ((2 * i + 1) * (i + 1) * a(i + 1, j, k, n)
                           + (2 * j + 1) * (j + 1) * a(i, j + 1, k, n)
                           + a(i - 2, j, k - 1, n) + a(i, j - 2, k - 1, n)
                           + 2 * a(i - 1, j - 1, k - 1, n) - a(i - 1, j - 1, k - 1, n - 1))
                    rhs -= sum(e[l, 0] * a(i, j, k - l, n) for l in range(1, k))
                    rhs -= sum(e[l, m] * a(i, j, k - l, n - m)
                               for m in range(1, n + 1) for l in range(m, k))
                    if rhs:
                        A[i, j, k, n] = rhs / (2 * s)
            e[k, n] = a(1, 0, k, n) + a(0, 1, k, n)
    E = {(k, n): -((-1) ** k) * v for (k, n), v in e.items()}
    E[0, 0] = Fraction(1)
    return A, E


def _cut_sum(prefactor, u, offset, delta, n_max):
    """sum_n (-d)^n prefactor(n) u^{n+offset} e^{-u}; 0 once e^{-u} underflows."""
    if u > 700.0:
        return 0.0
    return math.exp(-u) * sum((-delta) ** n * prefactor(n) * u ** (n + offset)
                              for n in range(n_max + 1))


# ---------------------------------------------------------------- model integral


def z_coeff_delta(k, delta):
    """Exact Z_k(d) = sum_{n<=k} Z_kn d^n for rational d."""
    return sum((z_coeff(k, n) * Fraction(delta) ** n for n in range(k + 1)), Fraction(0))


def strong_coupling_kappa(delta, terms):
    r"""Partial sum of kappa(d) = (sqrt(pi)/2) sum_n ((2n)!)^2 / ((n!)^4 2^{5n}) d^n,
    the prefactor of Z -> kappa(d) g^{-1/2}, and a geometric estimate of the
    remainder after ``terms`` terms.  The series converges for |d| < 2 only.
    """
    if not abs(delta) < 2.0:
        raise ValueError(f"kappa series needs |delta| < 2, got {delta}")
    # term ratio t_n / t_{n-1} = d (2n-1)^2 / (8 n^2), tending to d/2
    term = total = math.sqrt(math.pi) / 2.0
    ratio = delta / 2.0
    for n in range(1, terms):
        ratio = delta * (2 * n - 1) ** 2 / (8.0 * n * n)
        term *= ratio
        total += term
    return total, abs(term * ratio) / (1.0 - abs(ratio))


def model_im_prefactor(n):
    """Gamma(n+1/2) / (2^n n!^2) = sqrt(pi) (2n)! / (8^n n!^3), the d^n prefactor of Im Z."""
    return math.sqrt(math.pi) * math.factorial(2 * n) / (8**n * math.factorial(n) ** 3)


def model_imaginary_part(g_abs, delta, n_max):
    """Im Z(-|g| + i0, d) = -sum_n (-d)^n prefactor_n (1/(4|g|))^{n+1/2} e^{-1/(4|g|)},
    truncated at d^{n_max} (leading order in g)."""
    return -_cut_sum(model_im_prefactor, 1.0 / (4.0 * g_abs), 0.5, delta, n_max)


def gamma_n(n):
    """gamma_n = (-1)^n Gamma(n+1/2) / (pi 2^n n!^2) of Z_kn ~ gamma_n (-4)^k k! k^{n-1/2}."""
    return (-1) ** n * math.exp(math.lgamma(n + 0.5) - n * math.log(2.0)
                                - 2.0 * math.lgamma(n + 1.0)) / math.pi


def large_order_estimate_delta(k, delta):
    """Regime-resolved estimate of Z_k(d) at fixed d < 2.

    d = 0: isotropic 4^k k! k^{-1/2} / sqrt(pi);
    d > 0: sqrt(2/d) 4^k k! k^{-1} / pi;
    d < 0: sqrt((2-d)/(-d)) (4-2d)^k k! k^{-1} / pi.
    """
    if k < 1:
        raise ValueError("requires k >= 1")
    if not delta < 2.0:
        raise ValueError(f"requires delta < 2, got {delta}")
    ln_abs = math.lgamma(k + 1.0)
    if delta == 0.0:
        ln_abs += k * math.log(4.0) - 0.5 * math.log(math.pi * k)
    else:
        d_neg = min(delta, 0.0)
        ln_abs += (0.5 * math.log((2.0 - d_neg) / abs(delta)) - math.log(math.pi * k)
                   + k * math.log(4.0 - 2.0 * d_neg))
    return SignedLog(-1 if k % 2 else 1, ln_abs)


# ---------------------------------------------------------------- oscillator


def beta_symmetric_half(n):
    """B(n+1/2, n+1/2) = pi (2n)! / (16^n (n!)^2)."""
    return math.pi * math.comb(2 * n, n) / 16.0**n


def qm_gamma_n(n):
    """gamma_n = -(6/pi^2) ((-1)^n / n!) B(n+1/2, n+1/2) of E_kn ~ gamma_n (-3)^k k! k^n."""
    return -((-1) ** n) * (6.0 / math.pi**2) * beta_symmetric_half(n) / math.factorial(n)


def qm_im_prefactor(n):
    """(6/pi) (2^n/n!) B(n+1/2, n+1/2) = 6 C(2n, n) / (n! 8^n), the d^n prefactor of Im E."""
    return 6.0 * math.comb(2 * n, n) / (math.factorial(n) * 8.0**n)


def qm_imaginary_part(g_abs, delta, n_max):
    """Im E(-|g| + i0, d) = sum_n (-d)^n prefactor_n (4/(3|g|))^{n+1} e^{-4/(3|g|)},
    truncated at d^{n_max} (leading order in g); 4/(3|g|) = 1/(3 |g/4|)."""
    return _cut_sum(qm_im_prefactor, 4.0 / (3.0 * g_abs), 1.0, delta, n_max)


# ---------------------------------------------------------------- variational energy


def energy_slices(table, k, delta):
    """E_j(d) = sum_{n<=j} E_jn (2d)^n for j = 0 .. k."""
    two_d = 2 * Fraction(delta)
    return [sum((table.entry(j, n) * two_d**n for n in range(j + 1)), Fraction(0))
            for j in range(k + 1)]


def reexpansion_coefficients(table, l, delta):
    """Coefficients of eps_l as a polynomial in (2 rho Omega): ``coeffs[t]``
    multiplies (2 rho Omega)^t and is C((1-3j)/2, t) E_j(d) at j = l - t."""
    if l < 0:
        raise ValueError("l must be >= 0")
    if l > table.kmax:
        raise ValueError(f"l={l} exceeds table kmax={table.kmax}")
    slices = energy_slices(table, l, delta)
    return [generalized_binomial(Fraction(1 - 3 * (l - t), 2), t) * slices[l - t]
            for t in range(l + 1)]


def w_laurent_terms(table, k, g_over_4, delta):
    """{power: coefficient} of W_k(Omega) = Omega sum_{l<=k} eps_l (gbar / Omega^3)^l,
    omega = 1, with (2 rho Omega)^t = (1 - Omega^2)^t Omega^t / gbar^t expanded
    term by term over (l, j, s): O(k^3) exact operations, zero terms dropped."""
    gbar = Fraction(g_over_4)
    terms = {}
    for l in range(k + 1):
        eps = reexpansion_coefficients(table, l, delta)
        for j in range(l + 1):
            t = l - j
            if eps[t] == 0:
                continue
            base = eps[t] * gbar**j
            for s in range(t + 1):
                power = 1 + t - 3 * l + 2 * s
                terms[power] = terms.get(power, Fraction(0)) + base * math.comb(t, s) * (-1) ** s
    return {p: c for p, c in terms.items() if c != 0}


# ---------------------------------------------------------------- stationary points


def _taylor_shift(a):
    """Coefficients (low to high) of a(x + 1)."""
    a = list(a)
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] += a[j + 1]
    return a


def _sign_at(a, u, e):
    """Sign of a(u / 2^e), by Horner's rule on 2^(e deg a) a(u / 2^e)."""
    h = 0
    for i, c in enumerate(reversed(a)):
        h = h * u + (c << (e * i))
    return (h > 0) - (h < 0)


def positive_roots_bisection(fn):
    """Every root Omega > 0 of the Laurent polynomial fn, ascending: the
    reference for ``anires.vpt._positive_roots``, which must return the same
    floats bit for bit.

    Omega^(-min power) fn with denominators cleared is an integer polynomial;
    Omega = 2^m x maps all its roots into |x| < 1 (Fujiwara's bound).  A piece
    A(x) of it on (u, u + 1) / 2^e is dropped, kept as isolating or halved as
    the coefficients of (x + 1)^n A(1 / (x + 1)) have 0, 1 or more sign
    changes (Descartes; Vincent-Collins-Akritas bisection), with one Taylor
    shift per test and per split.  Each isolating interval is then halved by
    the exact sign at its midpoint until it is narrower than 2^-40 of its left
    end, and its midpoint is returned.  A multiple root, or roots that do not
    separate at that width, raise RuntimeError.
    """
    terms = {p: c for p, c in fn.terms.items() if c}
    if not terms:
        return []
    den, low = math.lcm(*(c.denominator for c in terms.values())), min(terms)
    P = [0] * (max(terms) - low + 1)
    for p, c in terms.items():
        P[p - low] = c.numerator * (den // c.denominator)
    n, lead = len(P) - 1, P[-1].bit_length()
    m = max([0] + [1 - (lead - c.bit_length() - 1) // (n - i) for i, c in enumerate(P[:-1]) if c])
    Q = [c << (m * i) for i, c in enumerate(P)]
    dQ = [i * c for i, c in enumerate(Q)][1:]
    exact, isolated, pieces = [], [], [(0, 0, Q)]
    while pieces:
        u, e, A = pieces.pop()
        signs = [c > 0 for c in _taylor_shift(A[::-1]) if c]
        changes = sum(s != t for s, t in zip(signs, signs[1:]))
        if changes == 1:
            isolated.append((u, e))
        if changes < 2:
            continue
        left = [c << (len(A) - 1 - i) for i, c in enumerate(A)]  # 2^n A(x / 2)
        right = _taylor_shift(left)
        if u >> 40 or right[0] == right[1] == 0:
            raise RuntimeError("a multiple root, or roots closer than 2^-40 relative, near "
                               f"Omega = {math.ldexp(2 * u + 1, m - e - 1):.12g}")
        if right[0] == 0:  # a root at the midpoint
            exact.append((2 * u + 1, e + 1))
            right = right[1:]
        pieces += [(2 * u, e + 1, left), (2 * u + 1, e + 1, right)]
    for u, e in isolated:
        s = _sign_at(Q, u, e) or _sign_at(dQ, u, e)
        while not u >> 40:
            u, e = 2 * u + 1, e + 1
            t = _sign_at(Q, u, e)
            if t == 0:
                break
            if t != s:
                u -= 1
        else:
            u, e = 2 * u + 1, e + 1
        exact.append((u, e))
    return sorted(math.ldexp(u, m - e) for u, e in exact)


def basis_integral_four_logs(spec, g, quad):
    """I_p(g) from the Borel t-integral of the ``anires.borel`` docstring, the
    log of each factor taken as written: e^{-t}, t^{b0} / Gamma(b0+1),
    ((1 + root)/2)^{2 alpha} and (sigma g t)^p / (1 + root)^{2p}."""
    b0, alpha, sigma, p = float(spec.b0), float(spec.alpha), float(spec.sigma), spec.p
    ln_norm = -math.lgamma(b0 + 1.0)

    def integrand(t):
        z = sigma * g * t
        root = math.sqrt(1.0 + z)
        ln_val = (ln_norm - t + b0 * math.log(t) + 2.0 * alpha * math.log(0.5 + 0.5 * root)
                  + (p * math.log(z) - 2.0 * p * math.log1p(root) if p else 0.0))
        return 0.0 if ln_val < -745.0 else math.exp(ln_val)

    return integrate_semiline(integrand, quad).value


def pochhammer(x, k):
    """Rising factorial (x)_k as an exact rational."""
    out = Fraction(1)
    for i in range(k):
        out *= Fraction(x) + i
    return out


def _basis_series(p, b0, alpha, sigma, x):
    """The terms I^p_k x^k of the power series of I_p(x), for
    k = p, p+1, ... without end (I^p_k = 0 for k < p).  From the
    hypergeometric series, with a = p - alpha and m = k - p,

        I^p_k = (sigma/4)^p (-sigma)^m (b0+1)_k (a)_m (a+1/2)_m / ((2a+1)_m m!),

    so each term follows from the previous one by the ratio

        I^p_k x / I^p_{k-1} = (-sigma x)(b0+k)(a+m-1)(a+m-1/2) / ((2a+m) m).

    Exact for rational arguments (x = 1 gives the coefficients I^p_k); floats
    for the terms at a coupling x = g.
    """
    a = p - alpha
    term = (sigma * x / 4) ** p
    for i in range(1, p + 1):
        term *= b0 + i  # (b0+1)_p
    yield term
    # the ratio's factors at m = 0, each advanced by m
    minus_sx, b0_k, a_1, a_half, two_a = -sigma * x, b0 + p, a - 1, a - Fraction(1, 2), 2 * a
    for m in count(1):
        term *= minus_sx * (b0_k + m) * (a_1 + m) * (a_half + m) / ((two_a + m) * m)
        yield term


def reexpansion_residual(approx):
    """Max relative residual of sum_p I^p_k a_pn against the input c_kn, each
    sum formed in Fractions term by term."""
    N = approx.N
    worst = Fraction(0)
    for n in range(N + 1):
        recovered = [Fraction(0)] * (N + 1 - n)  # at k = n .. N
        for p in range(n, N + 1):
            coeff = approx.a[(p, n)]
            if coeff == 0:
                continue
            spec = approx.basis_spec(p, n)
            terms = _basis_series(p, spec.b0, spec.alpha, spec.sigma, 1)
            for k, term in zip(range(p, N + 1), terms):
                recovered[k - n] += coeff * term
        for k, value in enumerate(recovered, n):
            target = approx.input_table.entry(k, n)
            residual = value - target
            if residual != 0:
                worst = max(worst, abs(residual) / max(Fraction(1), abs(target)))
    return worst
