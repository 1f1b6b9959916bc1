import math

import pytest

from anires import QuadratureError, QuadratureSpec, integrate_semiline, integrate_unit
from anires import quadrature

TIGHT = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12, max_refinements=12)

# analytically known battery: (domain, integrand, exact value)
UNIT_CASES = [
    (lambda w: 1.0, 1.0),
    (lambda w: w**3, 0.25),
    (lambda w: w**-0.5, 2.0),
    (lambda w: math.log(1.0 / (1.0 - w)), 1.0),
    (lambda w: math.log(1.0 / w), 1.0),
    (lambda w: math.log(w) ** 2, 2.0),
    (lambda w: w**-0.9, 10.0),
    (lambda w: 1.0 / (1.0 + w * w), math.pi / 4.0),
]
SEMILINE_CASES = [
    (lambda t: math.exp(-t), 1.0),
    (lambda t: t**3 * math.exp(-t), 6.0),
    (lambda t: math.exp(-t * t), math.sqrt(math.pi) / 2.0),
    (lambda t: t ** -0.5 * math.exp(-t), math.sqrt(math.pi)),
    (lambda t: t * math.exp(-t * t), 0.5),
    (lambda t: math.exp(-t) * math.sin(t) ** 2, 0.4),  # 1/2 - 1/(2*5) ... = 2/5
]


@pytest.mark.parametrize("f,exact", UNIT_CASES)
def test_unit_battery(f, exact):
    res = integrate_unit(f, TIGHT)
    assert res.value == pytest.approx(exact, rel=1e-11, abs=1e-12)


@pytest.mark.parametrize("f,exact", SEMILINE_CASES)
def test_semiline_battery(f, exact):
    res = integrate_semiline(f, TIGHT)
    assert res.value == pytest.approx(exact, rel=1e-11, abs=1e-12)


def test_riemann_refinement_oracle():
    # brute-force midpoint refinement for int_0^inf e^{-r - r^2} dr
    f = lambda r: math.exp(-r - r * r)
    top = 10.0
    coarse = None
    for n in (1 << 12, 1 << 15, 1 << 18):
        h = top / n
        val = h * sum(f((i + 0.5) * h) for i in range(n))
        coarse = val
    res = integrate_semiline(f, TIGHT)
    assert res.value == pytest.approx(coarse, abs=5e-9)
    assert res.value == pytest.approx(0.5456413607650471, rel=1e-12)


def test_error_estimate_reported():
    res = integrate_semiline(lambda t: math.exp(-t), TIGHT)
    assert res.error <= 1e-12
    assert res.levels >= 1


def test_tolerance_looser_wins():
    # huge abs_tol converges at the first level that may be accepted (h = 1/4)
    # even though rel_tol is tiny
    spec = QuadratureSpec(abs_tol=1.0, rel_tol=1e-300, max_refinements=3)
    res = integrate_semiline(lambda t: math.exp(-t), spec)
    assert abs(res.value - 1.0) < 1e-2
    assert res.levels == 2


def test_nonconvergence_raises_with_best_estimate():
    spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13, max_refinements=2)
    with pytest.raises(QuadratureError) as err:
        integrate_unit(lambda w: math.sin(50.0 / (w + 0.01)), spec)
    assert math.isfinite(err.value.best)
    assert err.value.error > 0


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_refinements=0)
    with pytest.raises(ValueError):  # no level below the second is ever accepted
        QuadratureSpec(max_refinements=1)
    assert QuadratureSpec(max_refinements=2).max_refinements == 2


@pytest.mark.parametrize("tols", [(math.nan, math.nan), (math.nan, 1e-10), (1e-12, math.nan)])
def test_spec_rejects_nan_tolerances(tols):
    # a NaN tolerance can never be met, so every integral would run out its budget
    with pytest.raises(ValueError, match="tolerances must be positive"):
        QuadratureSpec(abs_tol=tols[0], rel_tol=tols[1])


def test_peaked_integrand_far_from_center():
    # mass concentrated near w ~ 1e-3; the sweep must not truncate early
    def f(w):
        return math.exp(-((w - 1e-3) / 2e-4) ** 2)

    res = integrate_unit(f, TIGHT)
    assert res.value == pytest.approx(2e-4 * math.sqrt(math.pi), rel=1e-6)


def test_vector_integrand_matches_battery():
    fs = [f for f, _ in UNIT_CASES]
    res = integrate_unit(lambda w: [f(w) for f in fs], TIGHT)
    assert len(res.value) == len(res.error) == len(fs)
    for value, (f, exact) in zip(res.value, UNIT_CASES):
        assert value == pytest.approx(exact, rel=1e-11, abs=1e-12)


def test_vector_waits_for_every_component():
    def peaked(w):
        return math.exp(-((w - 1e-3) / 2e-4) ** 2)

    alone = integrate_unit(peaked, TIGHT)
    both = integrate_unit(lambda w: [1.0, peaked(w)], TIGHT)
    assert both.levels >= alone.levels > integrate_unit(lambda w: 1.0, TIGHT).levels
    assert both.value[1] == pytest.approx(alone.value, rel=1e-10)


def test_vector_nonconvergence_raises_with_lists():
    spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13, max_refinements=3)
    with pytest.raises(QuadratureError) as err:
        integrate_unit(lambda w: [1.0, math.sin(50.0 / (w + 0.01))], spec)
    assert len(err.value.best) == len(err.value.error) == 2


def sweep_tables():
    """The per-sweep node tables, keyed (node, level, sign); the centre
    entries are keyed by the node function alone."""
    return {key: table for key, table in quadrature._NODES.items() if isinstance(key, tuple)}


@pytest.mark.parametrize("integrate,name,f", [
    (integrate_unit, "_unit_node", lambda w: w**-0.5),
    (integrate_semiline, "_semiline_node", lambda t: t**3 * math.exp(-t)),
])
def test_second_integral_reads_the_node_tables(monkeypatch, integrate, name, f):
    node = getattr(quadrature, name)
    calls = []

    def counted(t):
        calls.append(t)
        return node(t)

    monkeypatch.setattr(quadrature, name, counted)
    monkeypatch.setattr(quadrature, "_NODES", {})
    first = integrate(f, TIGHT)
    assert len(calls) > 50
    calls.clear()
    assert integrate(f, TIGHT) == first
    assert calls == []


def test_tables_hold_the_sweep_nodes(monkeypatch):
    monkeypatch.setattr(quadrature, "_NODES", {})
    unit = integrate_unit(lambda w: 1.0, TIGHT)
    integrate_semiline(lambda t: t * math.exp(-t * t), TIGHT)
    for node in (quadrature._unit_node, quadrature._semiline_node):
        assert quadrature._NODES[node] == node(0.0)
    tables = sweep_tables()
    for (node, level, sign), table in tables.items():
        stride = 2 if level else 1
        for i, entry in enumerate(table):
            t = sign * (1 + stride * i) * 2.0**-level
            if entry is None:  # the edge marker closes a table
                assert i == len(table) - 1
                assert abs(t) > quadrature._T_MAX or node(t) is None
            else:
                assert entry == (*node(t), abs(t) >= quadrature._T_MIN_SWEEP)
    # w = 1 rounds off before the tail of a constant dies, so that side ends at the edge
    for level in range(unit.levels + 1):
        assert tables[(quadrature._unit_node, level, 1)][-1] is None


def test_tables_grow_only_with_the_sweeps(monkeypatch):
    # a non-converging integral sweeps every level up to the budget; building each
    # level's table out to the edge would hold about 94,000 nodes here
    monkeypatch.setattr(quadrature, "_NODES", {})
    calls = []

    def f(w):
        calls.append(w)
        return math.sin(50.0 / (w + 0.01))

    with pytest.raises(QuadratureError):
        integrate_unit(f, QuadratureSpec(abs_tol=1e-16, rel_tol=1e-16, max_refinements=12))
    tables = sweep_tables().values()
    nodes = sum(entry is not None for table in tables for entry in table)
    assert nodes + 1 == len(calls)  # one node per integrand call, the centre kept apart
    assert all(None not in table[:-1] for table in tables)
    assert len(tables) == 2 * 13


@pytest.mark.parametrize("integrate,f", [(integrate_unit, f) for f, _ in UNIT_CASES]
                         + [(integrate_semiline, f) for f, _ in SEMILINE_CASES])
def test_scalar_equals_one_component_vector(integrate, f):
    # a scalar integrand and the same function as a one-component vector visit
    # the same nodes and give the same bits
    scalar_nodes, vector_nodes = [], []
    scalar = integrate(lambda x: scalar_nodes.append(x) or f(x), TIGHT)
    vector = integrate(lambda x: vector_nodes.append(x) or [f(x)], TIGHT)
    assert scalar_nodes == vector_nodes
    assert (scalar.value, scalar.error, scalar.levels) == (vector.value[0], vector.error[0], vector.levels)
