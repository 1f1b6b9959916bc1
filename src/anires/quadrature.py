r"""Double-exponential quadrature on (0, 1) and (0, inf).

Both integrators are Takahashi-Mori style trapezoid rules under a
double-exponential change of variable:

* ``integrate_unit``:   ``w(t) = 1 / (1 + exp(-pi sinh t))`` maps the real
  line onto (0, 1); endpoint singularities such as ``w^{-1/2}`` or
  ``(1-w)^{-b}`` (integrable, or dominated by an essential decay factor) are
  absorbed by the double-exponential clustering of nodes.
* ``integrate_semiline``: ``x(t) = exp((pi/2) sinh t)`` maps onto (0, inf);
  the integrand must decay at infinity at least exponentially, which is the
  case for every integrand in this package.

The trapezoid step starts at ``h = 1`` and is halved per refinement level
("variable doubling").  The rules are nested: each level keeps the previous
level's sum and evaluates only the new odd nodes (Takahashi & Mori 1974;
Bailey, Jeyabalan & Li, Exp. Math. 14, 2005).  The nodes (x, x'(t)) of each
transform, level and side are tabulated for the life of the process; a sweep
reads its table in order and computes a node only when it walks past the
table's end, so the tables hold just the nodes ever visited.

Convergence is declared when two successive levels agree within
``max(abs_tol, rel_tol * |I|)``, i.e. whichever tolerance is looser, but
never before ``h = 1/4``; the achieved level difference is reported as the
error estimate.

An integrand may return a list of floats instead of a float.  All components
are then integrated on one node set, a level is accepted only when every
component meets its tolerance, and the result's value and error are lists.
Per node a sweep keeps the weight x'(t) and the integrand's value: a float
for a scalar integrand, a row of floats for a vector one, whose tail test and
sums then run per component.  A scalar integrand and the same function as a
one-component vector visit the same nodes and give the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count
from operator import add, mul
from typing import Callable, List, NamedTuple, Optional, Union

__all__ = [
    "QuadratureSpec",
    "QuadResult",
    "QuadratureError",
    "integrate_unit",
    "integrate_semiline",
    "DEFAULT_SPEC",
]

# Beyond |t| ~ 6.8 both transforms reach the edge of double precision.
_T_MAX = 6.8
# A side of the sweep may not stop before |t| reaches this, so that sharply
# peaked integrands (mass far from t = 0) are never truncated prematurely.
_T_MIN_SWEEP = 2.0
# No level coarser than h = 1/4 is accepted: a narrow peak can fall between the
# nodes of both h = 1 and h = 1/2, whose sums then agree on a wrong value.
_MIN_LEVEL = 2
# (node, level, sign) -> [(x, x'(t), |t| >= _T_MIN_SWEEP), ...] in sweep order,
# closed by None where the transform ends; node -> (x, x'(0)) for the centre
_NODES: dict = {}


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and refinement budget for the adaptive integrators.

    Frozen and hashable, so that it can key caches of integrated values.
    No level before the second refinement is accepted, so the budget must
    allow at least two refinements.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_refinements: int = 10

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_refinements < _MIN_LEVEL:
            raise ValueError(f"max_refinements must be >= {_MIN_LEVEL}")


DEFAULT_SPEC = QuadratureSpec()


class QuadResult(NamedTuple):
    # floats for a scalar integrand, lists of floats for a vector integrand
    value: Union[float, List[float]]
    error: Union[float, List[float]]  # estimate: difference of the last two levels
    levels: int  # refinement levels actually used


class QuadratureError(RuntimeError):
    """Raised when the refinement budget is exhausted.

    Carries the best estimate and its error bound for diagnostics (lists for
    a vector integrand).
    """

    def __init__(self, message: str, best, error):
        if isinstance(error, list):
            detail = f"{len(error)} components, largest error bound {max(error)!r}"
        else:
            detail = f"best estimate {best!r}, error bound {error!r}"
        super().__init__(f"{message} ({detail})")
        self.best = best
        self.error = error


def _unit_node(t: float):
    """Node and weight for the (0, 1) transform, or None past the edge.

    Nodes whose w rounds to an endpoint in double precision are dropped:
    w saturates to 1.0 once 1-w falls below eps/2 (u ~ 36.7), and the
    exponential overflows past |u| ~ 709.
    """
    u = math.pi * math.sinh(t)
    if u > 36.8 or u < -709.0:
        return None
    w = 1.0 / (1.0 + math.exp(-u))
    w1m = 1.0 / (1.0 + math.exp(u))
    if w <= 0.0 or w >= 1.0 or w1m <= 0.0:
        return None
    # dw/dt = pi cosh(t) w (1 - w)
    return w, math.pi * math.cosh(t) * w * w1m


def _semiline_node(t: float):
    """Node and weight for the (0, inf) transform, or None past the edge."""
    u = (math.pi / 2.0) * math.sinh(t)
    if u > 700.0 or u < -700.0:
        return None
    x = math.exp(u)
    return x, (math.pi / 2.0) * math.cosh(t) * x


def _side_sweep(node, f, level: int, sign: int, vector: bool) -> List[float]:
    """Per-component sums of x'(t) f(x(t)) over the new nodes of ``level`` on
    one side, t = sign*k*2^-level for k = 1, 1 + stride, ..., until the tail
    of every component has died.

    A side stops once |t| is past the minimum sweep length and, for every
    component, a nonzero contribution has been seen and the running
    contribution has dropped 18 orders of magnitude below the largest one.
    Zero stretches before the integrand's support (sharply peaked integrands)
    are skipped over.  The first node lies at |t| <= 1, inside both
    transforms' range, so every side contributes at least one node.
    """
    table = _NODES.setdefault((node, level, sign), [])
    h = 0.5**level
    stride = 2 if level else 1
    weights: List[float] = []
    values: list = []  # floats, or one row per node for a vector integrand
    largest = None
    for i in count():
        if i == len(table):
            t = sign * (1 + stride * i) * h
            nw = node(t) if abs(t) <= _T_MAX else None
            table.append(None if nw is None else (*nw, abs(t) >= _T_MIN_SWEEP))
        entry = table[i]
        if entry is None:
            break
        x, dxdt, far = entry
        value = f(x)
        weights.append(dxdt)
        values.append(value)
        if not far:
            continue
        if not vector:
            mag = abs(dxdt * value)
            largest = (max(map(abs, map(mul, weights, values))) if largest is None
                       else max(largest, mag))
            if largest > 0.0 and mag <= 1e-18 * largest:
                break
            continue
        mags = [abs(dxdt * v) for v in value]
        if largest is None:
            largest = [max(map(abs, map(mul, weights, col))) for col in zip(*values)]
        else:
            largest = list(map(max, largest, mags))
        if all(top > 0.0 and mag <= 1e-18 * top for mag, top in zip(mags, largest)):
            break
    if vector:
        return [sum(map(mul, weights, col)) for col in zip(*values)]
    return [sum(map(mul, weights, values))]


def _integrate(node, f, spec: QuadratureSpec, name: str) -> QuadResult:
    """Nested trapezoid refinement of a scalar or vector integrand.

    Level 0 sums every node of step h = 1; level L adds only the odd nodes of
    step h = 2^-L, so each node is evaluated once.  Level L is accepted when
    L >= _MIN_LEVEL and every component agrees with level L - 1 within
    ``max(abs_tol, rel_tol * |I|)``.
    """
    if node not in _NODES:
        _NODES[node] = node(0.0)
    x0, dx0 = _NODES[node]
    first = f(x0)
    vector = isinstance(first, (list, tuple))
    if not vector:
        first = (first,)
    raw = [dx0 * v for v in first]
    h = 1.0
    prev: Optional[List[float]] = None
    err = [math.inf] * len(raw)
    value = raw
    for level in range(spec.max_refinements + 1):
        if level:
            h *= 0.5
        for sign in (1, -1):
            raw = list(map(add, raw, _side_sweep(node, f, level, sign, vector)))
        value = [h * r for r in raw]
        if prev is not None:
            err = [abs(v - q) for v, q in zip(value, prev)]
            if level >= _MIN_LEVEL and all(
                e <= max(spec.abs_tol, spec.rel_tol * abs(v)) for e, v in zip(err, value)
            ):
                if vector:
                    return QuadResult(value, err, level)
                return QuadResult(value[0], err[0], level)
        prev = value
    raise QuadratureError(
        f"{name}: no convergence after {spec.max_refinements} refinements",
        best=value if vector else value[0],
        error=err if vector else err[0],
    )


def integrate_unit(f: Callable[[float], float], spec: QuadratureSpec = DEFAULT_SPEC) -> QuadResult:
    """Integrate ``f`` over the open interval (0, 1).

    ``f`` is only ever called with ``0 < w < 1``; integrable endpoint
    singularities are fine.  ``f`` may return a float or a list of floats.
    Returns value, error estimate and level count; raises
    :class:`QuadratureError` if the refinement budget runs out.
    """
    return _integrate(_unit_node, f, spec, "integrate_unit")


def integrate_semiline(f: Callable[[float], float], spec: QuadratureSpec = DEFAULT_SPEC) -> QuadResult:
    """Integrate ``f`` over (0, inf); ``f`` must decay fast at infinity."""
    return _integrate(_semiline_node, f, spec, "integrate_semiline")
