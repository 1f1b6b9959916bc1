"""Outputs pinned bit for bit, compared with ``==``.

The quadrature's node tables and the skipped Horner pass of an underflowed
Borel column must leave every node, sum, level and error estimate as it was
when each node was computed afresh and every column polynomial was evaluated.
These values were recorded with that code; the resummed values ``RESUM`` with
the column sums as one t-integral each, at every coupling.
"""

import pytest

from anires import (
    ModelCoefficients,
    build_approximant,
    integrate_semiline,
    integrate_unit,
    model_large_order_params,
    qm_approximant,
    z_reference,
)

from test_quadrature import SEMILINE_CASES, TIGHT, UNIT_CASES

# (value, error, levels) of each battery case under TIGHT
UNIT_RESULTS = [(1.0, 3.6637359812630166e-14, 3),
                (0.2499999999999999, 8.326672684688674e-17, 4),
                (2.0000000000000004, 3.1086244689504383e-15, 3),
                (0.9999999999999989, 1.52433621281034e-13, 3),
                (1.0, 1.5132339825640884e-13, 3),
                (2.0, 4.076738946423575e-13, 3),
                (10.000000000000004, 0.0, 3),
                (0.7853981633974483, 1.1102230246251565e-16, 4)]
SEMILINE_RESULTS = [(1.0, 2.220446049250313e-16, 5),
                    (6.0, 7.37188088351104e-14, 5),
                    (0.8862269254527579, 1.1102230246251565e-15, 5),
                    (1.7724538509055157, 4.440892098500626e-16, 5),
                    (0.5, 2.886579864025407e-15, 5),
                    (0.39999999999999997, 5.551115123125783e-17, 7)]

# resum(g, y) of the N = 12 approximants, [y = -1.0, y = 0.6] per coupling
COUPLINGS = (1e-4, 2e-3, 0.05, 0.3, 2.0, 40.0, 3000.0, 150000.0)
YS = (-1.0, 0.6)
RESUM = {"qm-sigma3": [[1.0002248857530445, 1.0001849228957989],
                       [1.0044552443761194, 1.0036696827394023],
                       [1.093241527926114, 1.0787638318542234],
                       [1.3677834172814212, 1.3217643922626865],
                       [2.1729583333325353, 2.0316521700913923],
                       [11.065842467629214, 7.681934012079831],
                       [100.53046253603753, 62.520150190133855],
                       [414.22668152955333, 256.6238517131813]],
         "qm-sigma4": [[1.0002248857530445, 1.0001849228957989],
                       [1.0044552443761197, 1.0036696827394025],
                       [1.0932415261524586, 1.0787638318255668],
                       [1.3676847433457548, 1.3217497979943638],
                       [2.103539751561458, 2.010527485445986],
                       [3.372033175973923, 4.135821137643676],
                       [-1.0787129020462045, 9.030686218458612],
                       [-15.379821859919723, 26.64641219329117]],
         "model": [[0.9997501910020209, 0.9998300879729581],
                   [0.995074582685324, 0.996634617769529],
                   [0.9056441855686317, 0.9308284700899864],
                   [0.7009046593066227, 0.7559474535246801],
                   [0.40729087717136603, 0.46401578196912474],
                   [0.11670381928937719, 0.13902901469744838],
                   [0.014447950725050316, 0.017456721642970695],
                   [0.002059634337738577, 0.0024926972027492374]]}

Z_POINTS = ((0.25, 0.0), (1.0, 0.5), (4.0, -1.0), (40.0, 1.5))
Z_REFERENCE = [0.757872156141312,
               0.5677730393380354,
               0.31483136070003764,
               0.16983634834657735]


def test_quadrature_batteries():
    assert [tuple(integrate_unit(f, TIGHT)) for f, _ in UNIT_CASES] == UNIT_RESULTS
    assert [tuple(integrate_semiline(f, TIGHT)) for f, _ in SEMILINE_CASES] == SEMILINE_RESULTS


@pytest.mark.parametrize("case", RESUM)
def test_resum(qm_table, case):
    if case == "model":
        approx = build_approximant(ModelCoefficients.build(12).table, 12, model_large_order_params())
    else:
        approx = qm_approximant(qm_table, 12, int(case[-1]))
    assert [[approx.resum(g, y) for y in YS] for g in COUPLINGS] == RESUM[case]


def test_z_reference():
    assert [z_reference(g, d) for g, d in Z_POINTS] == Z_REFERENCE
