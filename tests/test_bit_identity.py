"""Outputs pinned bit for bit, compared with ``==``.

The quadrature's node tables and the skipped Horner pass of an underflowed
Borel column must leave every node, sum, level and error estimate as it was
when each node was computed afresh and every column polynomial was evaluated.
These values were recorded with that code.
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
from anires.borel import SMALL_SIGMA_G

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
RESUM = {"qm-sigma3": [[1.000224885753045, 1.0001849228957993],
                        [1.004455244376118, 1.003669682739401],
                        [1.0932415279261143, 1.0787638318542236],
                        [1.3677834172814203, 1.3217643922626856],
                        [2.1729583333325344, 2.0316521700913914],
                        [11.065842467629214, 7.68193401207983],
                        [100.53046253603758, 62.52015019013388],
                        [414.2266815295523, 256.6238517131805]],
          "qm-sigma4": [[1.0002248857530447, 1.000184922895799],
                        [1.0044552443761168, 1.0036696827393996],
                        [1.0932415261524582, 1.0787638318255663],
                        [1.3676847433457548, 1.3217497979943638],
                        [2.1035397515614562, 2.010527485445984],
                        [3.3720331759739177, 4.135821137643671],
                        [-1.0787129020461883, 9.030686218458623],
                        [-15.379821859920265, 26.646412193291386]],
          "model": [[0.999750191002021, 0.9998300879729582],
                    [0.9950745826853232, 0.9966346177695282],
                    [0.9056441855686314, 0.930828470089986],
                    [0.7009046593066228, 0.7559474535246802],
                    [0.40729087717136603, 0.4640157819691248],
                    [0.11670381928937713, 0.13902901469744833],
                    [0.01444795072505035, 0.017456721642970748],
                    [0.0020596343377385514, 0.0024926972027492066]]}

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
    # the first coupling takes the series branch, the rest the quadrature
    sigma = float(approx.params.sigma)
    assert COUPLINGS[0] * sigma < SMALL_SIGMA_G < COUPLINGS[1] * sigma
    assert [[approx.resum(g, y) for y in YS] for g in COUPLINGS] == RESUM[case]


def test_z_reference():
    assert [z_reference(g, d) for g, d in Z_POINTS] == Z_REFERENCE
