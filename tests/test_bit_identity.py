"""Outputs pinned bit for bit, compared with ``==``.

The quadrature's node tables and the skipped Horner pass of an underflowed
Borel column must leave every node, sum, level and error estimate as it was
when each node was computed afresh and every column polynomial was evaluated.
These values were recorded with that code; the resummed values ``RESUM`` with
the column sums as one t-integral each, at every coupling.
"""

import hashlib
import math
from fractions import Fraction

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
from anires.borel import BorelBasisSpec, basis_integral_tform
from anires.cli import main

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


def _peaked(w):
    return math.exp(-((w - 1e-3) / 2e-4) ** 2)


# vector integrands, each component one integrand of the scalar batteries:
# (integrator, components, (value list, error list, levels) under TIGHT)
VECTOR_CASES = [
    (integrate_unit, [f for f, _ in UNIT_CASES],
     ([1.0, 0.2499999999999999, 2.0, 0.9999999999999964, 1.0, 1.9999999999999996,
       10.000000000000004, 0.7853981633974483],
      [0.0, 8.326672684688674e-17, 4.440892098500626e-16, 2.4424906541753444e-15, 0.0,
       4.440892098500626e-16, 0.0, 1.1102230246251565e-16], 4)),
    (integrate_semiline, [f for f, _ in SEMILINE_CASES],
     ([1.0000000000000004, 6.000000000000002, 0.8862269254527579, 1.7724538509055154, 0.5,
       0.39999999999999997],
      [4.440892098500626e-16, 8.881784197001252e-16, 0.0, 4.440892098500626e-16, 0.0,
       5.551115123125783e-17], 7)),
    (integrate_unit, [lambda w: 1.0, _peaked],
     ([0.9999999999999998, 0.00035449077018083074], [1.1102230246251565e-16, 0.0], 8)),
]
# integrand calls of each scalar case (UNIT_CASES, then SEMILINE_CASES) and of
# each vector case under TIGHT: every sweep visits exactly these nodes
SCALAR_EVALS = [56, 88, 62, 51, 56, 55, 74, 109, 206, 161, 206, 228, 183, 651]
VECTOR_EVALS = [145, 882, 1679]

# basis_integral_tform at (sigma, alpha, b0, p, g): the model (b0 = n + 1) and
# the oscillator at sigma = 3 (b0 = n + 3/2)
TFORM_POINTS = ((4, Fraction(-1, 2), Fraction(1), 0, 1e-3),
                (4, Fraction(-1, 2), Fraction(2), 3, 0.3),
                (4, Fraction(-1, 2), Fraction(3), 8, 4.0),
                (4, Fraction(-1, 2), Fraction(1), 12, 150000.0),
                (3, Fraction(1, 3), Fraction(3, 2), 0, 0.05),
                (3, Fraction(1, 3), Fraction(9, 2), 5, 2.0),
                (3, Fraction(1, 3), Fraction(15, 2), 12, 40.0))
TFORM = [0.9980118816504087, 0.028727344684991423, 0.027397346821630225,
         0.0022071506923243044, 1.0551929822087447, 0.39369019175242675, 2.9855463940763194]

# sha256 of each `figures --which figN` CSV at default flags
FIGURE_SHA256 = {
    "fig1": "d18d78a00b635f8a830b6e98ebbad44375a1bb3dac034b2d9932a61247e2228a",
    "fig2a": "1aadf495f7fe62320e079f5d98cb0387e9898417102818a6a48d87dd19180af5",
    "fig2b": "ac7ab7606ab91e08ad23f81fc0e2778e921cbe67c879201b2bd40bf7e3467c28",
    "fig4": "9b7677543f2b0d902eb89e5478588a8cb22857c2b52b172544203f44f74149b6",
    "fig5": "5e48a5a898b5bfceb68bb7c9487d10d419d894cabdb3e7331c254a7f22c01431",
    "fig6": "3ba78ff73a6a2af4fc957437a3d5b9f2d75e12a38fa2b00c60b67c4a8331f540",
    "fig7": "2c609c2b6ba81d5e6dd8e0627035b194b9efd26116aa25f5de7fb69f62b06197",
    "fig8": "9c9804eeec763a405f8cacfbd641d1d8ed8a81649e39f1fd9377c4da4b9e51d5",
    "fig9": "74e6a52fbf6130baadaf62605ae80dab9a54f51819c66088fbf16de3447f88cc",
}
# sha256 of the output of other commands (the first model-crossover row carries
# "" for beta_local)
OUTPUT_SHA256 = {
    ("qm-coeffs", "--kmax", "5", "--format", "json"):
        "202db1b2f7fddebc2c30fce36e39317b02516b3e87b93d59f61d1cf6cd883e6b",
    ("vpt", "--g4", "1/10", "--delta-range=-1/2:1/2:1/4", "--orders", "3,5", "--format", "json"):
        "200701bf6c1f5e6387060b64fc5f3eb15e1f8fde37389317c1547cca734b470c",
    ("model-crossover", "--delta", "1/100", "--kmax", "256", "--format", "json"):
        "2450c69434e68b27e382b079f93776b0d606f42e64f058fae5ab71327803eba0",
    ("figures", "--which", "fig5", "--format", "json"):
        "f4aee2b1ba81cc115d262fce3b3febc67a3dd17181a66861e709d76e3b08912d",
    ("model-eval", "--g4", "1/4", "--delta-range=-1:1.5:0.1"):
        "e24233512fb9e8a1560481572fcbdc8241b431bb947e241b08fb0b368961b054",
}
# sha256 of the stderr of the crossover figures: k_cross=256, None and 32
# followed by the convention note
CROSSOVER_STDERR_SHA256 = {
    "fig1": "6822d05610303c40b229335c917d5dc1152f7a74751513db79713ca5cfe47042",
    "fig2a": "5554dcf473dd6ab61789e5af378acf82167a0898dadcb120fcd8f0c3142b8c69",
    "fig2b": "02388c0796fe567fbafe209ce7a28ca33629962281983a53cf0839170cc76c5d",
}


def _counted(f, calls):
    def integrand(x):
        calls.append(x)
        return f(x)
    return integrand


def test_vector_batteries():
    got = [integrate(lambda x, fs=fs: [f(x) for f in fs], TIGHT) for integrate, fs, _ in VECTOR_CASES]
    assert [tuple(res) for res in got] == [want for _, _, want in VECTOR_CASES]


def test_integrand_evaluations():
    scalar = []
    for integrate, cases in ((integrate_unit, UNIT_CASES), (integrate_semiline, SEMILINE_CASES)):
        for f, _ in cases:
            calls = []
            integrate(_counted(f, calls), TIGHT)
            scalar.append(len(calls))
    vector = []
    for integrate, fs, _ in VECTOR_CASES:
        calls = []
        integrate(_counted(lambda x, fs=fs: [f(x) for f in fs], calls), TIGHT)
        vector.append(len(calls))
    assert (scalar, vector) == (SCALAR_EVALS, VECTOR_EVALS)


def test_basis_integral_tform():
    got = [basis_integral_tform(BorelBasisSpec(p, b0, alpha, Fraction(sigma)), g)
           for sigma, alpha, b0, p, g in TFORM_POINTS]
    assert got == TFORM


@pytest.mark.parametrize("which", FIGURE_SHA256)
def test_figure_bytes(tmp_path, which):
    out = tmp_path / f"{which}.csv"
    assert main(["figures", "--which", which, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FIGURE_SHA256[which]


@pytest.mark.parametrize("argv", OUTPUT_SHA256, ids=" ".join)
def test_output_bytes(tmp_path, argv):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == OUTPUT_SHA256[argv]


@pytest.mark.parametrize("which", CROSSOVER_STDERR_SHA256)
def test_crossover_stderr_bytes(tmp_path, capsys, which):
    assert main(["figures", "--which", which, "--out", str(tmp_path / "f.csv")]) == 0
    err = capsys.readouterr().err
    assert hashlib.sha256(err.encode()).hexdigest() == CROSSOVER_STDERR_SHA256[which]
