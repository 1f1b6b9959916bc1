import csv
import json
import math
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import anires
from anires.cli import build_parser, main

from fixtures_tables import TABLE1_EXACT


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def usage_error(argv, capsys) -> str:
    """The stderr of ``main(argv)``, which must stop with usage and status 2."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "Traceback" not in err
    return err


class TestModelCoeffs:
    def test_kmax2_has_six_rows(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["model-coeffs", "--kmax", "2", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["k", "n", "numerator", "denominator", "decimal"]
        assert len(rows) - 1 == 6
        assert ["2", "2", "9", "8", "1.125"] in rows

    def test_kmax0_single_row(self, tmp_path):
        out = tmp_path / "c.csv"
        main(["model-coeffs", "--kmax", "0", "--out", str(out)])
        rows = read_csv(out)
        assert rows[1:] == [["0", "0", "1", "1", "1"]]

    def test_kmax12_91_rows(self, tmp_path):
        out = tmp_path / "c.csv"
        main(["model-coeffs", "--kmax", "12", "--out", str(out)])
        assert len(read_csv(out)) - 1 == 13 * 14 // 2

    def test_json_format(self, tmp_path):
        out = tmp_path / "c.json"
        main(["model-coeffs", "--kmax", "1", "--format", "json", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc[0]["numerator"] == "1"
        assert len(doc) == 3


class TestQmCoeffs:
    def test_matches_reference_fixture(self, tmp_path):
        out = tmp_path / "e.csv"
        assert main(["qm-coeffs", "--kmax", "12", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0][:4] == ["k", "n", "numerator", "denominator"]
        got = {
            (int(r[0]), int(r[1])): Fraction(int(r[2]), int(r[3])) for r in rows[1:]
        }
        assert got == TABLE1_EXACT

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["qm-coeffs", "--kmax", "6", "--out", str(a)])
        main(["qm-coeffs", "--kmax", "6", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, tmp_path):
        out = tmp_path / "e.json"
        assert main(["qm-coeffs", "--kmax", "2", "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc) == 6
        assert doc[2] == {"k": 1, "n": 1, "numerator": "-1", "denominator": "4",
                          "decimal": "-0.25"}


class TestCrossoverCommand:
    def test_delta_1e2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["model-crossover", "--delta", "0.01", "--kmax", "4096",
                     "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "k_cross=" in err
        k_cross = int(err.split("k_cross=")[1].split(";")[0])
        assert 33 <= k_cross <= 300
        rows = read_csv(out)
        assert rows[0] == ["k", "f", "beta_local"]
        assert rows[1][2] == ""  # no incoming slope at the first grid point

    def test_delta_1e4_stays_isotropic(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        main(["model-crossover", "--delta", "0.0001", "--kmax", "8192",
              "--out", str(out)])
        err = capsys.readouterr().err
        assert "k_cross=None" in err
        rows = read_csv(out)
        betas = [float(r[2]) for r in rows[2:]]
        assert abs(betas[0] + 0.5) < 0.02  # early slope ~ -1/2

    def test_delta_one_anisotropic_from_start(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        main(["model-crossover", "--delta", "1", "--kmax", "1024", "--out", str(out)])
        err = capsys.readouterr().err
        k_cross = int(err.split("k_cross=")[1].split(";")[0])
        assert k_cross == 32  # first possible grid point
        rows = read_csv(out)
        assert abs(float(rows[2][2]) + 1.0) < 0.02

    def test_kmax_floor(self, tmp_path, capsys):
        # below 32 the grid k = 16, 32, ..., kmax has one point and no slope
        for kmax in ("8", "16", "31"):
            err = usage_error(["model-crossover", "--delta", "0.01", "--kmax", kmax], capsys)
            assert "--kmax: expected an integer >= 32" in err
        out = tmp_path / "x.csv"
        assert main(["model-crossover", "--delta", "0.01", "--kmax", "32", "--out", str(out)]) == 0
        assert [row[0] for row in read_csv(out)] == ["k", "16", "32"]

    @pytest.mark.parametrize("argv", [["--kmax", "32"],
                                      ["--delta", "1", "--delta-range=0:1:1"]],
                             ids=["no-delta", "delta-range"])
    def test_usage_error(self, argv, capsys):
        # --delta is required and --delta-range is not an option of this command
        usage_error(["model-crossover"] + argv, capsys)


class TestModelEvalAndResum:
    def test_eval_grid(self, tmp_path):
        out = tmp_path / "e.csv"
        assert main(["model-eval", "--g4", "0.25", "--delta-range=0:1:0.5",
                     "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 4
        assert float(rows[1][1]) == pytest.approx(0.5456413607650471, rel=1e-9)

    def test_resum_exit_zero_and_columns(self, tmp_path):
        out = tmp_path / "r.csv"
        code = main(["model-resum", "--g4", "0.25", "--delta-range=-0.5:0.5:0.5",
                     "--order", "6", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == ["delta", "z_resummed", "z_reference", "abs_error"]
        for row in rows[1:]:
            assert float(row[3]) < 1e-2

    def test_resum_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["model-resum", "--g4", "0.25", "--delta-range=-1:1:0.25", "--order", "4"]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_raw_g_flag(self, tmp_path, capsys):
        # --g4 is always g/4 and there is no --raw-g: g = 1 is --g4 1/4
        err = usage_error(["model-eval", "--g4", "1", "--raw-g", "--delta", "0"], capsys)
        assert "unrecognized arguments: --raw-g" in err
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["model-eval", "--g4", "0.25", "--delta", "0", "--out", str(a)])
        main(["model-eval", "--g4", "1/4", "--delta", "0", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_tol_flag(self, tmp_path):
        out = tmp_path / "e.csv"
        assert main(["model-eval", "--g4", "0.25", "--delta", "0", "--tol", "1e-6",
                     "--out", str(out)]) == 0
        rows = read_csv(out)
        assert float(rows[1][1]) == pytest.approx(0.5456413607650471, abs=1e-5)

    def test_resum_at_the_largest_coupling(self, tmp_path):
        # g = 4e307, where sigma*g*t overflows on the integrand's support: the
        # library's value, positive, with Z g^(1/2) at its g -> inf constant
        out = tmp_path / "r.csv"
        assert main(["model-resum", "--g4", "1e307", "--delta", "1/2", "--out", str(out)]) == 0
        z = float(read_csv(out)[1][1])
        N = build_parser().parse_args(["model-resum", "--g4", "1", "--delta", "0"]).order
        approx = anires.build_approximant(anires.ModelCoefficients.build(N).table, N,
                                          anires.model_large_order_params())
        assert z == approx.resum(4e307, 0.5) > 0
        assert z * math.sqrt(4e307) == pytest.approx(approx.resum(1e100, 0.5) * 1e50, rel=1e-12)

    def test_approximant_dump(self, tmp_path):
        out = tmp_path / "r.csv"
        dump = tmp_path / "a.json"
        main(["model-resum", "--g4", "0.25", "--delta", "0", "--order", "4",
              "--out", str(out), "--dump-approximant", str(dump)])
        doc = json.loads(dump.read_text())
        assert doc["sigma"] == "4" and doc["N"] == 4


class TestQmResum:
    def test_with_vpt_baseline(self, tmp_path):
        out = tmp_path / "q.csv"
        assert main(["qm-resum", "--g4", "0.1", "--delta", "0.5", "--order", "6",
                     "--vpt-baseline", "11", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["delta", "e_resummed", "vpt_baseline"]
        resummed, baseline = float(rows[1][1]), float(rows[1][2])
        assert abs(resummed - baseline) / baseline < 0.008
        assert baseline == pytest.approx(1.134736659110728, rel=1e-12)

    def test_raw_g_applies_to_vpt_baseline(self, tmp_path, capsys):
        # --raw-g is not an option; g/4 = 1/10 reaches both columns as --g4 1/10
        args = ["qm-resum", "--delta", "0.5", "--order", "6", "--vpt-baseline", "11"]
        err = usage_error(args + ["--g4", "0.4", "--raw-g"], capsys)
        assert "unrecognized arguments: --raw-g" in err
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--g4", "1/10", "--out", str(a)]) == 0
        assert main(args + ["--g4", "0.1", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert float(read_csv(a)[1][2]) == pytest.approx(1.134736659110728, rel=1e-12)

    def test_strong_coupling(self, tmp_path):
        # g/4 = 1e200 gives the library's finite positive energy
        out = tmp_path / "q.csv"
        assert main(["qm-resum", "--g4", "1e200", "--delta", "1", "--order", "8",
                     "--out", str(out)]) == 0
        want = anires.qm_approximant(anires.benderwu_build(8).energy, 8).resum(1e200, 2.0)
        assert 0 < float(read_csv(out)[1][1]) == want < math.inf

    def test_sigma_flag(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["qm-resum", "--g4", "0.1", "--delta=-1.5", "--order", "6",
              "--sigma", "3", "--out", str(a)])
        main(["qm-resum", "--g4", "0.1", "--delta=-1.5", "--order", "6",
              "--sigma", "4", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()


class TestVptCommand:
    def test_columns_and_values(self, tmp_path):
        out = tmp_path / "v.csv"
        assert main(["vpt", "--g4", "0.1", "--delta", "0.5", "--orders", "1,5",
                     "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["k", "delta", "g_over_4", "omega_k", "W_k", "candidate_kind"]
        byk = {int(r[0]): r for r in rows[1:]}
        assert float(byk[5][4]) == pytest.approx(1.134734, abs=2e-6)
        assert byk[5][5] == "extremum"

    def test_min_omega_flag(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["vpt", "--g4", "1.0", "--delta", "0.5", "--orders", "9", "--out", str(a)])
        main(["vpt", "--g4", "1.0", "--delta", "0.5", "--orders", "9",
              "--min-omega", "--out", str(b)])
        wa = float(read_csv(a)[1][4])
        wb = float(read_csv(b)[1][4])
        assert wa < wb  # min-w picks the deeper stationary point here


class TestFigures:
    def test_fig4_convergence_ordering(self, tmp_path):
        out = tmp_path / "f.csv"
        assert main(["figures", "--which", "fig4", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["delta", "z_N2", "z_N4", "z_N6", "z_N8", "z_reference"]
        # errors against the reference column shrink with N at every delta
        for row in rows[1:]:
            ref = float(row[5])
            errs = [abs(float(row[i]) - ref) for i in (1, 2, 3, 4)]
            assert errs[0] >= errs[1] >= errs[2] >= errs[3]

    def test_fig8_uses_larger_sigma_by_default(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["figures", "--which", "fig8", "--out", str(a)])
        main(["figures", "--which", "fig8", "--sigma", "3", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_raw_g_flag(self, tmp_path, capsys):
        # fig7 defaults to g/4 = 1/10 and --g4 sets g/4; --raw-g, which fig7 once
        # took and ignored without --g4, is not an option
        err = usage_error(["figures", "--which", "fig7", "--raw-g"], capsys)
        assert "unrecognized arguments: --raw-g" in err
        a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
        main(["figures", "--which", "fig7", "--out", str(a)])
        main(["figures", "--which", "fig7", "--g4", "1/10", "--out", str(b)])
        main(["figures", "--which", "fig7", "--g4", "0.4", "--out", str(c)])
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_fig7_schema(self, tmp_path):
        out = tmp_path / "f.csv"
        assert main(["figures", "--which", "fig7", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["delta", "omega", "W"]
        assert len(rows) > 100

    def test_vpt_outputs_match_recorded_figures(self, tmp_path):
        # the recorded benchmark references, read and left as they are: fig7 is
        # W_5 on a grid, fig5's last column W_11 at its optimum
        ref = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "figures"
        a, b = tmp_path / "fig7.csv", tmp_path / "fig5.csv"
        assert main(["figures", "--which", "fig7", "--out", str(a)]) == 0
        assert a.read_bytes() == (ref / "fig7.csv").read_bytes()
        assert main(["figures", "--which", "fig5", "--out", str(b)]) == 0
        rows, expected = read_csv(b), read_csv(ref / "fig5.csv")
        assert rows[0][-1] == expected[0][-1] == "vpt_baseline"
        assert len(rows) == len(expected)
        for row, want in zip(rows[1:], expected[1:]):
            assert row[0] == want[0]
            assert float(row[-1]) == pytest.approx(float(want[-1]), rel=1e-14, abs=0), row[0]

    def test_fig2b_runs(self, tmp_path, capsys):
        out = tmp_path / "f.csv"
        assert main(["figures", "--which", "fig2b", "--out", str(out)]) == 0
        assert "k_cross=32" in capsys.readouterr().err


@pytest.mark.parametrize("argv, written, failed", [
    # model-resum fails at delta = 0.5 through the patched z_reference below
    (["model-resum", "--g4", "0.25", "--delta-range=0:1:0.5", "--order", "2"],
     ["0.0", "1.0"], ["delta=0.5"]),
    # the model integral needs delta < 2
    (["model-eval", "--g4", "0.1", "--delta-range", "1:3:1"],
     ["1.0"], ["delta=2.0", "delta=3.0"]),
    # W_0 = Omega has no stationary point; W_1 has one
    (["vpt", "--g4", "0.1", "--delta", "0.5", "--orders", "0,1"],
     ["0.5"], ["delta=0.5, k=0"]),
], ids=["model-resum", "model-eval", "vpt"])
def test_partial_failure_sets_exit_status(argv, written, failed, tmp_path, monkeypatch,
                                          capsys):
    # a grid point that raises is enumerated on stderr and flips the status;
    # the remaining points are still written
    import anires.cli as cli_mod

    real = cli_mod.model.z_reference

    def flaky(g, delta, spec):
        if abs(delta - 0.5) < 1e-12:
            raise RuntimeError("synthetic failure")
        return real(g, delta, spec)

    monkeypatch.setattr(cli_mod.model, "z_reference", flaky)
    out = tmp_path / "r.csv"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert [line.split(":")[0] for line in err.splitlines()] == [f"FAILED {p}" for p in failed]
    assert "Traceback" not in err
    rows = read_csv(out)
    column = rows[0].index("delta")
    assert [r[column] for r in rows[1:]] == written


@pytest.mark.parametrize("argv", [
    ["model-eval", "--g4", "abc", "--delta", "0"],
    ["model-eval", "--g4", "1/0", "--delta", "0"],
    ["vpt", "--g4", "0", "--delta", "0", "--orders", "1"],
    ["model-eval", "--g4=-1", "--delta", "0"],
    ["model-eval", "--delta", "0"],
    ["model-eval", "--g4", "0.1"],
    ["model-eval", "--g4", "0.1", "--delta", "0", "--delta-range", "0:1:1"],
    ["model-eval", "--g4", "0.1", "--delta", "x"],
    ["model-eval", "--g4", "0.1", "--delta-range", "a:b:c"],
    ["model-eval", "--g4", "0.1", "--delta-range", "1:2"],
    ["model-eval", "--g4", "0.1", "--delta-range", "1:0:1"],
    ["model-eval", "--g4", "0.1", "--delta-range", "0:1:0"],
    ["model-eval", "--g4", "0.1", "--delta", "0", "--tol", "nan"],
    ["model-crossover", "--delta", "abc"],
    ["model-crossover", "--delta", "3", "--kmax", "64"],
    ["qm-resum", "--g4", "0.1", "--delta", "0", "--sigma", "x"],
    ["qm-resum", "--g4", "0.1", "--delta", "0", "--sigma", "0"],
    ["figures", "--which", "fig5", "--sigma=-1"],
    ["vpt", "--g4", "0.1", "--delta", "0", "--orders", "1,x"],
    ["vpt", "--g4", "0.1", "--delta", "0", "--orders=-1"],
    ["qm-coeffs", "--kmax=-1"],
    ["qm-resum", "--g4", "0.1", "--delta", "0", "--order=-1"],
    ["qm-resum", "--g4", "0.1", "--delta", "0", "--vpt-baseline", "x"],
    # values that the float layers cannot hold
    ["model-eval", "--g4", "1e400", "--delta", "0"],
    ["qm-resum", "--g4", "0.1", "--delta", "1e400", "--order", "4"],
    ["figures", "--which", "fig5", "--g4", "1e-400"],
    ["model-eval", "--g4", "1e308", "--delta", "0"],
    ["model-eval", "--g4", "0.25", "--delta", "0", "--tol", "inf"],
    ["model-eval", "--g4", "0.25", "--delta", "0", "--tol", "1e400"],
    ["qm-resum", "--g4", "0.1", "--delta", "0", "--order", "4", "--sigma", "1e400"],
    ["qm-resum", "--g4", "0.1", "--delta", "0", "--order", "4", "--sigma", "1e-400"],
    ["figures", "--which", "fig5", "--sigma", "1e400"],
    ["figures", "--which", "fig5", "--sigma", "1e-400"],
    # no such command: qm-coeffs writes the E_kn table
    ["benderwu", "--kmax", "12"],
], ids=["g4", "g4-zero-denominator", "g4-zero", "g4-negative", "g4-missing", "delta-missing",
        "delta-and-range", "delta", "range-values", "range-parts", "range-empty",
        "range-step", "tol", "crossover-delta", "crossover-delta-domain", "sigma", "sigma-zero", "figures-sigma",
        "orders", "orders-negative", "kmax-negative", "order-negative", "vpt-baseline",
        "g4-overflow", "delta-overflow", "g4-underflow", "g-overflow", "tol-inf", "tol-overflow",
        "sigma-overflow", "sigma-underflow", "figures-sigma-overflow", "figures-sigma-underflow",
        "benderwu"])
def test_malformed_value_is_usage_error(argv, capsys):
    # a bad, missing or conflicting flag value stops before any work, with usage
    # and status 2
    usage_error(argv, capsys)


@pytest.mark.parametrize("sigma", ["1e-300", "1e300"])
@pytest.mark.parametrize("command", [
    ["qm-resum", "--g4", "0.1", "--delta", "0", "--order", "4"],
    ["figures", "--which", "fig5"],
], ids=["qm-resum", "figures"])
def test_sigma_leaving_no_float_coefficient_is_usage_error(command, sigma, tmp_path, capsys):
    # the value is a finite positive float, but some a_pn then has none: one
    # error line naming it, status 2, and no rows written
    out = tmp_path / "out.csv"
    err = usage_error(command + ["--sigma", sigma, "--out", str(out)], capsys)
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "argument --sigma: a_pn at (p, n) = (" in errors[0]
    assert not out.exists()


@pytest.mark.parametrize("which, flags", [
    (fig, flags) for fig in ("fig1", "fig2a", "fig2b")
    for flags in (["--g4", "5"], ["--g4", "5", "--sigma", "9"], ["--sigma", "9"],
                  ["--tol", "1e-3"])
] + [("fig4", ["--sigma", "3"]), ("fig7", ["--sigma", "3"]), ("fig7", ["--tol", "1e-3"])])
def test_figures_rejects_flag_the_figure_ignores(which, flags, capsys):
    # the output would not depend on the flag, so giving it is a usage error
    err = usage_error(["figures", "--which", which] + flags, capsys)
    assert f"does not use {', '.join(flag for flag in flags if flag.startswith('--'))}" in err


@pytest.mark.parametrize("which, flags", [
    ("fig4", ["--g4", "1/2"]), ("fig5", ["--g4", "1/5"]), ("fig7", ["--g4", "1/5"]),
    ("fig5", ["--sigma", "4"]), ("fig8", ["--sigma", "5"]),
])
def test_figures_reads_flag_it_accepts(which, flags, tmp_path):
    # a flag that a figure's _FIGURES entry accepts changes its output
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["figures", "--which", which, "--out", str(a)]) == 0
    assert main(["figures", "--which", which, *flags, "--out", str(b)]) == 0
    assert a.read_bytes() != b.read_bytes()


def _column(path, name):
    rows = read_csv(path)
    return [row[rows[0].index(name)] for row in rows[1:]]


def test_fig1_is_the_model_crossover_scan(tmp_path, capsys):
    a, b = tmp_path / "fig1.csv", tmp_path / "cross.csv"
    assert main(["figures", "--which", "fig1", "--out", str(a)]) == 0
    fig_err = capsys.readouterr().err
    assert main(["model-crossover", "--delta", "1/100", "--kmax", "4096", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert fig_err == capsys.readouterr().err


def test_fig4_reference_is_model_eval(tmp_path):
    a, b = tmp_path / "fig4.csv", tmp_path / "ref.csv"
    assert main(["figures", "--which", "fig4", "--out", str(a)]) == 0
    assert main(["model-eval", "--g4", "1/4", "--delta-range=-1:3/2:1/20", "--out", str(b)]) == 0
    for name in ("delta", "z_reference"):
        assert _column(a, name) == _column(b, name)


def test_fig5_columns_are_qm_resum(tmp_path):
    a, b = tmp_path / "fig5.csv", tmp_path / "energy.csv"
    assert main(["figures", "--which", "fig5", "--out", str(a)]) == 0
    assert main(["qm-resum", "--g4", "1/10", "--order", "8", "--vpt-baseline", "11",
                 "--delta-range=-3/2:2:1/10", "--out", str(b)]) == 0
    assert _column(a, "delta") == _column(b, "delta")
    assert _column(a, "e_N8") == _column(b, "e_resummed")
    assert _column(a, "vpt_baseline") == _column(b, "vpt_baseline")


def test_readme_commands_parse():
    # every `anires ...` line of the README's command-line block parses, so a
    # README that still shows a removed command or flag fails here
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True)
                for line in block.replace("\\\n", " ").splitlines() if line.startswith("anires ")]
    assert commands
    for argv in commands:
        build_parser().parse_args(argv[1:])


def test_closed_stdout_exits_quietly():
    # the reader is gone before any row is written, as with `anires ... | head -1`:
    # exit status 1 and nothing on stderr, no BrokenPipeError traceback
    src = os.path.dirname(os.path.dirname(anires.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys; from anires.cli import main; sys.exit(main(['qm-coeffs', '--kmax', '12']))"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-c", code], stdout=write_end,
                              stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=path),
                              timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


@pytest.mark.parametrize("which, delta, kmax", [("fig1", 0.01, 4096), ("fig2a", 1e-4, 8192),
                                                ("fig2b", 1.0, 4096)])
def test_crossover_figure_runs_one_legendre_recurrence(which, delta, kmax, tmp_path, monkeypatch):
    grids = []
    scan = anires.model.z_coeffs_delta_scaled

    def counted(ks, d):
        grids.append((list(ks), d))
        return scan(ks, d)

    monkeypatch.setattr(anires.model, "z_coeffs_delta_scaled", counted)
    assert main(["figures", "--which", which, "--out", str(tmp_path / "f.csv")]) == 0
    assert grids == [([16 * 2**i for i in range(kmax.bit_length() - 4)], delta)]
