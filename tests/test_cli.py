import contextlib
import io
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwire import cli, lattice, numerics, pst, spinchain
from qwire.errors import InvalidConfigError, RegisterTooLargeError


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "qwire", *args],
        capture_output=True,
        text=True,
    )


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestDispersionCommand:
    def test_ring_d6(self):
        proc = run_cli("dispersion", "--topology", "ring", "--d", "6", "--A", "1")
        assert proc.returncode == 0
        header, rows = parse_csv(proc.stdout)
        assert header == ["j", "k_b", "energy", "eigenvalue", "deviation"]
        assert len(rows) == 6
        energies = sorted(float(r[2]) for r in rows)
        assert np.allclose(energies, [-2, -1, -1, 1, 1, 2], atol=1e-12)

    def test_line_with_offsets(self):
        proc = run_cli("dispersion", "--topology", "line", "--d", "13",
                       "--E0", "2", "--A", "0.5")
        assert proc.returncode == 0
        _, rows = parse_csv(proc.stdout)
        assert len(rows) == 13
        assert all(float(r[4]) <= 1e-10 for r in rows)

    def test_small_d_rejected(self):
        proc = run_cli("dispersion", "--topology", "ring", "--d", "1")
        assert proc.returncode == 2
        assert "d must be >= 2" in proc.stderr

    @pytest.mark.parametrize("flags", [("--topology", "ring", "--d", "6", "--A", "1e308"),
                                       ("--topology", "ring", "--d", "2", "--A", "1e308"),
                                       ("--topology", "line", "--d", "5", "--E0", "1e308",
                                        "--A=-1e308")])
    def test_overflowing_band_exits_two(self, capsys, flags):
        # refused before the eigensolve, not reported as a residual failure
        code = cli.main(["dispersion", *flags])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: band edge |E0| + 2|A| max|cos k_j b| overflows")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("flags", [("--d", "4", "--A", "1e308"),
                                       ("--d", "4", "--A=-1e308"),
                                       ("--d", "2", "--E0=-1e308", "--A", "7.7e307")])
    def test_line_below_the_ring_edge_is_solved(self, capsys, flags):
        # a line's levels reach |E0| + 2|A| cos(pi/(d+1)), short of the
        # ring's |E0| + 2|A|, which overflows for these flags
        code = cli.main(["dispersion", "--topology", "line", *flags, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        energies = [abs(r["energy"]) for r in payload["rows"]]
        assert not math.isfinite(abs(payload["E0"]) + 2 * abs(payload["A"]))
        assert code == 0 and math.isfinite(payload["max_deviation"])
        assert payload["max_deviation"] <= 1e-10 * max(energies)

    @pytest.mark.parametrize("flags", [("--A", "3e5"), ("--E0", "1e6")])
    def test_large_energies_pass_the_relative_limit(self, capsys, flags):
        # deviations of 1-3 ulp of energies near 6e5 and 1e6 exceed 1e-10
        # absolute, but not 1e-10 relative to max |energy|
        code = cli.main(["dispersion", "--topology", "ring", "--d", "64", *flags,
                         "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["max_deviation"] <= 1e-10 * max(abs(r["energy"]) for r in payload["rows"])

    def test_csv_round_trips(self):
        proc = run_cli("dispersion", "--topology", "ring", "--d", "5")
        _, rows = parse_csv(proc.stdout)
        for row in rows:
            for cell in row[1:]:
                assert repr(float(cell)) == cell

    def test_json_format(self):
        proc = run_cli("dispersion", "--topology", "ring", "--d", "4", "--format", "json")
        payload = json.loads(proc.stdout)
        assert payload["max_deviation"] <= 1e-10
        assert len(payload["rows"]) == 4

    # d from 128 up takes the parity-block solve
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(topology=st.sampled_from(["ring", "line"]),
           d=st.one_of(st.integers(2, 40), st.sampled_from([128, 129, 256, 257])),
           E0=st.floats(-1e6, 1e6), A=st.floats(-1e6, 1e6))
    def test_max_deviation_is_dispersion_check(self, topology, d, E0, A):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["dispersion", "--topology", topology, "--d", str(d),
                             f"--E0={E0!r}", f"--A={A!r}", "--format", "json"])
        assert code in (0, 1)
        reported = json.loads(out.getvalue())["max_deviation"]
        expected = lattice.dispersion_check(lattice.uniform_chain(d, topology, E0, A))
        assert reported.hex() == expected.hex()


class TestWeylCheckCommand:
    def test_d8_report(self):
        proc = run_cli("weyl-check", "--d", "8")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert list(payload) == [
            "d", "phase_re", "phase_im", "shift_pow_residual", "clock_pow_residual",
            "commutation_residual", "global_phase_re", "global_phase_im",
            "residual", "holds",
        ]
        assert abs(payload["phase_re"] - math.cos(2 * math.pi / 8)) <= 1e-12
        assert abs(payload["phase_im"] + math.sin(2 * math.pi / 8)) <= 1e-12
        assert payload["holds"] is True

    def test_d2_anticommuting_pair(self):
        payload = json.loads(run_cli("weyl-check", "--d", "2").stdout)
        assert abs(payload["phase_re"] + 1.0) <= 1e-12
        assert abs(payload["phase_im"]) <= 1e-12

    def test_d1_rejected(self):
        proc = run_cli("weyl-check", "--d", "1")
        assert proc.returncode == 2


class TestPstCommand:
    def test_transfer_chain(self, tmp_path):
        out = tmp_path / "curve.csv"
        proc = run_cli("pst", "--d", "8", "--vartheta", "1", "--t-max", "3.2",
                       "--samples", "400", "--output", str(out))
        assert proc.returncode == 0
        summary = json.loads(proc.stdout)
        assert list(summary) == ["d", "vartheta", "t_star", "peak_fidelity",
                                 "period", "uniform"]
        assert summary["peak_fidelity"] >= 1 - 1e-8
        assert abs(summary["t_star"] - math.pi / 2) <= 1e-12
        header, rows = parse_csv(out.read_text())
        assert header == ["t", "fidelity"]
        assert len(rows) == 400
        # the sampled curve peaks next to the reported crossing time
        best = max(rows, key=lambda r: float(r[1]))
        assert abs(float(best[0]) - summary["t_star"]) <= 3.2 / 399

    def test_uniform_contrast_still_exits_zero(self, tmp_path):
        out = tmp_path / "uniform.csv"
        proc = run_cli("pst", "--d", "8", "--vartheta", "1", "--t-max", "20",
                       "--samples", "500", "--uniform", "--output", str(out))
        assert proc.returncode == 0
        summary = json.loads(proc.stdout)
        assert summary["uniform"] is True
        assert summary["peak_fidelity"] < 1.0

    def test_two_site_peak_at_quarter_period(self, tmp_path):
        out = tmp_path / "d2.csv"
        proc = run_cli("pst", "--d", "2", "--vartheta", "1", "--t-max", "3.2",
                       "--samples", "400", "--output", str(out))
        summary = json.loads(proc.stdout)
        assert abs(summary["t_star"] - math.pi / 2) <= 1e-12

    def test_largest_vartheta_exits_zero(self, tmp_path):
        # 2 * vartheta overflows at 1.7e308; the crossing time must not
        proc = run_cli("pst", "--d", "2", "--samples", "3", "--vartheta", "1.7e308",
                       "--output", str(tmp_path / "curve.csv"))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["peak_fidelity"] >= 1 - 1e-10

    # 2 * t* = 2 * ((pi/2)/vartheta) misses pi/vartheta by an ulp where it
    # is subnormal, so both branches print pi/vartheta itself
    @pytest.mark.parametrize("vartheta", ["1.4203703703703703e+308", "1.7e308", "0.3"])
    def test_both_branches_print_one_period(self, capsys, vartheta):
        periods = []
        for flags in [(), ("--uniform",)]:
            assert cli.main(["pst", "--d", "2", "--vartheta", vartheta, "--samples", "3",
                             "--format", "json", *flags]) == 0
            periods.append(json.loads(capsys.readouterr().err)["period"])
        assert periods[0].hex() == periods[1].hex() == pst._period(float(vartheta)).hex()

    # the uniform line's levels overflow: the refusal names vartheta, not the time
    def test_overflowing_uniform_band_edge_names_vartheta(self, capsys):
        assert cli.main(["pst", "--d", "4", "--uniform", "--vartheta", "1.7e308",
                         "--samples", "3"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: the band edge")
        assert "vartheta=1.7e+308" in err

    # at d = 13, np.cos(pi/14) rounds one ulp above math.cos: the line's own
    # band-edge rule refuses this vartheta before any eigensolve
    def test_uniform_band_edge_is_the_line_rule(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("an eigensolve was made")

        with monkeypatch.context() as patch:
            patch.setattr(numerics, "_hermitian_solve", refuse)
            assert cli.main(["pst", "--d", "13", "--uniform", "--vartheta",
                             "9.219620817087893e+307", "--t-max", "1", "--samples", "3"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: the band edge")
        assert "vartheta=9.219620817087893e+307 at d=13" in err
        with pytest.raises(InvalidConfigError):
            lattice.dispersion(lattice.LINE, 13, 0.0, 9.219620817087893e+307)
        assert cli.main(["pst", "--d", "4", "--uniform", "--vartheta", "1e308",
                         "--samples", "3"]) == 0

    # a period pi/vartheta that overflows was a ValueError traceback at
    # 5e-324, and "period": Infinity at 1e-308
    @pytest.mark.parametrize("flags", [
        ("--t-max", "inf"), ("--vartheta", "inf", "--t-max", "1"),
        ("--vartheta", "5e-324", "--t-max", "1"), ("--vartheta", "1e-308", "--t-max", "1"),
        ("--uniform", "--vartheta", "1e-308", "--t-max", "1"),
    ])
    def test_non_finite_time_scale_rejected(self, flags):
        proc = run_cli("pst", "--d", "4", "--samples", "3", *flags)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "finite" in proc.stderr
        assert "Traceback" not in proc.stderr

    # without --t-max the period pi/vartheta is the default t-max; its
    # overflow was reported as "t-max must be positive and finite, got inf"
    @pytest.mark.parametrize("flags", [(), ("--uniform",)], ids=["transfer", "uniform"])
    def test_overflowing_default_t_max_names_vartheta(self, capsys, flags):
        code = cli.main(["pst", "--d", "4", "--vartheta", "1e-308", *flags])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == "error: the period pi/vartheta must be finite, got vartheta=1e-308\n"

    def test_bad_samples_rejected(self):
        proc = run_cli("pst", "--d", "4", "--samples", "1")
        assert proc.returncode == 2
        assert "samples" in proc.stderr

    @pytest.mark.parametrize("d", [8, 129, 200])
    def test_one_eigensolve_per_run(self, d, capsys, monkeypatch):
        # the curve and the crossing report share one spectral decomposition
        solves = []
        solve = numerics._hermitian_solve

        def counting(matrix, *args):
            solves.append(matrix.shape)
            return solve(matrix, *args)

        monkeypatch.setattr(numerics, "_hermitian_solve", counting)
        assert cli.main(["pst", "--d", str(d), "--samples", "50"]) == 0
        assert solves == [(d, d)]
        summary = json.loads(capsys.readouterr().err)
        assert summary["peak_fidelity"] == pst.transfer_time(d, 1.0).peak_fidelity

    def test_overflowing_phases_rejected(self):
        # finite flags, but max |lambda| * t-max = 3e308 overflows: NaN phases before
        proc = run_cli("pst", "--d", "4", "--t-max", "1e308")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: evolution phases overflow")
        assert "Traceback" not in proc.stderr


class TestSectorCheckCommand:
    def test_uniform_chain(self):
        proc = run_cli("sector-check", "--n", "6")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert list(payload) == ["n", "pst", "max_deviation", "holds"]
        assert payload["max_deviation"] <= 1e-12

    def test_transfer_profile(self):
        proc = run_cli("sector-check", "--n", "4", "--pst")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["pst"] is True
        assert payload["holds"] is True

    @pytest.mark.parametrize("n", [2, 4, 6, 9, 10])
    @pytest.mark.parametrize("flags", [(), ("--pst",)], ids=["uniform", "pst"])
    def test_block_equals_the_reference_exactly(self, capsys, n, flags):
        assert cli.main(["sector-check", "--n", str(n), *flags, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["max_deviation"] == 0.0

    @pytest.mark.parametrize("n", range(2, 11))
    @pytest.mark.parametrize("profile", [False, True], ids=["seeded", "pst"])
    def test_gauge_conjugated_chain_equals_the_block(self, n, profile):
        # the reference the command built before: the lattice chain (-A_j on
        # bond j) under the alternating sign gauge, or with --pst the
        # transfer Hamiltonian
        rng = np.random.default_rng(n)
        rate = rng.uniform(0.5, 2.0)
        couplings = pst.pst_couplings(n, rate) if profile else rng.uniform(-2.0, 2.0, n - 1)
        full = spinchain.xy_chain_hamiltonian(couplings)
        block = spinchain.single_excitation_sector(full, spinchain.sector_map(n)).matrix
        chain = lattice.build_hamiltonian(lattice.ChainSpec(n, lattice.LINE, 0.0, couplings))
        gauge = np.diag((-1.0) ** np.arange(n))
        assert np.array_equal(gauge @ chain.matrix @ gauge, block)
        if profile:
            assert np.array_equal(pst.pst_hamiltonian(n, rate).matrix, block)

    def test_n1_rejected(self):
        assert run_cli("sector-check", "--n", "1").returncode == 2

    def test_cap_exceeded(self):
        proc = run_cli("sector-check", "--n", "11")
        assert proc.returncode == 3
        assert "cap" in proc.stderr


class TestOptimizeCommand:
    def test_recovers_profile(self, tmp_path):
        out = tmp_path / "opt.json"
        proc = run_cli("optimize", "--d", "4", "--t-target", "1.5707963",
                       "--init", "uniform", "--seed", "7", "--output", str(out))
        assert proc.returncode == 0
        payload = json.loads(out.read_text())
        assert list(payload) == ["d", "couplings", "fidelity", "iterations", "converged"]
        assert payload["converged"] is True
        assert payload["fidelity"] >= 0.999
        target = np.array([math.sqrt(3), 2.0, math.sqrt(3)]) / 2.0
        recovered = np.abs(payload["couplings"])
        assert np.all(np.abs(recovered - target) <= 0.02 * target)

    def test_two_site_coupling_after_gauge_fix(self):
        proc = run_cli("optimize", "--d", "2", "--t-target", "1.5707963267948966",
                       "--init", "random", "--seed", "5")
        payload = json.loads(proc.stdout)
        assert abs(payload["couplings"][0]) == 1.0

    def test_seed_reproducibility(self, tmp_path):
        args = ("optimize", "--d", "3", "--t-target", "2.0", "--init", "random",
                "--seed", "11")
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        run_cli(*args, "--output", str(first))
        run_cli(*args, "--output", str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_bad_t_target_rejected(self):
        proc = run_cli("optimize", "--d", "4", "--t-target", "-1")
        assert proc.returncode == 2

    @pytest.mark.parametrize("t_target", ["inf", "nan"])
    def test_non_finite_t_target_rejected(self, t_target):
        proc = run_cli("optimize", "--d", "4", "--t-target", t_target)
        assert proc.returncode == 2
        assert "t-target" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_negative_seed_rejected(self):
        proc = run_cli("optimize", "--d", "4", "--t-target", "1.5", "--seed", "-1")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and "seed" in proc.stderr
        assert proc.stdout == ""


class TestExitCodesAndDeterminism:
    CASES = [
        ("dispersion", "--topology", "ring", "--d", "6"),
        ("weyl-check", "--d", "5"),
        ("pst", "--d", "4", "--t-max", "3.2", "--samples", "50"),
        ("sector-check", "--n", "4"),
        ("optimize", "--d", "3", "--t-target", "1.6", "--seed", "2",
         "--max-iters", "200"),
    ]

    @pytest.mark.parametrize("args", CASES, ids=lambda a: a[0])
    def test_byte_identical_across_runs(self, args):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout
        assert first.stderr == second.stderr
        assert first.returncode == second.returncode

    def test_unknown_command_is_usage_error(self):
        assert run_cli("frobnicate").returncode == 2

    def test_missing_required_flag_is_usage_error(self):
        assert run_cli("weyl-check").returncode == 2

    def test_one_parser_per_process_repeats_every_run(self, capsys):
        # the parser is built once and shared: a good run, a flag argparse
        # refuses (SystemExit 2), one the command refuses (exit 2) and the
        # good run again give the same bytes and codes each time
        def outcome(argv):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            return (code, *capsys.readouterr())

        good = ["pst", "--d", "4", "--t-max", "3.2", "--samples", "5"]
        bad = [["pst", "--d", "four"], ["pst", "--d", "4", "--samples", "1"]]
        first = [outcome(argv) for argv in (good, *bad)]
        again = [outcome(argv) for argv in (good, *bad, good)]
        assert again == [*first, first[0]]
        assert [code for code, _, _ in first] == [0, 2, 2]
        assert first[0][2] and all(err.startswith(("usage:", "error:")) for _, _, err in first[1:])
        assert cli.build_parser() is cli.build_parser()


class TestInProcessFormats:
    """Every subcommand through `cli.main` in both formats: the JSON and CSV
    forms of one run carry the same numbers."""

    @staticmethod
    def _main(capsys, *args):
        code = cli.main(list(args))
        out, err = capsys.readouterr()
        return code, out, err

    def test_dispersion(self, capsys):
        args = ("dispersion", "--topology", "line", "--d", "5", "--E0", "0.5")
        code, csv_text, _ = self._main(capsys, *args)
        assert code == 0
        code, json_text, _ = self._main(capsys, *args, "--format", "json")
        assert code == 0
        header, rows = parse_csv(csv_text)
        payload = json.loads(json_text)
        assert list(payload) == ["topology", "d", "E0", "A", "max_deviation", "rows"]
        assert [list(r) for r in payload["rows"]] == [header] * 5
        for row, record in zip(rows, payload["rows"]):
            assert row == [repr(v) for v in record.values()]

    def test_weyl_check_csv(self, capsys):
        code, json_text, _ = self._main(capsys, "weyl-check", "--d", "6")
        code_csv, csv_text, _ = self._main(capsys, "weyl-check", "--d", "6", "--format", "csv")
        assert code == code_csv == 0
        payload = json.loads(json_text)
        header, rows = parse_csv(csv_text)
        assert header == list(payload)
        assert rows == [[json.dumps(v) for v in payload.values()]]

    def test_pst_json(self, capsys, tmp_path):
        args = ("pst", "--d", "5", "--t-max", "3.0", "--samples", "31")
        code, csv_text, csv_summary = self._main(capsys, *args)
        assert code == 0
        code, json_text, json_summary = self._main(capsys, *args, "--format", "json")
        assert code == 0
        assert csv_summary == json_summary
        assert json.loads(json_summary)["uniform"] is False
        payload = json.loads(json_text)
        assert list(payload) == ["source", "target", "times", "fidelities"]
        assert (payload["source"], payload["target"]) == (0, 4)
        _, rows = parse_csv(csv_text)
        assert rows == [[repr(t), repr(f)] for t, f in
                        zip(payload["times"], payload["fidelities"])]
        # with --output the summary moves to stdout
        out = tmp_path / "curve.json"
        code, stdout, stderr = self._main(capsys, *args, "--format", "json",
                                          "--output", str(out))
        assert code == 0 and stderr == ""
        assert stdout == json_summary
        assert out.read_text() == json_text

    @staticmethod
    def _refuse_constant(name):
        raise ValueError(f"{name} is not JSON")

    @pytest.mark.parametrize("args", [
        ("dispersion", "--topology", "ring", "--d", "6"),
        ("weyl-check", "--d", "8"),
        ("pst", "--d", "8", "--samples", "50"),
        ("pst", "--d", "2", "--samples", "3", "--vartheta", "1.7e308"),
        ("pst", "--d", "4", "--vartheta", "1e-300", "--t-max", "1", "--samples", "5"),
        ("pst", "--d", "5", "--t-max", "20", "--samples", "200", "--uniform"),
        ("pst", "--d", "4", "--uniform", "--vartheta", "1e308", "--samples", "5"),
        ("sector-check", "--n", "4", "--pst"),
        ("optimize", "--d", "4", "--t-target", "1.5707963", "--init", "uniform"),
    ], ids=["dispersion", "weyl-check", "pst", "pst-largest-vartheta", "pst-small-vartheta",
            "pst-uniform", "pst-uniform-large-vartheta", "sector-check", "optimize"])
    def test_json_has_no_nan_or_infinity(self, capsys, args):
        # json.dumps writes NaN, Infinity and -Infinity, which JSON does not have
        code, out, err = self._main(capsys, *args, "--format", "json")
        assert code == 0
        json.loads(out, parse_constant=self._refuse_constant)
        if args[0] == "pst":
            json.loads(err, parse_constant=self._refuse_constant)
        else:
            assert err == ""

    def test_sector_check_csv(self, capsys):
        _, json_text, _ = self._main(capsys, "sector-check", "--n", "5", "--pst")
        code, csv_text, _ = self._main(capsys, "sector-check", "--n", "5", "--pst",
                                       "--format", "csv")
        assert code == 0
        header, rows = parse_csv(csv_text)
        payload = json.loads(json_text)
        assert header == ["n", "pst", "max_deviation", "holds"]
        assert rows == [[json.dumps(v) for v in payload.values()]]

    def test_optimize_csv(self, capsys):
        args = ("optimize", "--d", "3", "--t-target", "2.0", "--seed", "1")
        _, json_text, _ = self._main(capsys, *args)
        code, csv_text, _ = self._main(capsys, *args, "--format", "csv")
        assert code == 0
        header, rows = parse_csv(csv_text)
        assert header == ["j", "coupling"]
        couplings = json.loads(json_text)["couplings"]
        assert rows == [[str(j + 1), repr(a)] for j, a in enumerate(couplings)]

    def test_uncertified_weyl_pair_exits_one(self, capsys, monkeypatch):
        def refuse(d):
            raise ValueError("clock^d deviates from identity")

        monkeypatch.setattr(cli.weyl, "weyl_pair", refuse)
        code, out, err = self._main(capsys, "weyl-check", "--d", "4")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "certification" in err

    def test_library_error_exits_two(self, capsys):
        # the flags pass the CLI's checks, but the couplings would overflow to inf
        code, out, err = self._main(capsys, "pst", "--d", "4", "--samples", "3",
                                    "--vartheta", "1e308", "--t-max", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "vartheta" in err

    @pytest.mark.parametrize("tol", ["inf", "nan", "0"])
    def test_bad_tol_exits_two(self, capsys, tol):
        code, out, err = self._main(capsys, "optimize", "--d", "3", "--t-target", "1",
                                    "--tol", tol)
        assert code == 2
        assert out == "" and "tol" in err

    @pytest.mark.parametrize("flags, name", [
        (("--d", "1"), "d"), (("--max-iters", "0"), "max_iters"), (("--seed", "-1"), "seed"),
    ])
    def test_config_rule_exits_two(self, capsys, flags, name):
        # OptimizeConfig's own rule, not a copy in the CLI, turns the flag away
        code, out, err = self._main(capsys, "optimize", "--d", "3", "--t-target", "1", *flags)
        assert code == 2
        assert out == "" and err.startswith(f"error: {name} must be >= ")

    def test_register_cap_in_library_exits_three(self, capsys, monkeypatch):
        # the exit code follows the exception type, wherever it is raised
        def refuse(couplings):
            raise RegisterTooLargeError("n = 13 exceeds cap 12")

        monkeypatch.setattr(cli.spinchain, "xy_chain_hamiltonian", refuse)
        code, out, err = self._main(capsys, "sector-check", "--n", "4")
        assert code == 3
        assert out == ""
        assert err == "error: n = 13 exceeds cap 12\n"


def _reference_csv(header, rows) -> str:
    """The former per-cell emitter, kept as an equality oracle for `cli._csv`."""
    def cell(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return repr(float(value))

    lines = [",".join(header)]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


class TestColumnEmitter:
    """`cli._csv` takes a table's columns and picks one formatter per
    column; its bytes equal the former per-cell emitter's, fed the same
    table as rows, on every subcommand's table and on the one-row payload
    fallback."""

    COMMANDS = [
        ("dispersion", "--topology", "ring", "--d", "9", "--E0", "-0.3", "--A", "1.7"),
        ("dispersion", "--topology", "line", "--d", "130"),
        ("weyl-check", "--d", "6"),
        ("pst", "--d", "129", "--samples", "300"),
        ("pst", "--d", "7", "--uniform", "--t-max", "12", "--samples", "101"),
        ("sector-check", "--n", "5", "--pst"),
        ("optimize", "--d", "4", "--t-target", "1.5707963267948966", "--seed", "3"),
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: " ".join(a[:2]))
    def test_subcommand_tables(self, argv):
        args = cli.build_parser().parse_args(argv)
        result = cli._COMMANDS[args.command](args)
        header, columns = result.table or (list(result.payload),
                                           [(v,) for v in result.payload.values()])
        assert cli._csv(header, columns) == _reference_csv(header, list(zip(*columns)))

    def test_payload_fallback_with_every_cell_type(self):
        payload = {"holds": True, "fails": False, "n": 3, "m": np.int64(-4), "x": 0.1,
                   "y": np.float64(5e-324), "z": -0.0, "w": math.inf, "v": math.nan,
                   "u": np.float32(0.1), "flag": np.bool_(True), "big": 10**20}
        columns = [(v,) for v in payload.values()]
        text = cli._csv(list(payload), columns)
        assert text == _reference_csv(list(payload), list(zip(*columns)))
        assert text.split("\n")[1].split(",")[:5] == ["true", "false", "3", "-4", "0.1"]

    @pytest.mark.parametrize("columns", [
        ([], []),
        ([1.5], [2]),
        ([True, False], [1.0, 2.5]),
        ([1, True, np.int32(7)], [0.5, 1e300, -1e-300]),  # mixed columns
    ], ids=["empty", "one-row", "bool-column", "mixed"])
    def test_edge_tables(self, columns):
        expected = _reference_csv(["a", "b"], list(zip(*columns)))
        assert cli._csv(["a", "b"], columns) == expected

    def test_float64_array_taken_by_its_dtype(self):
        class Uniterable(np.ndarray):
            def __iter__(self):
                raise AssertionError("a float64 array was scanned cell by cell")

        cells = np.array([0.1, -0.0, 5e-324, -1.7976931348623157e308, math.inf, math.nan, 1e16])
        column = cells.view(Uniterable)
        expected = _reference_csv(["a", "b"], list(zip(cells.tolist(), range(7))))
        assert cli._csv(["a", "b"], (column, range(7))) == expected
        assert cli._fmt_column(column) == [repr(v) for v in cells.tolist()]

    @pytest.mark.parametrize("column", [
        (0.1, -0.0, 1e300, math.inf),
        [np.float64(5e-324), 0.5],
        range(1, 5),
        [True],
        [7],
        [0.1],
    ], ids=["float-tuple", "list-with-float64", "range", "bool-cell", "int-cell", "float-cell"])
    def test_any_other_column_goes_cell_by_cell(self, column):
        assert cli._fmt_column(column) == [cli._fmt_cell(v) for v in column]


class TestRejectionTable:
    """Every numeric flag of every subcommand at nan, inf, 0 and -1 through
    `cli.main`.  A value outside the flag's domain exits 2 with one
    `error: ` line on stderr and nothing on stdout; an uncaught exception
    (a traceback from the console script) fails the test.  argparse turns
    nan and inf away from an int flag itself, with its usage message."""

    COMMANDS = {
        "dispersion": (("dispersion", "--topology", "ring", "--d", "4"),
                       {"--d": int, "--E0": float, "--A": float}),
        "weyl-check": (("weyl-check", "--d", "4"), {"--d": int}),
        "pst": (("pst", "--d", "4", "--samples", "3"),
                {"--d": int, "--vartheta": float, "--t-max": float, "--samples": int}),
        "sector-check": (("sector-check", "--n", "4"), {"--n": int}),
        "optimize": (("optimize", "--d", "2", "--t-target", "1.5707963267948966"),
                     {"--d": int, "--t-target": float, "--max-iters": int, "--tol": float,
                      "--seed": int}),
    }
    # inside the domain: an on-site energy or coupling may be 0 or negative
    ACCEPTED = {("dispersion", "--E0", "0"), ("dispersion", "--E0", "-1"),
                ("dispersion", "--A", "0"), ("dispersion", "--A", "-1"),
                ("optimize", "--seed", "0")}
    CASES = [(command, flag, value) for command, (_, flags) in COMMANDS.items()
             for flag in flags for value in ("nan", "inf", "0", "-1")]

    @pytest.mark.parametrize("command, flag, value", CASES,
                             ids=[f"{c}{f}={v}" for c, f, v in CASES])
    def test_flag_value(self, capsys, command, flag, value):
        base, flags = self.COMMANDS[command]
        if flags[flag] is int and value in ("nan", "inf"):
            with pytest.raises(SystemExit) as excinfo:
                cli.main([*base, flag, value])
            out, err = capsys.readouterr()
            assert excinfo.value.code == 2 and out == ""
            assert f"error: argument {flag}: invalid int value: '{value}'" in err
            return
        code = cli.main([*base, flag, value])
        out, err = capsys.readouterr()
        if (command, flag, value) in self.ACCEPTED:
            assert code == 0
        else:
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("pst_flag", [(), ("--pst",)], ids=["uniform", "pst"])
    @pytest.mark.parametrize("n", ["1", "0", "-3"])
    def test_small_sector_refused_naming_n(self, capsys, n, pst_flag):
        # the flag is --n, so the error names n, not the builders' d
        code = cli.main(["sector-check", "--n", n, *pst_flag])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"error: n must be >= 2, got {n}\n"

    @pytest.mark.parametrize("d", ["1", "0", "-1"])
    def test_small_weyl_dimension_is_not_a_certification_failure(self, capsys, d):
        code = cli.main(["weyl-check", "--d", d])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"error: d must be >= 2, got {d}\n"

    @pytest.mark.parametrize("flags", [(), ("--uniform", "--vartheta", "5e-324")],
                             ids=["transfer", "uniform"])
    def test_largest_t_max_refused_in_one_line(self, flags):
        # linspace's last point 9*(t_max/9) overflows before linspace sets it
        # to t_max; numpy's overflow warning printed two lines before the error
        proc = run_cli("pst", "--d", "4", "--t-max", "1.7976931348623157e308",
                       "--samples", "10", *flags)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def _reject_constant(name):
    raise ValueError(f"JSON output holds {name}")


# flag values at the edges of the float range, and small integers
_REAL_VALUES = ["nan", "inf", "-inf", "0", "-0", "5e-324", "1e-308", "1e308",
               "1.7976931348623157e308", "2.25e14", *map(str, range(-3, 4))]
_REALS = st.sampled_from(_REAL_VALUES)
_OPTIONAL_REALS = st.sampled_from([None, *_REAL_VALUES])  # None leaves the flag out
_DIMS = st.integers(-1, 8).map(str)

# subcommand -> flag -> its strategy (a bool draws a switch)
_ARGV_FLAGS = {
    "dispersion": {"--topology": st.sampled_from(["ring", "line"]), "--d": _DIMS,
                   "--E0": _OPTIONAL_REALS, "--A": _OPTIONAL_REALS},
    "weyl-check": {"--d": _DIMS},
    "pst": {"--d": _DIMS, "--vartheta": _OPTIONAL_REALS, "--t-max": _OPTIONAL_REALS,
            "--samples": st.sampled_from(["2", "3", "10", "50"]), "--uniform": st.booleans()},
    "sector-check": {"--n": st.sampled_from([*map(str, range(-1, 7)), "11"]),
                     "--pst": st.booleans()},
    "optimize": {"--d": _DIMS, "--t-target": _REALS,
                 "--max-iters": st.integers(-1, 50).map(str), "--tol": _OPTIONAL_REALS,
                 "--seed": st.integers(0, 3).map(str),
                 "--init": st.sampled_from(["uniform", "random"])},
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_ARGV_FLAGS)))
    argv = [command, "--format", draw(st.sampled_from(["csv", "json"]))]
    for flag, strategy in _ARGV_FLAGS[command].items():
        value = draw(strategy)
        if value is True:
            argv.append(flag)
        elif value not in (None, False):
            argv.append(f"{flag}={value}")  # argparse reads a bare -inf as a flag
    return argv


class TestArgvProperty:
    """Any argv built from edge values of every flag ends in an exit code
    the CLI documents: 2 and 3 print one `error:` line and nothing on
    stdout, and JSON output parses with no NaN or Infinity.  A warning or
    an uncaught exception fails the run."""

    @settings(max_examples=2000, deadline=None, derandomize=True)
    @given(argv=_argv())
    def test_exit_code_and_streams(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = cli.main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2, 3)
        if code in (2, 3):
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        elif out and argv[2] == "json":
            json.loads(out, parse_constant=_reject_constant)
