import hashlib
import json
import resource
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest

from gsmult import derivpoly, gsfunc, identities, precision, probe, wedge
from gsmult._util import format_mpf
from gsmult.cli import _print_check, _witness_repr, dispatch
from gsmult.precision import PrecisionError

from conftest import package_env


def run(argv):
    return dispatch(argv)


class TestExitCodes:
    def test_verify_coeffs_ok(self, capsys):
        assert run(["verify", "coeffs", "--m", "3", "--kmax", "10"]) == 0
        assert "certified" in capsys.readouterr().out

    def test_unknown_flag_rejected(self):
        assert run(["verify", "coeffs", "--m", "3", "--kmax", "5", "--bogus"]) == 2

    def test_missing_subcommand_rejected(self):
        assert run([]) == 2
        assert run(["verify"]) == 2

    def test_failing_check_exits_one(self, capsys):
        # impossible slope tolerance forces the bound check to report failure
        assert run(["gs", "bound", "--theta", "1", "--kmax", "8", "--slope-tol", "-1"]) == 1

    def test_threads_flag_rejected(self, tmp_path):
        assert run(["--threads", "2", "table", "--m", "2", "--kmax", "4", "--out", str(tmp_path / "t.json")]) == 2

    @pytest.mark.parametrize(
        "exc",
        [
            PrecisionError("budget of 256 bits\nexhausted"),
            RuntimeError("boom"),
            ValueError("Exceeds the limit (4300 digits) for integer string conversion"),
        ],
    )
    def test_crash_exits_three(self, monkeypatch, capsys, exc):
        def crash(*args, **kwargs):
            raise exc

        monkeypatch.setattr(gsfunc, "verify_gs_bound", crash)
        assert run(["gs", "bound", "--theta", "1", "--kmax", "8"]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and type(exc).__name__ in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["gs", "bound", "--theta", "1/2", "--kmax", "10", "--precision-bits", "256"],
             "unrecognized arguments: --precision-bits 256"),
            (["gs", "seminorm", "--kind", "h", "--h", "1", "--theta", "1", "--s", "1", "--kmax", "2", "--csv", "h.csv",
              "--precision-bits", "256"], "unrecognized arguments: --precision-bits 256"),
            (["probe", "run", "--m", "2", "--theta", "1", "--nu", "1", "--kmax", "4", "--csv", "p.csv",
              "--precision-bits", "256"], "unrecognized arguments: --precision-bits 256"),
            (["--precision-bits", "128", "table", "--m", "2", "--kmax", "4", "--out", "t.json"],
             "argument command: invalid choice: '128'"),
            (["--precision-bits=128", "table", "--m", "2", "--kmax", "4", "--out", "t.json"],
             "unrecognized arguments: --precision-bits=128"),
        ],
        ids=["gs-bound", "gs-seminorm", "probe-run", "global", "global-joined"],
    )
    def test_precision_option_is_unrecognized(self, tmp_path, monkeypatch, capsys, argv, error):
        monkeypatch.chdir(tmp_path)
        assert run(argv) == 2
        assert error in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    # no command reads a precision option, so no --help lists one
    @pytest.mark.parametrize(
        "command, reads",
        [
            (["table"], False),
            (["verify", "coeffs"], False),
            (["verify", "identities"], False),
            (["gs", "bound"], False),
            (["gs", "seminorm"], False),
            (["wedge", "classify"], False),
            (["wedge", "figure"], False),
            (["probe", "run"], False),
            (["probe", "criterion"], False),
            ([], False),
        ],
        ids=lambda v: "-".join(v) or "top-level" if isinstance(v, list) else str(v),
    )
    def test_help_lists_precision_where_it_is_read(self, capsys, command, reads):
        assert run(command + ["--help"]) == 0
        assert ("--precision-bits" in capsys.readouterr().out) is reads

    @pytest.mark.parametrize(
        "argv",
        [
            ["gs", "bound", "--theta", "0", "--kmax", "10"],
            ["gs", "seminorm", "--kind", "h", "--h", "0", "--theta", "1", "--s", "1", "--kmax", "2"],
            ["gs", "seminorm", "--kind", "a", "--a", "-1", "--theta", "1", "--s", "1", "--kmax", "2"],
            ["gs", "seminorm", "--kind", "h", "--h", "1", "--theta", "0", "--s", "1", "--kmax", "2"],
            ["gs", "seminorm", "--kind", "h", "--h", "1", "--theta", "1", "--s", "0", "--kmax", "2"],
            ["gs", "seminorm", "--kind", "h", "--h", "1", "--theta", "1", "--s", "1", "--kmax", "2", "--max-power", "-1"],
            ["verify", "identities", "--m", "3", "--kmax", "10", "--theta", "1", "--jmax", "0"],
            ["table", "--m", "1", "--kmax", "5", "--out", "t.json"],
            ["table", "--m", "2", "--kmax", "0", "--out", "t.json"],
            ["verify", "coeffs", "--m", "1", "--kmax", "5", "--json", "r.json"],
            ["verify", "identities", "--m", "0", "--kmax", "10", "--theta", "1", "--json", "i.json"],
            ["verify", "identities", "--m", "2", "--kmax", "12", "--theta", "1/4", "--json", "i.json"],
            ["gs", "bound", "--theta", "1", "--kmax", "3"],
            ["gs", "bound", "--theta", "1/2", "--kmax", "5", "--slope-tol", "nan"],
            ["gs", "seminorm", "--kind", "h", "--h", "1", "--theta", "1", "--s", "1", "--kmax", "-1", "--csv", "c.csv"],
            ["wedge", "classify", "--theta", "1", "--s", "1", "--m", "1", "--space", "roumieu"],
            ["wedge", "figure", "--m", "1", "--format", "csv", "--out", "f.csv"],
            ["wedge", "figure", "--m", "1", "--format", "svg", "--out", "f.svg"],
            ["probe", "run", "--m", "1", "--theta", "2", "--nu", "2", "--kmax", "4", "--csv", "p.csv"],
            ["probe", "criterion", "--m", "1", "--theta", "2", "--s", "1/2", "--jmax", "4"],
        ],
        ids=["bound-theta-0", "seminorm-h-0", "seminorm-a-neg", "seminorm-theta-0", "seminorm-s-0",
             "seminorm-max-power-neg", "identities-jmax-0", "table-m-1", "table-kmax-0", "coeffs-m-1",
             "identities-m-0", "identities-theta-below-2-over-m", "bound-kmax-3", "bound-slope-tol-nan",
             "seminorm-kmax-neg", "classify-m-1", "figure-csv-m-1", "figure-svg-m-1", "probe-run-m-1",
             "criterion-m-1"],
    )
    def test_invalid_value_is_usage_error(self, tmp_path, monkeypatch, capsys, argv):
        # the library rejects the value before any file or directory is made
        monkeypatch.chdir(tmp_path)
        assert run(["--out-dir", "od"] + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    # test_invalid_value_is_usage_error covers the same argv under --out-dir
    @pytest.mark.parametrize("fmt", ["csv", "svg"])
    def test_rejected_figure_makes_no_file_without_out_dir(self, tmp_path, monkeypatch, capsys, fmt):
        monkeypatch.chdir(tmp_path)
        assert run(["wedge", "figure", "--m", "1", "--format", fmt, "--out", "f." + fmt]) == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["probe", "criterion", "--m", "4", "--theta", "1", "--s", "100", "--jmax", "200"],
            ["verify", "identities", "--m", "4", "--kmax", "600", "--theta", "1", "--jmax", "0"],
        ],
        ids=["criterion-s-too-large", "identities-jmax-0"],
    )
    def test_rejected_before_any_table_is_built(self, monkeypatch, argv):
        real, calls = derivpoly.coeff_rows, []
        monkeypatch.setattr(derivpoly, "coeff_rows", lambda *args: calls.append(args) or real(*args))
        assert run(argv) == 2
        assert calls == []

    @pytest.mark.parametrize(
        "argv",
        [
            "verify identities --m 3 --kmax 10 --theta 1e400",
            "verify identities --m 3 --kmax 10 --theta 1e30",
            "verify identities --m 3 --kmax 10 --theta %d/%d" % (10**30 + 1, 10**30),
            "verify identities --m 3 --kmax 10 --theta 1000000 --jmax 3",
            "probe run --m 3 --theta 1e400 --nu 1e400 --kmax 5 --csv big.csv",
            "probe criterion --m 3 --theta 1e9 --s 1 --jmax 2",
            "gs bound --theta 1e400 --kmax 10",
            "gs seminorm --kind a --a 1 --theta 1e400 --s 1 --kmax 5 --csv c.csv",
        ],
        ids=["identities-1e400", "identities-1e30", "identities-denominator", "identities-lower-bound",
             "probe-run-1e400", "criterion-1e9", "bound-1e400", "seminorm-1e400"],
    )
    def test_huge_theta_is_refused_at_once(self, tmp_path, argv):
        # each builds a power from theta, k**(m*p), m**q, k**(2*theta*k*(m-1)), k**(theta*k*(m-1)) or
        # kmax**ceil(theta), too large to hold (MemoryError in 1 GiB) or to use within 20 s
        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        proc = subprocess.run(
            [sys.executable, "-m", "gsmult.cli"] + argv.split(),
            capture_output=True,
            text=True,
            env=package_env(),
            cwd=tmp_path,
            timeout=5,
            preexec_fn=limit_address_space,
        )
        assert proc.returncode == 2, proc.stderr[-500:]
        assert proc.stderr.startswith("usage error: theta=") and proc.stderr.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_bad_fraction_rejected(self):
        assert run(["wedge", "classify", "--theta", "x/y", "--s", "1", "--m", "2", "--space", "roumieu"]) == 2


class TestTable:
    def test_writes_exact_json(self, tmp_path, capsys):
        out = tmp_path / "table.json"
        assert run(["table", "--m", "2", "--kmax", "4", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data == {"m": 2, "k_max": 4, "rows": [["1"], ["1", "1"], ["1", "3"], ["1", "6", "3"]]}

    def test_out_dir_prefix(self, tmp_path):
        assert run(["--out-dir", str(tmp_path / "sub"), "table", "--m", "2", "--kmax", "2", "--out", "t.json"]) == 0
        assert (tmp_path / "sub" / "t.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--m", "3", "--kmax", "30", "--out", "t.json"],
        ["verify", "coeffs", "--m", "3", "--kmax", "30"],
        ["verify", "identities", "--m", "3", "--kmax", "30", "--theta", "1", "--jmax", "4"],
        ["probe", "run", "--m", "3", "--theta", "1", "--nu", "1", "--kmax", "20", "--csv", "p.csv"],
        ["probe", "run", "--m", "3", "--theta", "1", "--nu", "1", "--kmax", "40", "--kj-only", "--csv", "p.csv"],
        ["probe", "criterion", "--m", "3", "--theta", "1", "--s", "1", "--jmax", "4"],
    ],
    ids=["table", "verify-coeffs", "verify-identities", "probe-run", "probe-run-kj", "probe-criterion"],
)
def test_command_holds_no_table(tmp_path, monkeypatch, capsys, argv):
    # every command walks the rows it needs; none makes a CoeffTable
    made = []
    real = derivpoly.CoeffTable.__init__
    monkeypatch.setattr(derivpoly.CoeffTable, "__init__", lambda self, *a, **kw: made.append(kw) or real(self, *a, **kw))
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 0
    assert made == []


class TestPrintCheck:
    @pytest.mark.parametrize(
        "w", [(4, 2, 123, 45), ("slope", "1.5e-3"), (7,), ("not-increasing", 3, "0.25"), (True, 0)]
    )
    def test_witness_line_is_the_tuple_repr(self, w):
        assert _witness_repr(w) == repr(w)

    def test_witness_beyond_the_int_digit_limit(self, capsys):
        big = 10**5000 + 7
        result = identities.CheckResult(name="x", params={}, passed=False, witnesses=((2, 1, big, 1),))
        _print_check(result)
        assert "witness: (2, 1, 1%s7, 1)" % ("0" * 4999) in capsys.readouterr().out


class TestVerifyIdentities:
    def test_full_run_with_json(self, tmp_path, capsys):
        report = tmp_path / "identities.json"
        code = run(
            ["verify", "identities", "--m", "3", "--kmax", "20", "--theta", "1", "--jmax", "2", "--json", str(report)]
        )
        assert code == 0
        payload = json.loads(report.read_text())
        names = {entry["name"] for entry in payload}
        assert "evaluation-lower-bound" in names
        assert all(entry["passed"] for entry in payload)

    @pytest.mark.parametrize(
        "kmax, walks", [(20, [(3, 60)]), (80, [(3, 80)])], ids=["kj-beyond-kmax", "kmax-beyond-kj"]
    )
    def test_builds_no_table(self, monkeypatch, capsys, kmax, walks):
        # k_10 = 60 at m=3: one walk to max(--kmax, k_10) feeds the table checks and the lower bound
        built = []
        monkeypatch.setattr(derivpoly, "build_coeff_table", lambda *args: built.append(args))
        real, calls = derivpoly.coeff_rows, []
        monkeypatch.setattr(derivpoly, "coeff_rows", lambda *args: calls.append(args) or real(*args))
        argv = ["verify", "identities", "--m", "3", "--kmax", str(kmax), "--theta", "1", "--jmax", "10"]
        assert run(argv) == 0
        assert built == [] and sorted(calls) == walks

    @pytest.mark.parametrize(
        "argv, steps",
        [
            (["--kmax", "20", "--theta", "5/6"], 20),
            (["--kmax", "2", "--theta", "5/6"], 4),  # the ck2 bound needs k >= 4
            (["--kmax", "20", "--theta", "1", "--jmax", "10"], 60),  # one walk to k_10 = 60, past --kmax
        ],
        ids=["rational", "kmax-below-4", "integer"],
    )
    def test_makes_each_row_once(self, monkeypatch, capsys, argv, steps):
        # one walk feeds the three table checks and the lower bound, so each of its rows is made once
        real, calls = derivpoly._next_row, []
        monkeypatch.setattr(derivpoly, "_next_row", lambda *args: calls.append(args[1]) or real(*args))
        assert run(["verify", "identities", "--m", "3"] + argv) == 0
        assert len(calls) == steps

    def test_fractional_theta_skips_lower_bound(self, capsys):
        code = run(["verify", "identities", "--m", "3", "--kmax", "12", "--theta", "2/3"])
        assert code == 0
        assert "skipped" in capsys.readouterr().out


class TestWedgeCli:
    def test_classify_prints_verdict(self, capsys):
        assert run(["wedge", "classify", "--theta", "2", "--s", "1", "--m", "2", "--space", "roumieu", "--d", "1"]) == 0
        assert "NotContinuous" in capsys.readouterr().out

    def test_classify_excluded_point(self, capsys):
        code = run(["wedge", "classify", "--theta", "1/2", "--s", "1", "--m", "3", "--space", "beurling"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Unknown" in out and "excluded" in out

    def test_propagator_flag(self, capsys):
        code = run(
            ["wedge", "classify", "--theta", "1", "--s", "2", "--m", "2", "--space", "roumieu", "--propagator"]
        )
        assert code == 0
        assert "NotContinuous" in capsys.readouterr().out

    def test_classify_t_zero_is_identity(self, capsys):
        code = run(
            ["wedge", "classify", "--theta", "1", "--s", "2", "--m", "2", "--space", "roumieu",
             "--propagator", "--t-zero"]
        )
        assert code == 0
        assert capsys.readouterr().out == "Continuous (identity-operator)\n"

    def test_figure_deterministic_bytes(self, tmp_path, capsys):
        common = ["wedge", "figure", "--m", "4", "--space", "beurling", "--format", "svg",
                  "--theta-step", "1/4", "--s-step", "1/2"]
        assert run(common + ["--out", str(tmp_path / "a.svg")]) == 0
        assert run(common + ["--out", str(tmp_path / "b.svg")]) == 0
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "svg"])
    def test_figure_writes_the_rendered_text(self, tmp_path, capsys, fmt):
        out = tmp_path / ("r." + fmt)
        assert run(["wedge", "figure", "--m", "3", "--space", "beurling", "--monomial", "--format", fmt,
                    "--theta-step", "1/8", "--s-step", "1/8", "--out", str(out)]) == 0
        # the command's default box at steps of 1/8
        grid = wedge.GridSpec(*map(Fraction, ("1/20", "2", "1/8", "1/20", "4", "1/8")))
        render = wedge.render_region_csv if fmt == "csv" else wedge.render_region_svg
        assert out.read_bytes() == render(3, wedge.Space.BEURLING, grid, wedge.Mode.PURE_MONOMIAL).encode()


class TestProbeCli:
    def test_run_emits_csv(self, tmp_path, capsys):
        out = tmp_path / "probe.csv"
        code = run(["probe", "run", "--m", "2", "--theta", "2", "--nu", "2", "--kmax", "6", "--csv", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,x,log_dkg_f,rate"
        assert len(lines) == 7

    def test_run_deterministic_bytes(self, tmp_path, capsys):
        args = ["probe", "run", "--m", "3", "--theta", "1", "--nu", "1", "--kmax", "8"]
        assert run(args + ["--csv", str(tmp_path / "a.csv")]) == 0
        assert run(args + ["--csv", str(tmp_path / "b.csv")]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("m, theta, kmax", [("2", "1", 300), ("3", "3/2", 30)])
    def test_sign_changes_no_byte(self, tmp_path, capsys, m, theta, kmax):
        # |p_k| is the same for lam = +i*m and lam = -i*m, so no output depends on --sign
        argv = ["probe", "run", "--m", m, "--theta", theta, "--nu", theta, "--kmax", str(kmax), "--csv", "p.csv"]
        plus, minus = (_outputs(argv + ["--sign", sign], tmp_path / name, capsys) for sign, name in (("+", "p"), ("-", "n")))
        assert plus == minus and plus[0] == 0 and len(plus[2]["p.csv"].splitlines()) == kmax + 1

    @pytest.mark.parametrize("kmax, fitted", [(14, False), (15, True)])
    def test_fit_is_printed_exactly_when_estimate_rate_accepts_the_records(self, tmp_path, capsys, kmax, fitted):
        # estimate_rate fits the trailing half, rounded, of at least 8 records: 15 records give a tail of 8
        argv = ["probe", "run", "--m", "2", "--theta", "1", "--nu", "1", "--kmax", str(kmax)]
        assert run(argv + ["--csv", str(tmp_path / "p.csv")]) == 0
        out = capsys.readouterr().out
        assert ("fitted growth rate (tail 1/2): " in out) is fitted
        if kmax == 15:
            assert out.endswith("fitted growth rate (tail 1/2): 0.9116137762\n")

    def test_kj_only_restricts_orders(self, tmp_path, capsys):
        out = tmp_path / "kj.csv"
        code = run(["probe", "run", "--m", "2", "--theta", "1", "--nu", "1", "--kmax", "20", "--kj-only", "--csv", str(out)])
        assert code == 0
        ks = [int(line.split(",")[0]) for line in out.read_text().splitlines()[1:]]
        assert ks == [8, 16]

    @pytest.mark.parametrize("m, kmax, count", [(3, 400, 66), (2, 300, 37), (3, 5, 0), (4, 120, 22)])
    def test_kj_only_builds_exactly_the_orders_it_keeps(self, tmp_path, monkeypatch, capsys, m, kmax, count):
        asked, probed, kj_sequence = [], [], derivpoly.kj_sequence
        monkeypatch.setattr(derivpoly, "kj_sequence", lambda m, j_max: asked.append(j_max) or kj_sequence(m, j_max))
        monkeypatch.setattr(probe, "probe_series", lambda cfg: probed.append(cfg.k_values) or [])
        argv = ["probe", "run", "--m", str(m), "--theta", "3", "--nu", "3", "--kmax", str(kmax), "--kj-only"]
        assert run(argv + ["--csv", str(tmp_path / "kj.csv")]) == 0
        assert asked == ([count] if count else [])
        assert list(probed[0]) == [k for k in kj_sequence(m, kmax).entries if k <= kmax] and len(probed[0]) == count

    @pytest.mark.parametrize(
        "m, theta, kmax, digest",
        [
            ("3", "3/2", 20, "11afc8b62cf630d78cbadff3b1591f44cac30fa8def79f47287b5c6e3e9e0478"),
            ("3", "3/2", 60, "ae3db82c8abb9c250f68fa3abe83f4dcf978b9c2775df705a7bb3a2ffe42eff2"),
            ("2", "5/3", 40, "318a99f133c63db34a74717236b9fc1369c6c42b60b8e595b012825fcf6a9bda"),
            ("4", "2/3", 40, "229865546aee97b9fbef98ca1e64b5032c973facdffc6854c202321ec8ab2520"),
            ("3", "5/6", 40, "82743eea4320471dbac8bf4241dacc1547f994e2a569db483f73c5f839fc8613"),
            ("5", "1/2", 30, "56a1f7aee88037c83e39f2adb34ec929ffeebf1a40942494b50e11f45d893d97"),
        ],
        ids=["3-3/2-20", "3-3/2-60", "2-5/3-40", "4-2/3-40", "3-5/6-40", "5-1/2-30"],
    )
    def test_run_non_integer_theta(self, tmp_path, capsys, m, theta, kmax, digest):
        out = tmp_path / "pf.csv"
        code = run(["probe", "run", "--m", m, "--theta", theta, "--nu", theta, "--kmax", str(kmax), "--csv", str(out)])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [int(r[0]) for r in rows] == list(range(1, kmax + 1))
        assert all(mpmath.isfinite(mpmath.mpf(v)) for r in rows for v in r[1:])
        if theta == "3/2":
            assert rows[3][1] == format_mpf(mpmath.mpf(8))  # x_4 = 4**(3/2), printed correctly rounded
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_criterion(self, capsys):
        assert run(["probe", "criterion", "--m", "2", "--theta", "1", "--s", "1/2", "--jmax", "4"]) == 0
        assert run(["probe", "criterion", "--m", "2", "--theta", "1", "--s", "3", "--jmax", "4"]) == 2

    @pytest.mark.parametrize("theta", ["2/1", "4/2"])
    def test_criterion_theta_equal_to_an_integer_is_that_integer(self, capsys, theta):
        argv = ["probe", "criterion", "--m", "3", "--theta", "2", "--s", "2", "--jmax", "6"]
        assert run(argv) == 0
        integer = capsys.readouterr()
        argv[5] = theta
        assert run(argv) == 0
        assert capsys.readouterr() == integer

    def test_criterion_rational_theta_passes(self, capsys):
        assert run(["probe", "criterion", "--m", "3", "--theta", "3/2", "--s", "2", "--jmax", "30"]) == 0
        assert capsys.readouterr().out.startswith("multiplier-criterion-divergence    PASS  extremal=")

    def test_rejects_invalid_exponents(self):
        assert run(["probe", "run", "--m", "2", "--theta", "1/2", "--nu", "1/2", "--kmax", "4", "--csv", "x.csv"]) == 2


class TestSeminormCli:
    def test_gaussian_calculus_value(self, tmp_path, capsys):
        out = tmp_path / "cells.csv"
        code = run(
            ["gs", "seminorm", "--kind", "a", "--a", "1/2", "--theta", "1/2", "--s", "1",
             "--kmax", "0", "--f", "gaussian", "--grid", "4:12", "--csv", str(out)]
        )
        assert code == 0
        assert "1.0" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0] == "k,x,value"
        assert len(lines) == 14  # zero plus 12 halvings, one order

    def test_estimate_from_one_cells_pass(self, monkeypatch, capsys):
        calls = []
        cells = gsfunc.seminorm_cells

        def counting(*args, **kwargs):
            calls.append(args)
            return cells(*args, **kwargs)

        monkeypatch.setattr(gsfunc, "seminorm_cells", counting)
        assert run(["gs", "seminorm", "--kind", "h", "--h", "1/2", "--theta", "1", "--s", "1", "--kmax", "4"]) == 0
        assert len(calls) == 1
        expected = gsfunc.seminorm("h", gsfunc.GSFunction(Fraction(1)), theta=1, s=1, h=Fraction(1, 2), max_deriv=4)
        assert capsys.readouterr().out == "seminorm lower bound (h-family): %s\n" % format_mpf(expected.value)

    def test_kind_requires_weight(self):
        assert run(["gs", "seminorm", "--kind", "a", "--theta", "1", "--s", "1", "--kmax", "2"]) == 2
        assert run(["gs", "seminorm", "--kind", "h", "--theta", "1", "--s", "1", "--kmax", "2"]) == 2

    def test_bad_grid_spec(self):
        assert run(
            ["gs", "seminorm", "--kind", "a", "--a", "1", "--theta", "1", "--s", "1", "--kmax", "1", "--grid", "oops"]
        ) == 2


def _outputs(argv, tmp_path, capsys):
    """(exit status, stdout, {file name: bytes}) of one run in an empty directory."""
    tmp_path.mkdir()
    code = run(["--out-dir", str(tmp_path)] + argv)
    return code, capsys.readouterr().out.replace(str(tmp_path), "OUT"), {p.name: p.read_bytes() for p in tmp_path.iterdir()}


def _precisions(monkeypatch):
    """The sets of result precisions handed to ``escalate``, of the qualified names of the
    computations it runs and of precisions set by ``mp.workprec`` while the spies are in
    place; clear them to start a new run."""
    seen = {"escalate": set(), "compute": set(), "workprec": set()}
    escalate, workprec = precision.escalate, mpmath.mp.workprec

    def spy_escalate(compute, bits):
        seen["escalate"].add(bits)
        seen["compute"].add(compute.__qualname__)
        return escalate(compute, bits)

    def spy_workprec(bits):
        seen["workprec"].add(bits)
        return workprec(bits)

    monkeypatch.setattr(precision, "escalate", spy_escalate)
    monkeypatch.setattr(mpmath.mp, "workprec", spy_workprec)
    return seen


# Small versions of the benchmark's multiprecision jobs.  Every printed digit is fixed well
# below the result precision, so raising it changes no byte.
@pytest.mark.parametrize(
    "argv",
    [
        "gs bound --theta 1/2 --kmax 16 --slope-tol 1",
        "gs bound --theta 2 --kmax 12 --slope-tol 1e-2",
        "gs bound --theta 1/60 --kmax 10",
        "gs bound --theta 1/100 --kmax 10",
        "gs bound --theta 1/1000 --kmax 60",
        "gs seminorm --kind h --h 1/2 --theta 1 --s 1 --kmax 8 --csv h.csv",
        "gs seminorm --kind a --a 1/2 --theta 1 --s 1 --f gaussian --kmax 12 --grid 16:8 --csv a.csv",
        "probe run --m 3 --theta 2 --nu 2 --kmax 40 --csv p3.csv",
        "probe run --m 2 --theta 1 --nu 1 --kmax 40 --sign - --csv p2.csv",
        "probe run --m 3 --theta 3/2 --nu 3/2 --kmax 8 --csv pf.csv",
        "probe criterion --m 4 --theta 1 --s 1 --jmax 10",
        "probe criterion --m 3 --theta 3/2 --s 2 --jmax 10",
    ],
    ids=["bound-t1_2", "bound-t2", "bound-t1_60", "bound-t1_100", "bound-t1_1000", "seminorm-h", "seminorm-a-gauss",
         "probe-m3-t2", "probe-m2-t1-neg", "probe-m3-t3_2", "criterion-m4", "criterion-m3-t3_2"],
)
def test_a_higher_precision_changes_no_byte(tmp_path, monkeypatch, capsys, argv):
    seen = _precisions(monkeypatch)
    outputs = []
    for bits in (precision.RESULT_BITS, 320):
        monkeypatch.setattr(precision, "RESULT_BITS", bits)
        for used in seen.values():
            used.clear()
        outputs.append(_outputs(argv.split(), tmp_path / str(bits), capsys))
        # the run worked at the result precision: every mpmath precision it set is that one, and
        # every certified value started from it
        assert seen["workprec"] == {bits}
        assert seen["escalate"] == {bits}
        # and every certified value was made by the one loop
        assert seen["compute"] <= {"certified_values.<locals>.compute"}
    fixed, raised = outputs
    assert raised == fixed
    assert fixed[0] in (0, 1) and len(fixed[2]) == ("--csv" in argv)


@pytest.mark.parametrize(
    "theta, extremal",
    [
        ("1/50", "49.93761694"),
        ("1/60", "59.92514033"),
        ("1/70", "69.91266372"),
        ("1/100", "99.87523389"),
        ("1/1000", "998.7523389"),
    ],
)
def test_small_theta_bound_reads_each_order_against_f(capsys, theta, extremal):
    # ln f(x) is about -10**60 at x = 10 and theta = 1/60, and f(20) is about 10**(-10**1301) at
    # theta = 1/1000.  The log of f^(k)/f is certified directly, from the Taylor recursion started
    # at 1 in place of f(x), so f(x) is never enclosed and ln|f^(k)| - ln f loses no bit
    assert run(["gs", "bound", "--theta", theta, "--kmax", "10"]) == 0
    assert capsys.readouterr().out.split() == ["gs-derivative-bound", "PASS", "extremal=" + extremal]


_PASS = "gs-derivative-bound                PASS  extremal=%s\n"


@pytest.mark.parametrize(
    "argv, code, out",
    [
        ("--theta 1/2 --kmax 400 --slope-tol 1e-2", 0, _PASS % "1.999998438"),
        ("--theta 1/3 --kmax 120", 0, _PASS % "2.999973959"),
        ("--theta 3/2 --kmax 100", 0, _PASS % "0.9440204533"),
        (
            "--theta 1 --kmax 80",
            1,
            "gs-derivative-bound                FAIL  extremal=0.9999804693\n"
            "    witness: ('slope', '0.001129411708')\n",
        ),
        ("--theta 2 --kmax 60 --slope-tol 1e-2", 0, _PASS % "0.9178113193"),
        ("--theta 1/2 --kmax 60", 0, _PASS % "1.999930559"),
        ("--theta 2/3 --kmax 40 --slope-tol 1e-2", 0, _PASS % "1.499882826"),
    ],
    ids=["t1_2-k400", "t1_3-k120", "t3_2-k100", "t1-k80-fails", "t2-k60", "t1_2-k60", "t2_3-k40"],
)
def test_gs_bound_prints_the_pinned_bytes(capsys, argv, code, out):
    # the screened sweep keeps every cell that can be an order's maximum, so these bytes are
    # the ones the sweep over every certified cell prints
    assert run(["gs", "bound"] + argv.split()) == code
    assert capsys.readouterr().out == out


def test_seminorm_with_endpoints_far_apart_escalates(tmp_path, capsys):
    # exp(-<x>**80) at 256 bits has endpoints ~10**77 binades apart; the enclosure is made
    # again at 512 bits, not aligned.  Its tiny cells' digits move between 192 and 320 bits,
    # so this argv is not in the test above
    argv = "gs seminorm --kind h --h 1/2 --theta 1/80 --s 1 --kmax 10".split()
    assert run(["--out-dir", str(tmp_path)] + argv) == 0
    assert capsys.readouterr().out.startswith("seminorm lower bound (h-family): ")


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "gsmult.cli", "verify", "coeffs", "--m", "2", "--kmax", "6"],
        capture_output=True,
        text=True,
        env=package_env(),
    )
    assert proc.returncode == 0
    assert "certified" in proc.stdout
