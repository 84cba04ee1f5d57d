"""CLI contract: table/coeffs/verify subcommands, formats, round-tripping,
factored forms, and exit codes."""

import csv
import json
from decimal import Decimal
from fractions import Fraction

import pytest

from spinl import cli
from spinl.cli import factor_integer, factored_form, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestFactoring:
    def test_small(self):
        assert factor_integer(12) == [(2, 2), (3, 1)]
        assert factor_integer(1) == []

    def test_remultiplies(self):
        for n in (1, 2, 97, 225, 526246875, 92748957665698318359375):
            prod = 1
            for p, e in factor_integer(n):
                prod *= p**e
            assert prod == n

    def test_factored_form(self):
        assert factored_form(Fraction(32768, 225)) == "2^15/(3^2*5^2)"
        assert factored_form(Fraction(-1, 10800)) == "-1/(2^4*3^3*5^2)"
        assert factored_form(Fraction(7)) == "7"
        assert factored_form(Fraction(1, 2)) == "1/2"

    def test_factored_form_of_zero(self):
        # factor_integer(0) once raised "need a positive integer" here
        assert factored_form(Fraction(0)) == "0"


class TestTableCommand:
    def test_table1_row(self, capsys):
        code, out, _ = run(capsys, "table", "1")
        assert code == 0
        assert "s=5 A1  1/1440" in out
        assert "s=5 A2  1/20" in out
        assert "pi^-2" in out

    def test_table2_row13(self, capsys):
        code, out, _ = run(capsys, "table", "2")
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("s=13"))
        assert "4096/81" in line and "2^12/3^4" in line and "pi^7" in line
        # the reference column (0.158130732552033) carries the error of its
        # truncated norm; full-precision rendering agrees to ~8e-10
        got = float(line.split("numeric:")[1])
        assert abs(got - 0.158130732552033) / got < 1e-9

    def test_table4_row18(self, capsys):
        code, out, _ = run(capsys, "table", "4")
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("s=18"))
        assert "2^35/(3^18*5^6*7^5*11*13*17)" in line
        assert "pi^42" in line
        got = float(line.split("numeric:")[1])
        assert abs(got - 0.902464835857626) / got < 1e-9

    def test_table3_row12_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "table", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["table"] == 3
        row = next(r for r in doc["rows"] if r["s"] == 12)
        assert row["numerator"] == "524288"
        assert row["denominator"] == "2338875"
        assert row["pi_exponent"] == 13
        assert row["numeric"].startswith("5.3800035628803")
        assert doc["precision_digits"] == 30
        # table reads no coefficients, so its JSON names no count of them
        assert "coefficients_used" not in doc

    def test_json_round_trip_byte_identical(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "table", "2")
        assert code == 0
        again = json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
        assert again == out

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "--format", "json", "table", "4")
        _, out2, _ = run(capsys, "--format", "json", "table", "4")
        assert out1 == out2

    def test_csv_shape(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "table", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "s,numerator,denominator,factored,pi_exponent,numeric"
        assert len(lines) == 9

    def test_factored_column_remultiplies(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "table", "4")
        rows = json.loads(out)["rows"]
        for r in rows:
            expr = r["factored"].lstrip("-").replace("^", "**")
            num_part, _, den_part = expr.partition("/")
            value = Fraction(eval(num_part), eval(den_part) if den_part else 1)
            if r["factored"].startswith("-"):
                value = -value
            assert value == Fraction(int(r["numerator"]), int(r["denominator"]))

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "t2.json"
        code = main(["--format", "json", "--out", str(target), "table", "2"])
        assert code == 0
        assert json.loads(target.read_text())["table"] == 2

    def test_flags_after_subcommand(self, capsys, tmp_path):
        target = tmp_path / "t4.json"
        code = main(["table", "4", "--format", "json", "--out", str(target)])
        assert code == 0
        assert json.loads(target.read_text())["table"] == 4
        # explicit pre-subcommand value must survive the subparser defaults
        code = main(["--prec", "21", "table", "3", "--format", "json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["precision_digits"] == 21

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        # a usage error, not a traceback and not exit 1, which README keeps
        # for a verification above tolerance
        code, out, err = run(capsys, "--out", str(tmp_path / "missing" / "x.json"), "table", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("target", ["missing/x.json", "."])
    def test_unwritable_out_exits_2_before_any_work(self, capsys, tmp_path, monkeypatch, target):
        # a missing directory, or a directory given as the file, is refused
        # before the computation (it once ran the whole verify first)
        def reached(*args):
            raise AssertionError("verify_tables ran for an unwritable --out")

        monkeypatch.setattr("spinl.cli.verify_tables", reached)
        code, out, err = run(capsys, "--out", str(tmp_path / target), "verify")
        assert code == 2
        assert out == ""
        assert err.startswith("error: [Errno ") and err.count("\n") == 1

    def test_bad_table_number_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "7"])
        assert exc.value.code == 2

    def test_bad_format_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--format", "yaml", "table", "2"])
        assert exc.value.code == 2


class TestCoeffsCommand:
    def test_rankin_n15(self, capsys):
        code, out, _ = run(capsys, "coeffs", "rankin", "--nmax", "15")
        assert code == 0
        assert "-146571102587851200" in out

    def test_g20_n13(self, capsys):
        code, out, _ = run(capsys, "coeffs", "g20", "--nmax", "13")
        assert code == 0
        assert "50421615062" in out

    def test_delta_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "coeffs", "delta", "--nmax", "6")
        doc = json.loads(out)
        assert doc["values"] == ["1", "-24", "252", "-1472", "4830", "-6048"]

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "coeffs", "delta", "--nmax", "3")
        assert out.splitlines() == ["n,delta", "1,1", "2,-24", "3,252"]

    def test_bad_nmax_exits_2(self, capsys):
        code, _, err = run(capsys, "coeffs", "delta", "--nmax", "0")
        assert code == 2
        assert "nmax" in err


class TestVerifyCommand:
    def test_low_precision_loose_tolerance_ok(self, capsys):
        code, out, _ = run(
            capsys, "--prec", "15", "--coeffs", "20", "--tol", "1e-3", "verify"
        )
        assert code == 0
        assert "max relative difference" in out

    def test_unachievable_tolerance_exits_1(self, capsys):
        code, _, err = run(
            capsys, "--prec", "15", "--coeffs", "20", "--tol", "1e-30", "verify"
        )
        assert code == 1
        assert "FAIL" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-3"])
    def test_non_finite_or_negative_tolerance_exits_2(self, capsys, tol):
        # every rel_diff > nan is False: a nan gate would pass any run
        code, out, err = run(
            capsys, "--prec", "15", "--coeffs", "20", f"--tol={tol}", "verify"
        )
        assert code == 2
        assert "--tol" in err
        assert out == ""

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys, "--prec", "15", "--coeffs", "20", "--tol", "1e-3",
            "--format", "json", "verify",
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["rows"]) == 24
        assert doc["failures"] == 0

    def test_default_tolerance_ok(self, capsys):
        # exact values times computed norms vs direct runs sit far below the
        # default 1e-9 gate
        code, _, _ = run(capsys, "--prec", "20", "--coeffs", "30", "verify")
        assert code == 0

    def test_150_digits_with_1000_coefficients(self, capsys):
        # the degree-2 M follows the digits, not --coeffs: this exited 2
        code, out, err = run(capsys, "--prec", "150", "--coeffs", "1000", "verify")
        assert code == 0, err
        assert "max relative difference" in out

    @pytest.mark.parametrize("prec, coeffs, need", [(120, 150, 154), (1000, 20, 9302)])
    def test_coefficients_below_the_degree4_floor_exit_2(self, capsys, prec, coeffs, need):
        # both exited 0, at 46 and ~11 digits: the refusal names the
        # fewest M it accepts, in one error line, before any work
        code, out, err = run(capsys, "--prec", str(prec), "--coeffs", str(coeffs), "verify")
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            f"error: M={coeffs} too small at {prec} digits for degree 4, weight 31:"
            f" need M >= {need}"
        ]

    def test_fresh_norms_path(self, capsys):
        code, _, _ = run(
            capsys, "--prec", "16", "--coeffs", "20", "--tol", "1e-10",
            "--fresh-norms", "verify",
        )
        assert code == 0


def _numeric_column(out):
    return [line.split("numeric:")[1].strip() for line in out.splitlines()[1:]]


class TestHonestDigits:
    """The norms are computed at every precision, so no digit of a table or
    a verification rests on a constant shorter than the run asks for."""

    def test_verify_tables_at_60_digits(self):
        from spinl.numeric_lfun import context, verify_tables

        ctx = context(60)
        assert ctx.convert(verify_tables(60, 300).max_rel_diff) < ctx.mpf("1e-55")

    @pytest.mark.parametrize("table,D", [("3", 45), ("4", 60)])
    def test_numeric_column_against_twenty_more_digits(self, capsys, table, D):
        from spinl.numeric_lfun import context

        ctx = context(D + 25)
        _, lo, _ = run(capsys, "--prec", str(D), "table", table)
        # the reference takes its norms from Rankin's formula by name
        _, hi, _ = run(capsys, "--prec", str(D + 20), "--fresh-norms", "table", table)
        for a, b in zip(_numeric_column(lo), _numeric_column(hi), strict=True):
            a, b = ctx.mpf(a), ctx.mpf(b)
            assert abs(a - b) / b < ctx.mpf(10) ** (2 - D), (a, b)

    @pytest.mark.parametrize(
        "argv",
        [("--prec", "40", "table", "2"),
         ("--prec", "20", "--coeffs", "30", "--format", "json", "verify")],
    )
    def test_fresh_norms_flag_changes_no_byte(self, capsys, argv):
        plain = run(capsys, *argv)
        flagged = run(capsys, "--fresh-norms", *argv)
        assert plain == flagged and plain[0] == 0

    @pytest.mark.parametrize("D", [15, 17, 20, 30, 60])
    def test_table_norms_are_petersson_norm(self, capsys, D):
        # the norms a table renders with are the public ones at its
        # precision, written positionally at every D (str() of an mpf
        # switches to exponent form at D <= 20)
        from spinl.numeric_lfun import petersson_norm

        want = {"delta_delta": Decimal(str(petersson_norm(12, 4, D).value)),
                "g20_g20": Decimal(str(petersson_norm(20, 4, D).value))}
        for table in ("1", "2", "3", "4"):
            code, out, _ = run(capsys, "--prec", str(D), "--format", "json", "table", table)
            assert code == 0
            got = json.loads(out)["petersson"]
            assert {name: Decimal(v) for name, v in got.items()} == want
            assert not any("e" in v.lower() for v in got.values()), got

    @pytest.mark.parametrize("D", [15, 17, 18])
    def test_numeric_column_positional(self, capsys, D):
        # table 1's smallest values (~2e-5) took exponent form at D <= 17
        for table in ("1", "2", "3", "4"):
            code, out, _ = run(capsys, "--prec", str(D), "table", table)
            assert code == 0
            for v in _numeric_column(out):
                assert "e" not in v.lower(), (table, v)
                assert len(v.lstrip("-").replace(".", "").lstrip("0")) == D, (table, v)


_TABLE_FIELDS = ["s", "numerator", "denominator", "factored", "pi_exponent", "numeric"]
_VERIFY_FIELDS = ["s", "branch", "exact_value", "direct_value", "abs_diff", "rel_diff"]
# (argv, csv header, row count) for every subcommand
_COMMANDS = (
    [(("table", "1"), _TABLE_FIELDS[:1] + ["part"] + _TABLE_FIELDS[1:], 16)]
    + [(("table", t), _TABLE_FIELDS, 8) for t in "234"]
    + [(("coeffs", f, "--nmax", "20"), ["n", f], 20) for f in ("delta", "g20", "rankin")]
    + [(("--prec", "20", "--coeffs", "30", "verify"), _VERIFY_FIELDS, 24)]
)


class TestFormatMatrix:
    """Every subcommand writes every format, and --out gets the bytes
    stdout would."""

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    @pytest.mark.parametrize(
        "argv,fields,n_rows", _COMMANDS,
        ids=["-".join(a.lstrip("-") for a in argv) for argv, _, _ in _COMMANDS],
    )
    def test_every_command_in_every_format(self, capsys, tmp_path, argv, fields, n_rows, fmt):
        code, out, _ = run(capsys, "--format", fmt, *argv)
        assert code == 0
        target = tmp_path / "out"
        assert main(["--format", fmt, "--out", str(target), *argv]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_text() == out
        if fmt == "json":
            doc = json.loads(out)
            assert len(doc["values"] if argv[0] == "coeffs" else doc["rows"]) == n_rows
        elif fmt == "csv":
            reader = csv.DictReader(out.splitlines())
            assert reader.fieldnames == fields
            assert len(list(reader)) == n_rows


def _fresh(*argv):
    """(exit code, stdout, stderr) of `python -m spinl.cli *argv` in a new
    interpreter."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    r = subprocess.run(
        [sys.executable, "-m", "spinl.cli", *argv], capture_output=True, text=True, env=env
    )
    return r.returncode, r.stdout, r.stderr


class TestWarmPath:
    """A process builds its parser once; the shared parser carries nothing
    from one call to the next."""

    VERIFY = ("--prec", "15", "--coeffs", "20", "--tol", "1e-3", "--format", "json", "verify")

    def test_two_verify_calls_build_the_parser_once(self, tmp_path):
        cli._parser.cache_clear()
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        for target in outs:
            assert main(["--out", str(target), *self.VERIFY]) == 0
        info = cli._parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_each_call_reads_as_a_fresh_process(self, capsys):
        calls = [
            ("--prec", "16", "--coeffs", "20", "--tol", "1e-3", "verify", "--format", "csv"),
            ("--format", "yaml", "table", "2"),
            ("--prec", "18", "--coeffs", "25", "--tol", "1e-3", "--format", "json", "verify"),
        ]
        for argv in calls:
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse's usage error
                code = exc.code
            got = capsys.readouterr()
            assert (code, got.out, got.err) == _fresh(*argv), argv
        assert code == 0

    def test_threads_write_identical_bytes(self, tmp_path):
        # more threads than the CI box's two cores, switching as often as
        # the interpreter allows, share one parser and the numeric caches
        import sys
        import threading

        cli._parser.cache_clear()
        outs = [tmp_path / f"{i}.json" for i in range(3)]
        codes = []
        argv = ("--prec", "17", "--coeffs", "25", "--tol", "1e-3", "--format", "json", "verify")
        threads = [
            threading.Thread(target=lambda t=t: codes.append(main(["--out", str(t), *argv])))
            for t in outs
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert codes == [0, 0, 0]
        assert len({t.read_bytes() for t in outs}) == 1


class TestDeterminism:
    # sha256 of `spinl --prec 30 --coeffs 150 --fresh-norms --format json
    # verify`; a change of rounding in the numeric layer can move it, and
    # must then re-baseline it knowingly
    VERIFY_30_150_SHA256 = "3df26ecbd449c4960f44a83ec462d02db1c838a39ce8d46b7a466bb50db74d35"
    # the same at `--prec 60 --coeffs 300`
    VERIFY_60_300_SHA256 = "d00c21585d835b437d9a29145f5811f967cb8978de1ee84c1539c155b63dc86b"
    # sha256 of `spinl --prec D --format json table T`: the norms' path;
    # re-baselined when the payload dropped "coefficients_used", which
    # echoed --coeffs although table reads no coefficients
    TABLE_JSON_SHA256 = {
        (1, 30): "07d6e9d0121c9565567c8c99c74ebd34d90d13d03d7fa4d516ab8b85f0588449",
        (1, 60): "409cdf074dbde144cff55c23c4976587efb9baba53035163dc29830a693482b1",
        (2, 30): "1937c93e16303668de6fe0eeaa6e139d47ef7e3181b1a0f0d83e10bcbbe23430",
        (2, 60): "fa3820acfbb14e314b707034fc71149279fc252d104526d3638d9493ca6afe65",
        (3, 30): "6296c366781abe6db3d40498c436e8f4b31cca1d53574bfb1f33ad705848a1e7",
        (3, 60): "8aabde058d3ac54e482452dfb27b7e83664bbfcecec83c1e68177c5267bc16e1",
        (4, 30): "8c1d9b583a8ed327d8007920c685ab0de7d52161bde70515ffe3879840d6837e",
        (4, 60): "f1e1171ac366ea0ca3fdc997df97bbab9d892216133a63db6107ac335ddd2554",
    }
    # sha256 of `spinl --prec D --format F table T` for T = 1..4, joined:
    # the exact columns and the numeric one at D digits
    TABLES_SHA256 = {
        ("csv", 17): "bd84e28789c9e364e3c9be91e9c8029877d64f0e8792dd45ee245f22c2389c83",
        ("csv", 30): "1635e24f3440b259b2cd8bbb3e79b216f29ee838682661c25fb8919850444428",
        ("csv", 60): "dfef7974a4e3c40474b05726ce6502fec34bca78e5c9c9c362feaff76e3b61f9",
        ("text", 17): "6804b6fa7df2d72f517f801cb541404caca09816ffa544d546bcdecb31232676",
        ("text", 30): "bc4f68671fd0ab39785bd998862fcb76581b99b9b7bc240548019887d6fad6cd",
        ("text", 60): "237706cfd12c64e921623becff310af9640855b516d5a75e71fd2cf4abef26ec",
    }
    # sha256 of the exact_value and direct_value columns of the pinned
    # verify runs, one "exact direct" line per row: the values themselves,
    # apart from how their difference is rendered
    VERIFY_VALUES_SHA256 = {
        (30, 150): "6fbb325abcf680dc424388fdca6dd6a241e1492a756b9324f71d6d2df83c20b3",
        (60, 300): "e6feaa78d02ff3b27769ea3cd354c8fd7edb902337a3bee9cc2601b185bac558",
    }

    def test_verify_json_pinned(self, capsys):
        import hashlib

        code, out, _ = run(
            capsys, "--prec", "30", "--coeffs", "150", "--fresh-norms",
            "--format", "json", "verify",
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.VERIFY_30_150_SHA256

    def test_verify_json_pinned_at_60_digits(self, capsys):
        import hashlib

        code, out, _ = run(
            capsys, "--prec", "60", "--coeffs", "300", "--fresh-norms",
            "--format", "json", "verify",
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.VERIFY_60_300_SHA256

    @pytest.mark.parametrize("fmt,D", sorted(TABLES_SHA256))
    def test_tables_pinned(self, capsys, fmt, D):
        import hashlib

        outs = []
        for table in ("1", "2", "3", "4"):
            code, out, _ = run(capsys, "--prec", str(D), "--format", fmt, "table", table)
            assert code == 0
            outs.append(out)
        assert hashlib.sha256("".join(outs).encode()).hexdigest() == self.TABLES_SHA256[fmt, D]

    @pytest.mark.parametrize("D,M", sorted(VERIFY_VALUES_SHA256))
    def test_verify_values_pinned(self, capsys, D, M):
        import hashlib

        code, out, _ = run(
            capsys, "--prec", str(D), "--coeffs", str(M), "--format", "json", "verify"
        )
        assert code == 0
        cols = "".join(f"{r['exact_value']} {r['direct_value']}\n" for r in json.loads(out)["rows"])
        assert hashlib.sha256(cols.encode()).hexdigest() == self.VERIFY_VALUES_SHA256[D, M]

    @pytest.mark.parametrize("table,D", sorted(TABLE_JSON_SHA256))
    def test_table_json_pinned(self, capsys, table, D):
        import hashlib

        code, out, _ = run(capsys, "--prec", str(D), "--format", "json", "table", str(table))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.TABLE_JSON_SHA256[table, D]

    def test_cross_process_byte_identical(self, tmp_path):
        # identical invocations in separate interpreters must produce
        # byte-identical files
        import os
        import subprocess
        import sys
        from pathlib import Path

        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        outs = []
        for name in ("a.json", "b.json"):
            target = tmp_path / name
            r = subprocess.run(
                [sys.executable, "-m", "spinl.cli", "--format", "json",
                 "--prec", "25", "table", "3", "--out", str(target)],
                capture_output=True, env=env,
            )
            assert r.returncode == 0, r.stderr
            outs.append(target.read_bytes())
        assert outs[0] == outs[1]

    def test_fresh_norms_table(self, capsys):
        code, out, _ = run(
            capsys, "--prec", "17", "--fresh-norms", "table", "2"
        )
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("s=19"))
        got = float(line.split("numeric:")[1])
        assert abs(got - 0.942700249255570) / got < 1e-9

    def test_precision_floor_exits_2(self, capsys):
        code, _, err = run(capsys, "--prec", "10", "table", "2")
        assert code == 2
        assert "prec" in err


def test_python_m_spinl_runs_the_cli():
    # the package runs as a module, and prints what spinl.cli prints
    import os
    import subprocess
    import sys
    from pathlib import Path

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run_module(module, *args):
        return subprocess.run([sys.executable, "-m", module, *args], capture_output=True, env=env)

    r = run_module("spinl", "--help")
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith(b"usage: spinl")
    outs = [run_module(m, "coeffs", "delta", "--nmax", "3") for m in ("spinl", "spinl.cli")]
    assert [r.returncode for r in outs] == [0, 0]
    assert outs[0].stdout == outs[1].stdout == b"   1  1\n   2  -24\n   3  252\n"


def test_import_loads_no_dataclasses_or_inspect():
    # the package's records are NamedTuples and __slots__ classes, so an
    # import pays for neither module (they pull in ast, dis and tokenize)
    import os
    import subprocess
    import sys
    from pathlib import Path

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, spinl, spinl.cli, spinl.numeric_lfun; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"
