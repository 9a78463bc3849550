import json
import math
import re
import subprocess
import sys

import pytest

from zetasphere.cli import _EVAL_FUNCTIONS, MAX_ROWS, _grid_values, main, parse_complex
from zetasphere.errors import ZetasphereError

from reference_values import ZETA_REFLECTED_HIGH

# the name each eval function gives in its error for a NaN argument
NAN_LABELS = {
    "zeta": "zeta",
    "eta": "eta",
    "completed": "completed zeta",
    "f": "f",
    "f_abs": "f_abs_closed",
    "gamma": "Gamma",
    "digamma": "digamma",
}


def run_cli(*argv, env_extra=None, timeout=300):
    import os

    env = dict(os.environ)
    env["SOURCE_DATE_EPOCH"] = "1700000000"
    env.update(env_extra or {})
    proc = subprocess.run(
        [sys.executable, "-m", "zetasphere.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        # a command that runs away (say, building an uncapped grid) fails
        # its test instead of filling memory
        timeout=timeout,
    )
    return proc


class TestParseComplex:
    def test_forms(self):
        assert parse_complex("2+0i") == 2
        assert parse_complex("0.5+14.13i") == complex(0.5, 14.13)
        assert parse_complex("1-2i") == complex(1, -2)
        assert parse_complex("-3") == -3
        assert parse_complex("i") == 1j
        assert parse_complex("2.5e-3+1e-2j") == complex(2.5e-3, 1e-2)

    def test_reject(self):
        with pytest.raises(ZetasphereError):
            parse_complex("zeta")


class TestEval:
    def test_zeta_two(self):
        proc = run_cli("eval", "zeta", "2+0i")
        assert proc.returncode == 0
        assert proc.stdout.startswith(f"{math.pi**2/6:.10f}"[:8])

    def test_pole_exit_code(self):
        proc = run_cli("eval", "zeta", "1+0i")
        assert proc.returncode == 2
        assert "pole" in proc.stderr

    def test_far_pole_exits_promptly(self):
        # forming 1e17! never finished
        proc = run_cli("eval", "gamma", "--", "-1e17", timeout=30)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: pole at -100000000000000000")

    @pytest.mark.parametrize(
        "argv, printed",
        [
            (("zeta", "1e308"), "1+0i"),
            (("zeta", "--", "-1e308"), "0+0i"),
            (("eta", "1e308"), "1+0i"),
            (("gamma", "--", "-0.5"), "-3.54490770181103+0i"),
        ],
    )
    def test_range_ends_and_real_values_under_warnings_as_errors(self, argv, printed):
        proc = run_cli("eval", *argv, env_extra={"PYTHONWARNINGS": "error"})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == printed

    def test_completed_half_discrepancy_note(self):
        proc = run_cli("eval", "completed", "0.5+0i")
        assert proc.returncode == 0
        assert proc.stdout.startswith("-3.9769662255")
        assert "discrepancy-flag" in proc.stdout
        assert "-0.05438" in proc.stdout

    def test_json_output(self):
        proc = run_cli("eval", "gamma", "0.25+0i", "--json")
        payload = json.loads(proc.stdout)
        assert payload["value"]["re"] == pytest.approx(3.6256099082219083, rel=1e-12)

    def test_parse_error_exit_code(self):
        proc = run_cli("eval", "zeta", "spam")
        assert proc.returncode == 2

    def test_reflected_past_overflow(self):
        proc = run_cli("eval", "zeta", "0.3+600i")
        assert proc.returncode == 0
        value = parse_complex(proc.stdout)
        s, ref = ZETA_REFLECTED_HIGH[0]
        assert s == complex(0.3, 600.0)
        assert abs(value - ref) <= 1e-10 * abs(ref)

    def test_far_left_and_non_finite(self):
        proc = run_cli("eval", "zeta", "--", "-201")
        assert proc.returncode == 0
        assert parse_complex(proc.stdout).real == pytest.approx(-1.8568690810125945e216, rel=1e-12)
        proc = run_cli("eval", "zeta", "nan")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: zeta needs a finite argument")

    def test_past_double_range_names_no_exception_class(self, capsys):
        # the log Gamma of f leaves double range in its imaginary part
        assert main(["eval", "zeta", "--", "-0.6946483235119554+3.833474020713511e305i"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: f at s = ") and "leaves double range" in err
        assert "Error" not in err

    @pytest.mark.parametrize("function, value", [("zeta", "1.5e308+1.5e308i"), ("completed", "-1.5e308-1.7e308i")])
    def test_both_parts_far_out_names_no_exception_class(self, function, value, capsys):
        # |s| would overflow: the refusal is the eta term cap's or f's
        assert main(["eval", function, "--", value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Error" not in err

    @pytest.mark.parametrize("function", sorted(_EVAL_FUNCTIONS))
    def test_nan_is_typed_and_names_the_function(self, function, capsys):
        assert main(["eval", function, "nan"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {NAN_LABELS[function]} ")

    def test_unexpected_exception_exit_two(self, monkeypatch, capsys):
        import zetasphere.cli as cli

        def boom(args):
            raise OverflowError("math range error")

        monkeypatch.setattr(cli, "_cmd_eval", boom)
        assert main(["eval", "zeta", "2+0i"]) == 2
        assert capsys.readouterr().err == "error: OverflowError: math range error\n"


class TestZeros:
    def test_window_rows(self, tmp_path):
        out = tmp_path / "zeros.csv"
        proc = run_cli("zeros", "--from", "10", "--to", "30", "--step", "0.25", "--out", str(out))
        assert proc.returncode == 0
        rows = [l for l in out.read_text().splitlines() if l and not l.startswith(("#", "ordinate"))]
        assert len(rows) == 3

    def test_empty_window_exit_zero(self):
        proc = run_cli("zeros", "--from", "0", "--to", "10", "--step", "0.25")
        assert proc.returncode == 0
        rows = [l for l in proc.stdout.splitlines() if l and not l.startswith(("#", "ordinate"))]
        assert rows == []

    def test_a_short_last_cell_is_scanned(self):
        # 14.1347 lies past the last whole step, 14.0, below --to
        proc = run_cli("zeros", "--from", "0", "--to", "14.2")
        assert proc.returncode == 0
        rows = [l for l in proc.stdout.splitlines() if l and not l.startswith(("#", "ordinate"))]
        assert len(rows) == 1
        assert rows[0].startswith("14.134725")

    def test_json_output(self, tmp_path):
        out = tmp_path / "zeros.json"
        run_cli("zeros", "--from", "10", "--to", "22", "--step", "0.25", "--out", str(out))
        payload = json.loads(out.read_text())
        assert payload[0]["ordinate"] == pytest.approx(14.134725, abs=1e-5)

    def test_malformed_range(self):
        proc = run_cli("zeros", "--from", "30", "--to", "10", "--step", "0.25")
        assert proc.returncode == 2

    def test_out_directory_exit_two(self, tmp_path):
        proc = run_cli("zeros", "--from", "10", "--to", "16", "--out", str(tmp_path))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: IsADirectoryError:")
        assert "Traceback" not in proc.stderr


class TestVerify:
    def test_version_single_source(self):
        import zetasphere
        from zetasphere.report import VerificationReport
        from zetasphere.zeros import CSV_HEADER

        assert VerificationReport.build([]).meta["version"] == zetasphere.__version__
        assert CSV_HEADER == f"# zetasphere v{zetasphere.__version__}"

    def test_table1_passes(self):
        proc = run_cli("verify", "--suite", "table1")
        assert proc.returncode == 0
        assert proc.stdout.count("PASS") == 11

    def test_json_report_schema(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("verify", "--suite", "flow", "--json", str(out))
        assert proc.returncode == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"items", "meta"}
        assert {"name", "target", "computed", "tolerance", "status"} <= set(payload["items"][0])
        assert set(payload["meta"]) == {"version", "timestamp"}

    def test_discrepancy_flags_do_not_fail_run(self):
        proc = run_cli("verify", "--suite", "hurwitz")
        assert proc.returncode == 0
        assert "DISCREPANCY-FLAG" in proc.stdout

    def test_unknown_suite_exit_two(self):
        proc = run_cli("verify", "--suite", "nonsense")
        assert proc.returncode == 2

    def test_unknown_suite_is_a_domain_error(self):
        from zetasphere import verify
        from zetasphere.errors import DomainError

        with pytest.raises(DomainError, match=r"^unknown suite 'bogus'; choose from \["):
            verify.run_suite("bogus")

    def test_byte_identical_reports(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("verify", "--suite", "flow", "--json", str(a))
        run_cli("verify", "--suite", "flow", "--json", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_first_zero_refined_once(self, monkeypatch):
        from zetasphere import verify, zeros

        calls = []
        refine = zeros.refine_zero
        monkeypatch.setattr(zeros, "refine_zero", lambda bracket: calls.append(bracket) or refine(bracket))
        verify.first_zero.cache_clear()
        verify.run_suite("all")
        assert calls == [verify.FIRST_ZERO_BRACKET]

    def test_stieltjes_constants_extracted_once(self, monkeypatch):
        from zetasphere import verify

        calls = []
        extract = verify.stieltjes_gamma
        monkeypatch.setattr(verify, "stieltjes_gamma", lambda k: calls.append(k) or extract(k))
        computed = {item.name: item.computed for item in verify.run_suite("functional").items}
        assert calls == [0, 1, 2, 3, 4]
        flag = computed["paper-claim/stieltjes limit prefactor (gamma_1 sign)"]
        assert flag == computed["zeta/stieltjes gamma_1 extraction"]

    def test_functional_equation_item_sees_an_error_in_zeta(self, monkeypatch):
        # zeta_eval off by 1e-6 on Re s >= 1/2, and so by f(s) zeta(1 - s)
        # left of the line too: a residual taken from zeta_eval on both
        # sides would cancel it
        from zetasphere import report, verify, zeta

        verify.run_suite("functional")  # fills the Stieltjes samples with true values
        right_half = zeta._zeta_right_half
        monkeypatch.setattr(zeta, "_zeta_right_half", lambda s: (1 + 1e-6) * right_half(s))
        status = {item.name: item.status for item in verify.run_suite("functional").items}
        assert status["functional/eq4 max rel residual (200-pt strip grid)"] == report.FAIL


class TestExtend:
    def test_default_summary(self):
        proc = run_cli("extend")
        assert proc.returncode == 0
        assert "4.9764217" in proc.stdout.replace("e-03", "")
        assert "b = 2" in proc.stdout
        assert "riemann-hurwitz 2 = 2*deg - b: pass" in proc.stdout
        assert "6.8046" in proc.stdout  # both variants always shown

    def test_paper_anchor(self):
        proc = run_cli("extend", "--paper-anchor")
        assert proc.returncode == 0
        assert "6.8046535932e-05" in proc.stdout or "6.804653593e-05" in proc.stdout

    def test_negative_ordinate(self):
        proc = run_cli("extend", "--ordinate", "-1")
        assert proc.returncode == 2

    def test_json(self):
        proc = run_cli("extend", "--paper-anchor", "--json")
        payload = json.loads(proc.stdout)
        assert payload["degree"] == 2
        assert payload["riemann_hurwitz_ok"] is True
        assert payload["constant"]["re"] == pytest.approx(6.8046535931673308e-5, rel=1e-9)


class TestPlotdata:
    def test_zline_row_count(self):
        proc = run_cli("plotdata", "--what", "zline", "--range", "0:50:0.05")
        rows = [l for l in proc.stdout.splitlines() if l and not l.startswith("#")]
        assert len(rows) == 1001

    def test_header_comment(self):
        proc = run_cli("plotdata", "--what", "zline", "--range", "0:1:0.5")
        assert proc.stdout.splitlines()[0] == "# zetasphere v0.1.0"
        assert proc.stdout.splitlines()[1].startswith("# columns:")

    def test_fabs_grid(self):
        proc = run_cli("plotdata", "--what", "fabs", "--range", "0.1:0.9:0.4", "--yrange", "0:2:1")
        rows = [l for l in proc.stdout.splitlines() if l and not l.startswith("#")]
        assert len(rows) == 9
        x, y, v = rows[0].split(",")
        assert float(v) > 0

    def test_strip_surface_grid(self):
        proc = run_cli("plotdata", "--what", "strip-surface", "--range", "0.25:0.75:0.25", "--yrange", "2:4:1")
        rows = [l for l in proc.stdout.splitlines() if l and not l.startswith("#")]
        assert len(rows) == 9
        assert all(float(r.split(",")[2]) > 0 for r in rows)

    def test_unknown_what(self):
        proc = run_cli("plotdata", "--what", "bogus")
        assert proc.returncode == 2

    def test_bad_range(self):
        # an unparsable or non-finite part is the typed error too, which
        # names no Python exception
        for text in ("0:50", "a:b:c", "nan:1:0.1", "0:1:nan", "0:inf:1", "0:1e300:1e-300"):
            proc = run_cli("plotdata", "--what", "zline", "--range", text)
            assert proc.returncode == 2, text
            assert proc.stderr.startswith("error: ") and repr(text) in proc.stderr, proc.stderr
            assert not re.search(r"\w+(Error|Exception)\b", proc.stderr), proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ("--what", "zline", "--range", "0:1e12:1"),
            ("--what", "fabs", "--range", "0:1999:1", "--yrange", "0:1999:1"),
        ],
    )
    def test_too_many_rows(self, argv):
        # refused before a row is built: 10^12 rows, and a 2000 x 2000 grid
        # of ranges that are each small enough alone
        proc = run_cli("plotdata", *argv)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: bad range") and "too many points" in proc.stderr, proc.stderr
        assert proc.stdout == ""

    def test_row_cap_is_inclusive(self):
        xs, ys = _grid_values("0:999:1", "0:999:1")
        assert len(xs) * len(ys) == MAX_ROWS
        with pytest.raises(ZetasphereError, match="too many points"):
            _grid_values("0:1000:1", "0:999:1")

    def test_deterministic_output(self):
        a = run_cli("plotdata", "--what", "zline", "--range", "0:5:0.5").stdout
        b = run_cli("plotdata", "--what", "zline", "--range", "0:5:0.5").stdout
        assert a == b


class TestConfig:
    """The scan step has one setting, ``zeros --step``; there is no config
    file or environment variable."""

    def test_step_default_is_quarter(self):
        bare = run_cli("zeros", "--from", "10", "--to", "30")
        explicit = run_cli("zeros", "--from", "10", "--to", "30", "--step", "0.25")
        assert bare.returncode == explicit.returncode == 0
        assert bare.stdout == explicit.stdout

    def test_config_flag_is_gone(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scan_step = 0.25\n")
        proc = run_cli("--config", str(cfg), "zeros", "--from", "10", "--to", "16")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr

    def test_config_env_var_is_ignored(self, tmp_path):
        proc = run_cli("zeros", "--from", "10", "--to", "16", env_extra={"ZETASPHERE_CONFIG": str(tmp_path)})
        assert proc.returncode == 0
        assert proc.stdout == run_cli("zeros", "--from", "10", "--to", "16").stdout

    def test_main_callable_directly(self):
        assert main(["eval", "zeta", "3+0i"]) == 0
