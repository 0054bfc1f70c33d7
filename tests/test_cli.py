import io
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from qmetro.cli import (
    ConfigError,
    cmd_classify,
    cmd_figure2,
    cmd_sweep,
    main,
    parse_config,
    serialize_config,
)

EQ2 = """
family.p = 0.1
family.pdot = 0
family.g0 = 1 0 0
family.g1 = -1 0 0
"""

CONFIG_CORPUS = [
    EQ2,
    EQ2 + "protocol.kind = sql\nprotocol.w = 0.02\nn = 1..5\nseed = 3\n",
    EQ2 + "protocol.kind = repeated\nprotocol.interval = 4\nn = 2 4 8\nout = r.csv\n",
    "ptm.t = 0 0 0\nptm.row0 = 0.5 0 0\nptm.row1 = 0 0.5 0\nptm.row2 = 0 0 0.5\n",
    EQ2 + "protocol.kind = spam\nprotocol.q = 0.02\nprotocol.z0 = 1\nn = 10\n",
]


class TestConfig:
    def test_round_trip_corpus(self):
        # parse o serialize o parse == parse, compared through the canonical form
        for text in CONFIG_CORPUS:
            once = parse_config(text)
            again = parse_config(serialize_config(once))
            assert serialize_config(again) == serialize_config(once)

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("family.p = 0.1\nbogus line\n")

    def test_unknown_field(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse_config(EQ2 + "mystery = 1\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("family.p = 0.1\nfamily.p = 0.2\n")

    def test_bad_number(self):
        with pytest.raises(ConfigError):
            parse_config("family.p = abc\n")

    def test_n_range(self):
        cfg = parse_config(EQ2 + "n = 3..6\n")
        assert cfg.n_values == (3, 4, 5, 6)

    def test_n_list(self):
        cfg = parse_config(EQ2 + "n = 1 10 100\n")
        assert cfg.n_values == (1, 10, 100)


class TestClassifyCommand:
    def test_example_family(self):
        cfg = parse_config(EQ2)
        buf = io.StringIO()
        assert cmd_classify(cfg, out=buf) == 0
        text = buf.getvalue()
        assert "DephasingClass" in text
        assert "hnks = holds" in text
        assert "rgnks = holds" in text

    def test_half_probability(self):
        cfg = parse_config(EQ2.replace("0.1", "0.5"))
        buf = io.StringIO()
        cmd_classify(cfg, out=buf)
        text = buf.getvalue()
        assert "hnks = violated" in text
        assert "rgnks = holds" in text

    def test_depolarizing_ptm(self):
        cfg = parse_config(CONFIG_CORPUS[3])
        buf = io.StringIO()
        cmd_classify(cfg, out=buf)
        text = buf.getvalue()
        assert "StrictlyContractive" in text
        assert "hnks = violated" in text  # Kraus span is full for contractive maps


class TestSweepCommand:
    def test_sql_sweep_monotone(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cfg = parse_config(EQ2 + f"protocol.kind = sql\nn = 1..100\nout = {out}\n")
        assert cmd_sweep(cfg) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "protocol,n,p,w,q,interval,value"
        assert len(lines) == 101
        values = [float(line.split(",")[-1]) for line in lines[1:]]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_empty_n_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        cfg = parse_config(EQ2 + f"protocol.kind = sql\nout = {out}\n")
        assert cmd_sweep(cfg) == 0
        assert out.read_text() == "protocol,n,p,w,q,interval,value\n"

    def test_determinism(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            cfg = parse_config(
                EQ2 + f"protocol.kind = spam\nprotocol.q = 0.02\nn = 1..20\nseed = 9\nout = {path}\n"
            )
            cmd_sweep(cfg, threads=2)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestFigure2Command:
    def test_columns_and_values(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert cmd_figure2(n_max=12, out_path=str(out)) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        assert header == [
            "n",
            "qec_analytic",
            "sql_q0",
            "sql_q0.001",
            "sql_q0.02",
            "repeated_measurement",
            "no_control",
        ]
        row = lines[10].split(",")
        assert int(row[0]) == 10
        assert np.isclose(float(row[1]), 256.0)  # 2.56 n^2 at n = 10
        # small-n crossover (inset behavior): the unitary protocol starts above
        # the QEC curve before the quadratic scaling takes over
        first = lines[1].split(",")
        assert float(first[2]) > float(first[1])


class TestExitCodes:
    def test_ok(self, tmp_path):
        cfg_path = tmp_path / "ok.conf"
        cfg_path.write_text(EQ2)
        assert main(["--config", str(cfg_path), "classify"]) == 0

    def test_malformed_config_is_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.conf"
        cfg_path.write_text("family.p == 0.1\n")
        assert main(["--config", str(cfg_path), "classify"]) == 2
        assert capsys.readouterr().err.startswith("error:config:")

    def test_missing_config_file_is_3(self, capsys):
        assert main(["--config", "/nonexistent/path.conf", "classify"]) == 3
        assert capsys.readouterr().err.startswith("error:io:")

    def test_unwritable_output_is_3(self, tmp_path):
        cfg_path = tmp_path / "c.conf"
        cfg_path.write_text(EQ2 + "protocol.kind = sql\nn = 1 2\n")
        target = tmp_path / "no_such_dir" / "x.csv"
        assert main(["--config", str(cfg_path), "--out", str(target), "sweep"]) == 3

    def test_domain_error_is_4(self, tmp_path, capsys):
        cfg_path = tmp_path / "d.conf"
        cfg_path.write_text(EQ2 + "protocol.kind = spam\nprotocol.q = 0.7\nn = 1 2\n")
        assert main(["--config", str(cfg_path), "sweep"]) == 4
        assert capsys.readouterr().err.startswith("error:domain:")

    def test_non_finite_generator_is_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "nan.conf"
        cfg_path.write_text("family.p = 0.1\nfamily.g0 = inf 0 0\nfamily.g1 = nan 0 0\n")
        assert main(["--config", str(cfg_path), "classify"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:config:")
        assert captured.out == ""

    def test_non_finite_pdot_is_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "pdot.conf"
        out = tmp_path / "rows.csv"
        cfg_path.write_text(EQ2.replace("pdot = 0", "pdot = nan") + "protocol.kind = sql\nn = 1..3\n")
        assert main(["--config", str(cfg_path), "--out", str(out), "sweep"]) == 2
        assert capsys.readouterr().err.startswith("error:config:")
        assert not out.exists()

    def test_non_finite_generator_warns_nothing(self, tmp_path, capsys):
        # the coefficient tokens are checked before they multiply the Paulis
        cfg_path = tmp_path / "inf.conf"
        cfg_path.write_text("family.p = 0.1\nfamily.g0 = inf 0 0\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["--config", str(cfg_path), "classify"]) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert capsys.readouterr().err.startswith("error:config:")

    def test_huge_n_range_is_2(self, tmp_path, capsys):
        # rejected before the range is built, so no memory is spent on it
        cfg_path = tmp_path / "range.conf"
        out = tmp_path / "rows.csv"
        cfg_path.write_text(EQ2 + "protocol.kind = sql\nn = 1..1000000000000\n")
        assert main(["--config", str(cfg_path), "--out", str(out), "sweep"]) == 2
        assert capsys.readouterr().err.startswith("error:config:")
        assert not out.exists()
        assert len(parse_config(EQ2 + "n = 1..1000000").n_values) == 1_000_000
        with pytest.raises(ConfigError):
            parse_config(EQ2 + "n = 0..1000000")

    def test_huge_bound_n_is_2(self, tmp_path, capsys):
        # one n value above MAX_N_VALUES is rejected before any step is built
        cfg_path = tmp_path / "bound.conf"
        out = tmp_path / "bound.csv"
        cfg_path.write_text(EQ2 + "n = 2000000\n")
        assert main(["--config", str(cfg_path), "--out", str(out), "bound"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:config:")
        assert captured.out == ""
        assert not out.exists()

    def test_qec_sweep_at_large_n(self, tmp_path):
        cfg_path = tmp_path / "qec.conf"
        out = tmp_path / "qec.csv"
        cfg_path.write_text(EQ2.replace("0.1", "0.13") + "protocol.kind = qec\nn = 5000\n")
        assert main(["--config", str(cfg_path), "--out", str(out), "sweep"]) == 0
        value = float(out.read_text().splitlines()[1].split(",")[-1])
        assert np.isclose(value, 4 * (1 - 2 * 0.13) ** 2 * 5000**2, rtol=1e-12)

    def test_seed_flag_overrides(self, tmp_path):
        cfg_path = tmp_path / "s.conf"
        cfg_path.write_text(EQ2 + "seed = 1\n")
        # smoke: flag accepted and command still succeeds
        assert main(["--config", str(cfg_path), "--seed", "42", "classify"]) == 0


class TestFlagPlacement:
    def test_shared_flags_accepted_after_subcommand(self, tmp_path):
        out = tmp_path / "fig.csv"
        assert main(["figure2", "--n-max", "3", "--out", str(out)]) == 0
        assert out.exists()
        cfg_path = tmp_path / "c.conf"
        cfg_path.write_text(EQ2)
        assert main(["classify", "--config", str(cfg_path)]) == 0


class TestThreadDefaults:
    def test_env_var_honored_and_flag_wins(self, monkeypatch):
        from qmetro.cli import THREADS_ENV, _thread_count, build_parser

        parser = build_parser()
        monkeypatch.setenv(THREADS_ENV, "4")
        args = parser.parse_args(["classify"])
        assert _thread_count(args) == 4
        args = parser.parse_args(["--threads", "2", "classify"])
        assert _thread_count(args) == 2
        monkeypatch.delenv(THREADS_ENV)
        args = parser.parse_args(["classify"])
        assert _thread_count(args) == 1

    def test_thread_flag_changes_no_byte(self, tmp_path):
        outs = []
        for threads in ("1", "2"):
            outs.append(tmp_path / f"fig2_t{threads}.csv")
            argv = ["figure2", "--n-max", "50", "--threads", threads, "--out", str(outs[-1])]
            assert main(argv) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


class TestOtherCommands:
    def test_qfi_command(self):
        from qmetro.cli import cmd_qfi

        cfg = parse_config(EQ2)
        buf = io.StringIO()
        assert cmd_qfi(cfg, out=buf) == 0
        lines = buf.getvalue().strip().splitlines()
        values = {l.split(",")[0]: float(l.split(",")[1]) for l in lines[1:]}
        assert np.isclose(values["channel_qfi_ancilla"], 4.0, rtol=1e-6)
        assert values["channel_qfi_no_ancilla"] <= values["channel_qfi_ancilla"] + 1e-7
        assert np.isclose(values["eta_bound"], 1.0)

    def test_bound_command(self, tmp_path):
        from qmetro.cli import cmd_bound

        out = tmp_path / "bound.csv"
        cfg = parse_config(EQ2 + f"n = 1..20\nout = {out}\n")
        buf = io.StringIO()
        assert cmd_bound(cfg, out=buf) == 0
        text = out.read_text()
        assert text.startswith("# extension bound, n = 20")
        assert "k,alpha_term,cross_term,gamma_norm,running_total" in text

    def test_bound_reports_ceiling_when_rgnks_fails(self):
        from qmetro.cli import cmd_bound

        cfg = parse_config(
            "family.p = 0.1\nfamily.g0 = 0 0 1\nfamily.g1 = 0 0 1\nn = 1..5\n"
        )
        buf = io.StringIO()
        cmd_bound(cfg, out=buf)
        assert "rgnks_violated_bound" in buf.getvalue()


class TestStdoutAtCallTime:
    def test_bound_output_reaches_capsys(self, tmp_path, capsys):
        cfg_path = tmp_path / "b.conf"
        cfg_path.write_text(EQ2 + "n = 3\n")
        assert main(["--config", str(cfg_path), "bound"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# extension bound, n = 3")
        assert len(out.strip().splitlines()) == 5

    def test_redirect_stdout_sees_every_command(self, tmp_path):
        import contextlib

        cfg_path = tmp_path / "s.conf"
        cfg_path.write_text(EQ2 + "protocol.kind = sql\nn = 1 2\n")
        for argv in (["classify"], ["bound"], ["sweep"], ["figure2", "--n-max", "2"]):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert main(["--config", str(cfg_path)] + argv) == 0
            assert buf.getvalue(), argv


class TestModuleEntryPoint:
    def test_python_m_qmetro_help(self):
        import qmetro

        src = os.path.dirname(os.path.dirname(os.path.abspath(qmetro.__file__)))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "qmetro", "--help"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=120,
        )
        assert proc.returncode == 0
        assert "usage: qmetro" in proc.stdout
        assert "RuntimeWarning" not in proc.stderr
