import numpy as np
import pytest

from ellreg import cli, experiments, mesh
from ellreg.cli import build_parser, main


def _count_mesh_builds(monkeypatch):
    """Record every build_unit_square call made through a module that holds it."""
    calls = []
    build = mesh.build_unit_square

    def counted(n):
        calls.append(n)
        return build(n)

    for module in (mesh, experiments, cli):
        if getattr(module, "build_unit_square", None) is build:
            monkeypatch.setattr(module, "build_unit_square", counted)
    return calls


def test_parser_has_all_subcommands():
    parser = build_parser()
    for name in ("table1", "table2", "table3", "failure", "probe-fcd",
                 "probe-scd", "check-gradients"):
        args = parser.parse_args([name])
        assert args.command == name


def test_table1_small_run(tmp_path, capsys):
    rc = main(["table1", "--n", "8", "--out", str(tmp_path)])
    assert rc == 0
    csv = (tmp_path / "table1.csv").read_text()
    assert csv.splitlines()[1].startswith("h,")
    assert (tmp_path / "table1.csv.full.csv").exists()


def test_table2_and_table3_small_runs(tmp_path):
    assert main(["table2", "--n", "6", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "table2.csv").read_text().startswith("# objective=mols")
    assert main(["table3", "--n", "6", "--delta", "1e-2", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "table3.csv").read_text().splitlines()
    assert lines[1].startswith("delta,") and lines[2].startswith("1e-02,")


def test_failure_exit_codes(tmp_path):
    assert main(["failure", "--eps", "0", "--n", "10"]) == 2
    assert main(["failure", "--eps", "1e-4", "--n", "10"]) == 0


def test_unexpected_error_exit_code(tmp_path, capsys):
    # argparse usage errors exit 1 too; 2 is kept for the failure demo
    for flags in (["--n", "-3"], ["--n", "6", "--kappa", "-1"], ["--bogus", "1"],
                  ["--n", "six"]):
        rc = main(["table1", *flags, "--out", str(tmp_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


def test_config_file_overrides_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nn = 6\neps = 1e-3\n")
    out = tmp_path / "out"
    rc = main(["table1", "--n", "20", "--eps", "1e-5", "--out", str(out),
               "--config", str(cfg)])
    assert rc == 0
    header = (out / "table1.csv").read_text().splitlines()
    assert "eps=0.001" in header[0]
    assert header[2].startswith(f"{np.sqrt(2.0) / 6:.6g},")


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    # config entries parse as the command's own flags
    cases = {
        ("table1", "bogus = 1\n"): "unrecognized arguments",
        ("table1", "objective = bogus\n"): "invalid choice",
        ("probe-fcd", "eps = 1e-3\n"): "unrecognized arguments",
        ("table1", "ep = 1e-3\n"): "unrecognized arguments",  # no abbreviations
        ("table1", "n = 6\nconfig = other.cfg\n"): "cannot name another",
        ("table1", "n 6\n"): "expected key=value",
    }
    for (command, text), message in cases.items():
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert main([command, "--out", str(tmp_path), "--config", str(cfg)]) == 1
        assert message in capsys.readouterr().err
    assert main(["table1", "--config", str(tmp_path / "missing.cfg")]) == 1


# the value flags each subcommand's handler reads; each also takes --config
_READS = {
    "table1": {"n", "kappa", "eps", "seed", "objective", "out"},
    "table2": {"n", "kappa", "eps", "seed", "out"},
    "table3": {"n", "kappa", "eps", "delta", "seed", "objective", "out"},
    "failure": {"n", "kappa", "eps", "seed", "objective"},
    "probe-fcd": {"n", "seed", "out"},
    "probe-scd": {"n", "seed", "out"},
    "check-gradients": {"n", "eps", "seed"},
}
_VALUES = {"n": "6", "kappa": "0.5", "eps": "0.25", "delta": "0.125", "seed": "3",
           "objective": "mols", "out": "x"}


def test_each_command_accepts_only_the_flags_it_reads(capsys):
    parser = build_parser()
    for command, reads in _READS.items():
        assert set(vars(parser.parse_args([command]))) == reads | {"command", "config"}
        for flag, value in _VALUES.items():
            argv = [command, f"--{flag}", value]
            if flag in reads:
                assert str(getattr(parser.parse_args(argv), flag)) == value
            else:
                assert main(argv) == 1, argv
                assert "unrecognized arguments" in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert main(["table1", "--help"]) == 0
    assert "--objective" in capsys.readouterr().out


def test_probe_fcd_writes_csv(tmp_path, monkeypatch):
    builds = _count_mesh_builds(monkeypatch)
    rc = main(["probe-fcd", "--n", "6", "--out", str(tmp_path)])
    assert rc == 0
    assert builds == [6]  # the probe runs on the manufactured problem's mesh
    lines = (tmp_path / "probe_fcd.csv").read_text().splitlines()
    assert lines[0].split(",")[:4] == ["n", "eps", "tau", "residual_fcd"]
    assert len(lines) == 9  # header + default 8 schedule entries


def test_probe_scd_writes_csv(tmp_path):
    rc = main(["probe-scd", "--n", "6", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "probe_scd.csv").exists()


def test_check_gradients_passes(capsys, monkeypatch):
    builds = _count_mesh_builds(monkeypatch)
    rc = main(["check-gradients"])
    assert rc == 0
    assert len(builds) == 1
    assert "gradient routes agree" in capsys.readouterr().out


def test_cli_outputs_byte_identical(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert main(["table1", "--n", "8", "--seed", "3", "--out", str(out)]) == 0
    assert ((out1 / "table1.csv").read_bytes()
            == (out2 / "table1.csv").read_bytes())
    assert ((out1 / "table1.csv.full.csv").read_bytes()
            == (out2 / "table1.csv.full.csv").read_bytes())
