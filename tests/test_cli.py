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
    for flags in (["--n", "-3"], ["--n", "6", "--kappa", "-1"]):
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
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    assert main(["table1", "--config", str(cfg)]) == 1


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
