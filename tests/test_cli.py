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
    for name in ("table1", "table2", "table3", "failure", "probe", "check-gradients"):
        args = parser.parse_args([name])
        assert args.command == name


def test_table1_small_run(tmp_path, capsys):
    rc = main(["table1", "--n", "8", "--out", str(tmp_path)])
    assert rc == 0
    csv = (tmp_path / "table1.csv").read_text()
    assert csv.splitlines()[1].startswith("h,")
    assert not (tmp_path / "table1.csv.full.csv").exists()


def test_table2_and_table3_small_runs(tmp_path):
    assert main(["table2", "--n", "6", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "table2.csv").read_text().startswith("# objective=mols")
    # one row at the given level; --delta 0 is the noise-free row, not the sweep
    for delta, label in (("1e-2", "1e-02,"), ("0", "0e+00,")):
        assert main(["table3", "--n", "6", "--delta", delta, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "table3.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("delta,") and lines[2].startswith(label)


def test_failure_exit_codes(tmp_path):
    assert main(["failure", "--eps", "0", "--n", "10"]) == 2
    assert main(["failure", "--eps", "1e-4", "--n", "10"]) == 0
    assert main(["failure", "--eps", "1e-12", "--n", "8"]) == 2  # stops on linesearch_failure
    assert main(["failure", "--eps", "1e-10", "--n", "8"]) == 0  # stagnation, near-singular


def test_unexpected_error_exit_code(tmp_path, capsys):
    # argparse usage errors exit 1 too; 2 is kept for the failure demo
    for flags in (["--n", "-3"], ["--n", "6", "--kappa", "-1"], ["--bogus", "1"],
                  ["--n", "six"]):
        rc = main(["table1", *flags, "--out", str(tmp_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


def test_non_finite_values_exit_1(tmp_path, capsys):
    # a NaN or infinite value is a usage error, not the singular-system demo
    out = ["--out", str(tmp_path)]
    for argv in (["table1", "--eps", "nan", *out], ["table1", "--kappa", "nan", *out],
                 ["table1", "--kappa", "inf", *out], ["table3", "--delta", "nan", *out],
                 ["failure", "--eps", "nan"], ["check-gradients", "--eps", "inf"]):
        assert main([*argv, "--n", "4"]) == 1
        assert "finite" in capsys.readouterr().err


# the value flags each subcommand's handler reads
_READS = {
    "table1": {"n", "kappa", "eps", "out"},
    "table2": {"n", "kappa", "eps", "out"},
    "table3": {"n", "kappa", "eps", "delta", "seed", "objective", "out"},
    "failure": {"n", "kappa", "eps", "objective"},
    "probe": {"n", "seed", "out"},
    "check-gradients": {"n", "eps", "seed"},
}
_VALUES = {"n": "6", "kappa": "0.5", "eps": "0.25", "delta": "0.125", "seed": "3",
           "objective": "mols", "out": "x"}


def test_each_command_accepts_only_the_flags_it_reads(capsys):
    parser = build_parser()
    for command, reads in _READS.items():
        assert set(vars(parser.parse_args([command]))) == reads | {"command"}
        # there is no config file option: argv is the one way to set a flag
        assert main([command, "--config", "x.cfg"]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        for flag, value in _VALUES.items():
            argv = [command, f"--{flag}", value]
            if flag in reads:
                assert str(getattr(parser.parse_args(argv), flag)) == value
            else:
                assert main(argv) == 1, argv
                assert "unrecognized arguments" in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert main(["table3", "--help"]) == 0
    assert "--objective" in capsys.readouterr().out


def _probe_lines(tmp_path, capsys):
    assert main(["probe", "--n", "6", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "probe.csv").read_text().splitlines()
    assert lines[0].split(",")[:5] == ["n", "eps", "tau", "residual_fcd", "residual_scd"]
    assert len(lines) == 9  # header + default 8 schedule entries
    return lines[1:], capsys.readouterr().out


def test_probe_fcd_writes_csv(tmp_path, monkeypatch, capsys):
    builds = _count_mesh_builds(monkeypatch)
    rows, out = _probe_lines(tmp_path, capsys)
    assert builds == [6]  # the probe runs on the manufactured problem's mesh
    assert all(float(row.split(",")[3]) >= 0.0 for row in rows)
    assert out.count("residual_fcd=") == 8


def test_probe_scd_writes_csv(tmp_path, capsys):
    rows, out = _probe_lines(tmp_path, capsys)
    assert all(float(row.split(",")[4]) >= 0.0 for row in rows)
    assert out.count("residual_scd=") == 8


def test_removed_commands_exit_1(tmp_path, capsys):
    # the probe writes both residuals, table2 is the MOLS table, and the
    # noise-free tables and the failure demo draw no noise, so take no seed
    out = ["--out", str(tmp_path)]
    for argv in (["probe-fcd", *out], ["probe-scd", *out],
                 ["table1", "--objective", "mols", *out], ["table1", "--seed", "3", *out],
                 ["table2", "--seed", "3", *out], ["failure", "--seed", "3"]):
        assert main([*argv, "--n", "4"]) == 1
        assert "error:" in capsys.readouterr().err


def test_check_gradients_passes(capsys, monkeypatch):
    builds = _count_mesh_builds(monkeypatch)
    rc = main(["check-gradients"])
    assert rc == 0
    assert len(builds) == 1
    assert "gradient routes agree" in capsys.readouterr().out


def test_check_gradients_mismatch_exits_1(capsys, monkeypatch):
    from ellreg import oracles

    direct = oracles.ols_gradient_direct
    monkeypatch.setattr(oracles, "ols_gradient_direct",
                        lambda op, V, Z: 1.01 * direct(op, V, Z))
    assert main(["check-gradients"]) == 1
    assert "GRADIENT ROUTE MISMATCH" in capsys.readouterr().out


def test_cli_outputs_byte_identical(tmp_path):
    # a seeded noise draw; the noise-free table1 is pinned by tests/golden
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert main(["table3", "--n", "8", "--delta", "1e-2", "--seed", "3",
                     "--out", str(out)]) == 0
    assert ((out1 / "table3.csv").read_bytes()
            == (out2 / "table3.csv").read_bytes())
