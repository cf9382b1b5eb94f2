"""The ``python -m repro`` command-line interface."""

import re

import pytest

from repro.__main__ import main


class TestCli:
    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        output = capsys.readouterr().out
        assert "Choose-Plan" in output
        assert "chose" in output

    def test_default_command_is_demo(self, capsys):
        assert main([]) == 0
        assert "demo" in capsys.readouterr().out

    def test_experiments_small(self, capsys):
        assert main(["experiments", "2"]) == 0
        output = capsys.readouterr().out
        assert "TABLE 1" in output
        assert "FIGURE8" in output

    def test_sql(self, capsys):
        code = main(
            ["sql", "SELECT * FROM R1, R2 WHERE R1.a < :v AND R1.b = R2.c"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "static plan" in output
        assert "dynamic plan" in output

    def test_sql_without_query(self, capsys):
        assert main(["sql"]) == 2

    def test_unknown_command(self, capsys):
        assert main(["bogus"]) == 2
        assert "Commands" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command", ("run", "serve-batch", "explain", "accuracy", "chaos")
    )
    def test_execution_mode_flag_is_unknown(self, command, capsys):
        """There is one engine: the flag that chose one is refused like
        any other unknown flag; ``--batch-size 1`` is record-at-a-time."""
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--execution-mode", "batch"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        (
            ["run", "--query", "2", "--skew", "1.5:-0.2"],
            ["chaos", "--queries", "1", "--skew", "0.02:7"],
            ["chaos", "--queries", "1", "--skew", "nan:0.5"],
        ),
    )
    def test_skew_outside_unit_interval_exits_2(self, argv, capsys):
        """A selectivity is a fraction of the rows: outside [0, 1] the
        lie cannot be bound, so the command refuses it up front."""
        assert main(argv) == 2
        assert "must lie in [0, 1]" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        (
            ["run", "--query", "2", "--reopt", "sometimes"],
            ["run", "--query", "2", "--reopt", "auto:sort"],
            ["explain", "--analyze", "--reopt", "bogus"],
        ),
    )
    def test_bad_reopt_policy_exits_2(self, argv, capsys):
        """A policy is parsed before any work: one line, no traceback."""
        assert main(argv) == 2
        output = capsys.readouterr().out
        assert output.startswith("%s: reopt mode must be one of" % argv[0])
        assert output.count("\n") == 1


    @pytest.mark.parametrize(
        "argv, reason",
        (
            (["sql", "SELEC x"], "expected keyword 'SELECT'"),
            (["explain", "SELEC x"], "expected keyword 'SELECT'"),
            (["experiments", "x"], "invalid int value: 'x'"),
            (["explain", "--reopt", "always"], "--reopt requires --analyze"),
        ),
    )
    def test_input_error_is_one_line_exit_2(self, argv, reason, capsys):
        """Malformed SQL, a non-integer invocation count and a flag
        missing its companion fail typed: one line, no traceback."""
        assert main(argv) == 2
        output = capsys.readouterr().out
        assert output.startswith("%s: " % argv[0])
        assert reason in output
        assert output.count("\n") == 1

    @pytest.mark.parametrize(
        "command, options",
        (
            ("demo", ()),
            (
                "run",
                ("--batch-size", "--query", "--reopt", "--seed", "--skew",
                 "--static"),
            ),
            ("experiments", ("--accuracy", "--csv")),
            ("sql", ()),
            (
                "serve-batch",
                ("--capacity", "--invocations", "--no-execute",
                 "--qps-report", "--seed", "--shards", "--snapshot"),
            ),
            (
                "explain",
                ("--analyze", "--deadline", "--fault-profile", "--query",
                 "--reopt", "--seed", "--static", "--wall"),
            ),
            (
                "accuracy",
                ("--invocations", "--json", "--queries", "--seed", "--static"),
            ),
            (
                "chaos",
                ("--hang-shard", "--heal-at", "--inject-at", "--json",
                 "--kill-shard", "--output", "--profile", "--queries",
                 "--reopt", "--requests", "--seed", "--shards", "--skew",
                 "--slow-shard"),
            ),
        ),
    )
    def test_every_command_answers_help(self, command, options, capsys):
        """Each command's ``--help`` exits 0 and lists exactly its
        options; no command parses argv by hand."""
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        listed = set()
        for line in capsys.readouterr().out.splitlines():
            if line.startswith("  -"):
                column = re.split(r"\s{2,}", line.strip())[0]
                listed.update(part.split(" ")[0] for part in column.split(", "))
        assert listed == {"-h", "--help", *options}


class TestRunnerCsv:
    def test_csv_export(self, tmp_path, capsys):
        from repro.experiments.runner import main as runner_main

        assert runner_main(["2", "--csv", str(tmp_path)]) == 0
        csvs = sorted(path.name for path in tmp_path.glob("*.csv"))
        assert csvs == [
            "figure3.csv", "figure4.csv", "figure5.csv",
            "figure6.csv", "figure7.csv", "figure8.csv",
        ]
        header = (tmp_path / "figure4.csv").read_text().splitlines()[0]
        assert header == "query,uncertain_variables,series,value"

    def test_csv_requires_directory(self, capsys):
        from repro.experiments.runner import main as runner_main

        assert runner_main(["2", "--csv"]) == 2
