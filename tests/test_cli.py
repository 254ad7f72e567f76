"""The command-line interface."""

import io
import json

import pytest

from repro.cli import main


QUERY = (
    "SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y, Z) "
    "WHERE Y.price > 1.15 * X.price AND Z.price < 0.80 * Y.price"
)


@pytest.fixture
def quotes_csv(tmp_path):
    path = tmp_path / "quotes.csv"
    path.write_text(
        "name,date,price\n"
        "IBM,1999-01-25,100.0\n"
        "IBM,1999-01-26,120.0\n"
        "IBM,1999-01-27,90.0\n"
        "INTC,1999-01-25,60.0\n"
        "INTC,1999-01-26,61.0\n"
        "INTC,1999-01-27,62.0\n"
    )
    return path


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestQuery:
    def test_csv_query(self, quotes_csv):
        code, output = run_cli(
            "query",
            "--table",
            f"quote={quotes_csv}:name:str,date:date,price:float",
            "--positive",
            "price",
            QUERY,
        )
        assert code == 0
        assert "IBM" in output
        assert "(1 rows)" in output

    def test_stats_flag(self, quotes_csv):
        code, output = run_cli(
            "query",
            "--table",
            f"quote={quotes_csv}:name:str,date:date,price:float",
            "--positive",
            "price",
            "--stats",
            QUERY,
        )
        assert code == 0
        assert "predicate_tests=" in output
        assert "speedup=" in output

    def test_matcher_selection(self, quotes_csv):
        code, output = run_cli(
            "query",
            "--table",
            f"quote={quotes_csv}:name:str,date:date,price:float",
            "--matcher",
            "naive",
            QUERY,
        )
        assert code == 0
        assert "IBM" in output

    def test_demo_data(self):
        code, output = run_cli(
            "query",
            "--demo-data",
            "--positive",
            "price",
            "--max-rows",
            "3",
            "SELECT X.date FROM djia SEQUENCE BY date AS (X, Y) "
            "WHERE Y.price < 0.97 * X.price",
        )
        assert code == 0
        assert "rows)" in output

    def test_unknown_table_is_clean_error(self, capsys):
        code, _ = run_cli("query", "SELECT X.a FROM nosuch AS (X) WHERE X.a > 1")
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_syntax_error_is_clean_error(self, capsys):
        code, _ = run_cli("query", "--demo-data", "SELECT FROM WHERE")
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_non_ascii_digit_is_clean_error(self, capsys):
        code, _ = run_cli(
            "query",
            "--demo-data",
            "SELECT X.price FROM djia SEQUENCE BY date AS (X) WHERE X.price > ²",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: non-ASCII digit '²'")
        assert "line 1, column 66" in err
        assert "Traceback" not in err


RISING = (
    "SELECT X.date FROM djia SEQUENCE BY date AS (X, Y) "
    "WHERE Y.price > X.price"
)


class TestNumericFlagBounds:
    """Out-of-range numbers fail at parse time with a usage line (exit 2),
    never with a traceback from the object or call that receives them."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("stream", "--checkpoint-every", "0"),
            ("stream", "--checkpoint-interval", "-1"),
            ("stream", "--retry", "-1"),
            ("stream", "--backoff", "-1"),
            ("stream", "--retry-jitter", "5"),
            ("stream", "--throttle", "-1"),
            ("serve", "--max-concurrent", "0"),
            ("serve", "--max-queued", "-1"),
            ("serve", "--rows-per-second", "-5"),
        ],
        ids=lambda argv: f"{argv[0]}{argv[1]}={argv[2]}",
    )
    def test_out_of_range_value_is_a_usage_error(self, argv, capsys):
        command, *flag = argv
        query = (RISING,) if command == "stream" else ()
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--demo-data", "--positive", "price", *flag, *query])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and flag[0] in err
        assert "Traceback" not in err

    def test_a_quota_with_a_fractional_count_is_refused(self, tmp_path, capsys):
        # 2.5 matches would stop after 3, and 5e4 rows would stay a float.
        quotas = tmp_path / "quotas.json"
        quotas.write_text(
            json.dumps({"team": {"max_matches": 2.5, "max_rows_scanned": 5e4}})
        )
        code = main(["serve", "--demo-data", "--quota-json", str(quotas)])
        assert code == 1
        err = capsys.readouterr().err
        assert (
            "bad quota for tenant 'team': max_matches must be an integer, got 2.5"
            in err
        )
        assert "Traceback" not in err

    def test_negative_max_rows_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["query", "--demo-data", "--max-rows", "-2", RISING])
        assert exit_info.value.code == 2
        assert "--max-rows" in capsys.readouterr().err

    def test_zero_max_rows_prints_only_the_header(self):
        code, output = run_cli(
            "query", "--demo-data", "--positive", "price", "--max-rows", "0",
            RISING,
        )
        assert code == 0
        header, *rest = output.splitlines()
        assert header.split() == ["X.date"]
        assert not any(line[:1].isdigit() for line in rest)


class TestResilienceFlags:
    TABLE_FLAGS = ("--positive", "price")

    @pytest.fixture
    def dirty_csv(self, tmp_path):
        path = tmp_path / "dirty.csv"
        path.write_text(
            "name,date,price\n"
            "IBM,1999-01-25,100.0\n"
            "IBM,bad-date,120.0\n"
            "IBM,1999-01-26,120.0\n"
            "IBM,1999-01-27,90.0\n"
        )
        return path

    def table_arg(self, path):
        return f"quote={path}:name:str,date:date,price:float"

    def test_dirty_csv_raise_is_default(self, dirty_csv, capsys):
        code, _ = run_cli(
            "query", "--table", self.table_arg(dirty_csv), QUERY
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "bad-date" in err

    def test_dirty_csv_skip_quarantines(self, dirty_csv, capsys):
        code, output = run_cli(
            "query",
            "--table",
            self.table_arg(dirty_csv),
            "--on-error",
            "skip",
            *self.TABLE_FLAGS,
            QUERY,
        )
        assert code == 0
        assert "IBM" in output and "(1 rows)" in output
        err = capsys.readouterr().err
        assert "quarantined 1 row(s)" in err
        assert ":3:" in err  # the bad physical line

    def test_max_matches_limit_exit_code(self, quotes_csv, capsys):
        code, output = run_cli(
            "query",
            "--table",
            self.table_arg(quotes_csv),
            "--max-matches",
            "1",
            *self.TABLE_FLAGS,
            "SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date "
            "AS (X, Y) WHERE Y.price > X.price",
        )
        assert code == 3
        assert "(1 rows)" in output
        assert "limit exceeded: max_matches" in capsys.readouterr().err

    def test_timeout_flag_accepted(self, quotes_csv):
        # A generous deadline on a tiny input must not perturb the result.
        code, output = run_cli(
            "query",
            "--table",
            self.table_arg(quotes_csv),
            "--timeout",
            "60",
            *self.TABLE_FLAGS,
            QUERY,
        )
        assert code == 0
        assert "(1 rows)" in output

    def test_tiny_timeout_exits_3_with_a_partial_result(self, capsys):
        # Grouping and sorting the cold demo table outlasts the deadline,
        # so the scan stops before its first cluster.
        code, output = run_cli(
            "query", "--demo-data", *self.TABLE_FLAGS, "--timeout", "0.00001",
            RISING,
        )
        assert code == 3
        assert "(0 rows)" in output
        assert "wall_clock_deadline" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["query", "stream"])
    def test_nan_timeout_is_rejected(self, command, capsys):
        # A NaN deadline never expires; it must be refused like -1.
        code, output = run_cli(
            command, "--demo-data", *self.TABLE_FLAGS, "--timeout", "nan",
            RISING,
        )
        assert code == 1
        assert output == ""
        err = capsys.readouterr().err
        assert "wall_clock_deadline must be non-negative, got nan" in err

    def test_bad_on_error_value_rejected(self, quotes_csv):
        with pytest.raises(SystemExit):
            main(
                [
                    "query",
                    "--table",
                    self.table_arg(quotes_csv),
                    "--on-error",
                    "explode",
                    QUERY,
                ]
            )

    def test_script_collect_continues(self, tmp_path, capsys):
        script = tmp_path / "broken.sql"
        script.write_text(
            "CREATE TABLE t ( name Varchar(8), day Int, price Real );\n"
            "INSERT INTO t VALUES ('A', 1, 10.0), ('A', 2, 9.0);\n"
            "SELECT nonsense;\n"
            "SELECT X.day FROM t CLUSTER BY name SEQUENCE BY day "
            "AS (X, Y) WHERE Y.price < X.price\n"
        )
        code, output = run_cli(
            "script", str(script), "--on-error", "collect"
        )
        assert code == 0
        assert "(1 rows)" in output  # the final SELECT still ran
        err = capsys.readouterr().err
        assert "statement #3" in err

    def test_script_raise_stops_with_statement_context(self, tmp_path, capsys):
        script = tmp_path / "broken.sql"
        script.write_text(
            "CREATE TABLE t ( name Varchar(8), day Int, price Real );\n"
            "SELECT nonsense;\n"
        )
        code, _ = run_cli("script", str(script))
        assert code == 1
        assert "statement #2" in capsys.readouterr().err


class TestExplain:
    def test_plan_output(self):
        code, output = run_cli(
            "explain",
            "--positive",
            "price",
            "SELECT X.date FROM djia SEQUENCE BY date AS (X, *Y, Z) "
            "WHERE Y.price < Y.previous.price AND Z.price > Z.previous.price",
        )
        assert code == 0
        assert "shift:" in output and "next:" in output
        assert "implication graph" in output

    def test_cluster_filter_shown(self, quotes_csv):
        code, output = run_cli(
            "explain",
            "--table",
            f"quote={quotes_csv}:name:str,date:date,price:float",
            "SELECT X.date FROM quote CLUSTER BY name SEQUENCE BY date "
            "AS (X, Y) WHERE X.name = 'IBM' AND Y.price > X.price",
        )
        assert code == 0
        assert "cluster filter" in output and "IBM" in output


class TestProfile:
    def test_profile_flag_appends_profile_same_rows(self, quotes_csv):
        table = f"quote={quotes_csv}:name:str,date:date,price:float"
        code, plain = run_cli(
            "query", "--table", table, "--positive", "price", QUERY
        )
        assert code == 0
        code, profiled = run_cli(
            "query", "--table", table, "--positive", "price",
            "--profile", QUERY,
        )
        assert code == 0
        assert "Query Profile" in profiled
        assert "execute" in profiled and "scan" in profiled
        # The profile is appended; the result rows are untouched.
        assert profiled.startswith(plain)
        assert "Query Profile" not in plain

    def test_explain_analyze_renders_span_tree(self, quotes_csv):
        code, output = run_cli(
            "explain",
            "--table",
            f"quote={quotes_csv}:name:str,date:date,price:float",
            "--positive",
            "price",
            "--analyze",
            QUERY,
        )
        assert code == 0
        assert "Query Profile" in output
        # The explain itself compiled the plan, so the traced run hits.
        assert "cache=hit" in output
        assert "partition=IBM" in output


class TestArgumentParsing:
    def test_bad_table_spec(self):
        with pytest.raises(SystemExit):
            main(["query", "--table", "nonsense", "SELECT X.a FROM t AS (X) WHERE X.a>1"])

    def test_bad_column_type(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "query",
                    "--table",
                    "t=f.csv:a:varchar",
                    "SELECT X.a FROM t AS (X) WHERE X.a>1",
                ]
            )

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            main([])


class TestScript:
    def test_script_subcommand(self, tmp_path):
        script = tmp_path / "session.sql"
        script.write_text(
            "CREATE TABLE quote ( name Varchar(8), date Date, price Real );\n"
            "INSERT INTO quote VALUES ('IBM', '1999-01-25', 100.0);\n"
            "INSERT INTO quote VALUES ('IBM', '1999-01-26', 120.0);\n"
            "INSERT INTO quote VALUES ('IBM', '1999-01-27', 90.0);\n"
            "SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date "
            "AS (X, Y, Z) "
            "WHERE Y.price > 1.15 * X.price AND Z.price < 0.80 * Y.price\n"
        )
        code, output = run_cli("script", str(script), "--positive", "price")
        assert code == 0
        assert "IBM" in output and "(1 rows)" in output

    def test_script_error_is_clean(self, tmp_path, capsys):
        script = tmp_path / "bad.sql"
        script.write_text("INSERT INTO nosuch VALUES (1)")
        code, _ = run_cli("script", str(script))
        assert code == 1
        assert "error:" in capsys.readouterr().err


STREAM_QUERY = (
    "SELECT FIRST(Y).price FROM walk SEQUENCE BY t AS (X, *Y, Z) "
    "WHERE Y.price > Y.previous.price AND Z.price < Z.previous.price"
)


@pytest.fixture
def walk_csv(tmp_path):
    path = tmp_path / "walk.csv"
    lines = ["t,price"]
    prices = [10, 11, 12, 9, 10, 13, 8, 9, 14, 7]
    lines.extend(f"{t},{p}.0" for t, p in enumerate(prices))
    path.write_text("\n".join(lines) + "\n")
    return path


class TestStream:
    def _args(self, walk_csv, *extra):
        return (
            "stream",
            "--table",
            f"walk={walk_csv}:t:int,price:float",
            "--positive",
            "price",
            *extra,
            STREAM_QUERY,
        )

    def test_stream_over_csv(self, walk_csv):
        code, output = run_cli(*self._args(walk_csv))
        assert code == 0
        assert output.splitlines()[0] == "FIRST(Y).price"
        assert "(3 rows)" in output

    def test_stream_matches_query_subcommand(self, walk_csv):
        stream_code, stream_out = run_cli(*self._args(walk_csv))
        query_code, query_out = run_cli(
            "query",
            "--table",
            f"walk={walk_csv}:t:int,price:float",
            "--positive",
            "price",
            STREAM_QUERY,
        )
        assert stream_code == query_code == 0
        assert stream_out.count("\n") >= 2  # header + rows + count

    def test_checkpoint_then_resume_emits_nothing(self, walk_csv, tmp_path):
        checkpoint = tmp_path / "walk.ckpt"
        code, output = run_cli(
            *self._args(walk_csv, "--checkpoint", str(checkpoint))
        )
        assert code == 0
        assert "(3 rows)" in output
        assert checkpoint.exists()
        code, output = run_cli(
            *self._args(walk_csv, "--checkpoint", str(checkpoint), "--resume")
        )
        assert code == 0
        assert "(0 rows)" in output

    def test_resume_requires_checkpoint(self, walk_csv, capsys):
        code, _ = run_cli(*self._args(walk_csv, "--resume"))
        assert code == 1
        assert "--resume requires --checkpoint" in capsys.readouterr().err

    def test_interpreted_evaluator_agrees(self, walk_csv):
        compiled_code, compiled_out = run_cli(*self._args(walk_csv))
        interp_code, interp_out = run_cli(
            *self._args(walk_csv, "--evaluator", "interpreted")
        )
        assert compiled_code == interp_code == 0
        assert compiled_out == interp_out

    def test_diagnostics_json_written(self, walk_csv, tmp_path):
        report = tmp_path / "diag.json"
        checkpoint = tmp_path / "walk.ckpt"
        code, _ = run_cli(
            *self._args(
                walk_csv,
                "--checkpoint",
                str(checkpoint),
                "--diagnostics-json",
                str(report),
            )
        )
        assert code == 0
        import json

        payload = json.loads(report.read_text())
        assert payload["counters"]["checkpoints_written"] >= 1
        assert payload["counters"]["retries"] == 0

    def test_diagnostics_json_on_limit_exit(self, walk_csv, tmp_path, capsys):
        report = tmp_path / "diag.json"
        code, _ = run_cli(
            *self._args(
                walk_csv,
                "--max-matches",
                "1",
                "--diagnostics-json",
                str(report),
            )
        )
        assert code == 3
        import json

        payload = json.loads(report.read_text())
        assert payload["counters"]["limits_hit"] == 1
        assert not payload["ok"]

    def test_unknown_table_is_clean_error(self, capsys):
        code, _ = run_cli("stream", "--positive", "price", STREAM_QUERY)
        assert code == 1
        assert "no stream source" in capsys.readouterr().err


class TestDiagnosticsJson:
    def test_query_writes_diagnostics_on_limit(self, quotes_csv, tmp_path):
        report = tmp_path / "diag.json"
        code, _ = run_cli(
            "query",
            "--table",
            f"quote={quotes_csv}:name:str,date:date,price:float",
            "--positive",
            "price",
            "--max-matches",
            "1",
            "--diagnostics-json",
            str(report),
            QUERY,
        )
        assert code == 3
        import json

        payload = json.loads(report.read_text())
        assert payload["counters"]["limits_hit"] == 1

    def test_script_writes_diagnostics(self, tmp_path):
        report = tmp_path / "diag.json"
        script = tmp_path / "session.sql"
        script.write_text(
            "CREATE TABLE q ( name Varchar(8), price Real );\n"
            "INSERT INTO q VALUES ('IBM', 'oops');"
        )
        code, _ = run_cli(
            "script",
            str(script),
            "--on-error",
            "skip",
            "--diagnostics-json",
            str(report),
        )
        assert code == 0
        import json

        payload = json.loads(report.read_text())
        assert payload["counters"]["quarantined_rows"] == 1
