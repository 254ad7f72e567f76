"""Command-line interface: run SQL-TS queries over CSV files.

Usage examples::

    # Run a query over a CSV-backed table.
    python -m repro query \
        --table "quote=quotes.csv:name:str,date:date,price:float" \
        --positive price \
        "SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date \
         AS (X, Y, Z) WHERE Y.price > 1.15*X.price AND Z.price < 0.8*Y.price"

    # Show the compiled OPS plan without touching data.
    python -m repro explain --positive price \
        "SELECT X.date FROM djia SEQUENCE BY date AS (X, *Y, Z) \
         WHERE Y.price < Y.previous.price AND Z.price > Z.previous.price"

    # The built-in synthetic datasets are available without --table:
    python -m repro query --demo-data --stats \
        "SELECT X.NEXT.date FROM djia SEQUENCE BY date AS (X, *Y, S) \
         WHERE Y.price < 0.98*Y.previous.price AND S.price > S.previous.price"

The ``query`` subcommand prints the result relation; ``--stats`` adds the
paper's predicate-test counts per matcher; ``--matcher`` selects the
evaluator (default ``ops``).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
import time
from typing import Optional, Sequence

from repro.engine.catalog import Catalog
from repro.engine.cluster import sequenced_source
from repro.engine.columnar import load_table
from repro.engine.csv_io import _render, iter_csv
from repro.engine.executor import MATCHERS, Executor
from repro.engine.table import Schema
from repro.errors import ExecutionError, ReproError
from repro.match.base import Instrumentation
from repro.obs import Trace
from repro.pattern.predicates import AttributeDomains
from repro.resilience import CancelToken, Diagnostics, ErrorPolicy, ResourceLimits

#: Exit code when a resource limit cut the query short (results partial).
EXIT_LIMIT_HIT = 3


def _activate_failpoints(args: argparse.Namespace) -> None:
    """Arm ``--failpoints SPEC`` before the command touches any data."""
    spec = getattr(args, "failpoints", None)
    if not spec:
        return
    from repro import failpoints
    from repro.failpoints import KNOWN_SITES, FailpointSpecError

    if spec.strip() == "help":
        for site in KNOWN_SITES:
            print(site)
        raise SystemExit(0)
    try:
        failpoints.activate_spec(spec)
    except FailpointSpecError as error:
        raise ExecutionError(f"bad --failpoints spec: {error}") from None


def _add_failpoints_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--failpoints",
        metavar="SPEC",
        default=None,
        help="arm deterministic fault injection, e.g. "
        "'checkpoint.fsync=skip;checkpoint.write=torn@2*1' "
        "(testing only; see docs/observability.md)",
    )


def _cancel_on_signals(token: CancelToken) -> dict:
    """Route SIGINT/SIGTERM into cooperative cancellation.

    Instead of dying mid-query, a signalled ``query`` returns its
    partial results (exit code {EXIT_LIMIT_HIT}) and a signalled
    ``stream`` writes a final checkpoint before exiting — the run is
    resumable with ``--resume``.  Returns the previous handlers for
    :func:`_restore_signals`; outside the main thread (embedded use)
    handlers cannot be installed and the dict is empty.
    """
    def handler(signum, frame):
        token.cancel(f"received {signal.Signals(signum).name}")

    previous = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[sig] = signal.signal(sig, handler)
        except ValueError:
            break
    return previous


def _restore_signals(previous: dict) -> None:
    for sig, old in previous.items():
        signal.signal(sig, old)


def _parse_table_spec(spec: str) -> tuple[str, str, Schema]:
    """Parse ``name=path.csv:col:type,col:type,...`` into its parts."""
    try:
        name, rest = spec.split("=", 1)
        path, schema_text = rest.split(":", 1)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad --table spec {spec!r}; expected name=path.csv:col:type,..."
        ) from None
    columns = []
    for chunk in schema_text.split(","):
        try:
            column, type_name = chunk.split(":")
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad column spec {chunk!r}; expected col:type"
            ) from None
        columns.append((column.strip(), type_name.strip()))
    try:
        return name, path, Schema(columns)
    except ReproError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _number(kind: type, *, minimum=None, above=None, maximum=None):
    """An argparse ``type=`` for a number within bounds.

    An out-of-range value exits 2 with a usage line at parse time,
    instead of a traceback from the policy object or ``time.sleep`` that
    would receive it.  NaN fails every bound.
    """

    def parse(text: str):
        value = kind(text)
        if minimum is not None and not value >= minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {text}")
        if above is not None and not value > above:
            raise argparse.ArgumentTypeError(f"must be > {above}, got {text}")
        if maximum is not None and not value <= maximum:
            raise argparse.ArgumentTypeError(f"must be <= {maximum}, got {text}")
        return value

    # argparse names the type in its "invalid int value" message.
    parse.__name__ = kind.__name__
    return parse


def _build_catalog(
    args: argparse.Namespace, diagnostics: Optional[Diagnostics] = None
) -> Catalog:
    catalog = Catalog()
    if args.demo_data:
        from repro.data.djia import djia_table
        from repro.data.quotes import quote_table

        catalog.register(djia_table())
        catalog.register(quote_table())
    policy = getattr(args, "on_error", "raise")
    for name, path, schema in args.table:
        # load_table reads .rcol columnar files (and CSV sidecars); a
        # rejected sidecar falls back to plain CSV ingest with a
        # diagnostic, never an error.
        catalog.register(
            load_table(path, name, schema, policy=policy, diagnostics=diagnostics)
        )
    return catalog


def _limits_from_args(args: argparse.Namespace) -> ResourceLimits:
    try:
        return ResourceLimits(
            max_matches=args.max_matches,
            wall_clock_deadline=args.timeout,
            max_stream_buffer=getattr(args, "max_stream_buffer", None),
        )
    except ValueError as error:
        raise ExecutionError(str(error)) from None


def _write_diagnostics_json(args: argparse.Namespace, diagnostics: Diagnostics) -> None:
    """Serialize diagnostics to ``--diagnostics-json PATH`` when given.

    Called on every exit path of a command — including exit code
    {EXIT_LIMIT_HIT} (partial results) — so machine consumers always see
    the counters.
    """
    path = getattr(args, "diagnostics_json", None)
    if not path:
        return
    with open(path, "w") as handle:
        json.dump(diagnostics.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("sql", help="the SQL-TS query text")
    parser.add_argument(
        "--table",
        action="append",
        default=[],
        type=_parse_table_spec,
        metavar="NAME=PATH:COL:TYPE,...",
        help="register a CSV file as a table (repeatable)",
    )
    parser.add_argument(
        "--demo-data",
        action="store_true",
        help="register the built-in synthetic djia and quote tables",
    )
    parser.add_argument(
        "--positive",
        action="append",
        default=[],
        metavar="ATTR",
        help="declare an attribute positive (enables the ratio rewrite; "
        "repeatable; 'price' is what the paper's queries need)",
    )


def _command_query(args: argparse.Namespace, out) -> int:
    _activate_failpoints(args)
    diagnostics = Diagnostics()
    catalog = _build_catalog(args, diagnostics)
    domains = AttributeDomains(args.positive)
    executor = Executor(
        catalog,
        domains=domains,
        matcher=args.matcher,
        policy=args.on_error,
        limits=_limits_from_args(args),
        evaluator=args.evaluator,
    )
    instrumentation = Instrumentation()
    trace = Trace() if args.profile else None
    token = CancelToken()
    previous = _cancel_on_signals(token)
    try:
        result, report = executor.execute_with_report(
            args.sql, instrumentation, cancel=token, trace=trace
        )
    except ReproError:
        _write_diagnostics_json(args, diagnostics)
        raise
    finally:
        _restore_signals(previous)
    diagnostics.merge(report.diagnostics)
    _write_diagnostics_json(args, diagnostics)
    print(result.pretty(max_rows=args.max_rows), file=out)
    print(f"({len(result)} rows)", file=out)
    if args.profile and result.profile is not None:
        print(file=out)
        print(result.profile.render(), file=out)
    if not diagnostics.ok:
        print(diagnostics.summary(), file=sys.stderr)
    if args.stats:
        print(file=out)
        print(
            f"matcher={report.matcher} clusters={report.clusters} "
            f"rows_scanned={report.rows_scanned} "
            f"predicate_tests={report.predicate_tests} "
            f"matches={report.matches}",
            file=out,
        )
        if args.matcher != "naive":
            naive_inst = Instrumentation()
            Executor(catalog, domains=domains, matcher="naive").execute(
                args.sql, naive_inst
            )
            if instrumentation.tests:
                speedup = naive_inst.tests / instrumentation.tests
                print(
                    f"naive_tests={naive_inst.tests} speedup={speedup:.2f}x",
                    file=out,
                )
    return EXIT_LIMIT_HIT if diagnostics.limit_hit else 0


def _stream_source(args: argparse.Namespace, diagnostics: Diagnostics):
    """Build the offset-addressable row source for the query's table.

    A ``--table`` spec whose name matches the query's FROM clause streams
    straight from its CSV file (resumable by offset, never fully
    loaded); a ``--demo-data`` table streams its rows in SEQUENCE BY
    order (:func:`~repro.engine.cluster.sequenced_source`).
    """
    from repro.sqlts.parser import parse_query

    parsed = parse_query(args.sql)
    table_name = parsed.table
    for name, path, schema in args.table:
        if name == table_name:
            policy = args.on_error
            return lambda start: iter_csv(
                path,
                schema,
                start_offset=start,
                policy=policy,
                diagnostics=diagnostics,
            )
    if args.demo_data:
        from repro.data.djia import djia_table
        from repro.data.quotes import quote_table

        for table in (djia_table(), quote_table()):
            if table.name == table_name:
                return sequenced_source(table, parsed.sequence_by)
    raise ExecutionError(
        f"no stream source for table {table_name!r}: pass a matching "
        f"--table spec or --demo-data"
    )


def _stream_store(args: argparse.Namespace):
    """Build the stream's checkpoint store from ``--checkpoint`` flags.

    ``--checkpoint-replicas N`` (default 1) writes ``PATH``, ``PATH.r1``
    … ``PATH.r{N-1}`` with quorum writes and repair-on-load.
    """
    from repro.recovery import CheckpointStore

    if not args.checkpoint:
        return None
    replicas = getattr(args, "checkpoint_replicas", 1)
    if replicas < 1:
        raise ExecutionError("--checkpoint-replicas must be >= 1")
    return CheckpointStore(
        args.checkpoint,
        *(f"{args.checkpoint}.r{index}" for index in range(1, replicas)),
    )


def _command_stream(args: argparse.Namespace, out) -> int:
    from repro.recovery import CheckpointPolicy, RetryPolicy

    _activate_failpoints(args)
    diagnostics = Diagnostics()
    source_factory = _stream_source(args, diagnostics)
    executor = Executor(
        Catalog(),
        domains=AttributeDomains(args.positive),
        limits=_limits_from_args(args),
        codegen=args.evaluator == "compiled",
    )
    store = _stream_store(args)
    if args.resume and store is None:
        raise ExecutionError("--resume requires --checkpoint PATH")
    checkpoints = CheckpointPolicy(
        every_rows=args.checkpoint_every,
        every_seconds=args.checkpoint_interval,
    )
    retry = RetryPolicy(
        max_retries=args.retry, backoff=args.backoff, jitter=args.retry_jitter
    )
    count = 0
    token = CancelToken()
    previous = _cancel_on_signals(token)
    try:
        streaming = executor.stream(
            args.sql,
            source_factory,
            store=store,
            checkpoints=checkpoints,
            retry=retry,
            resume=args.resume,
            overflow=args.overflow,
            diagnostics=diagnostics,
            stop=token,
        )
        print(",".join(streaming.columns), file=out)
        for row in streaming.rows:
            print(",".join(_render(value) for value in row), file=out, flush=True)
            count += 1
            if args.throttle:
                time.sleep(args.throttle)
    finally:
        _restore_signals(previous)
        _write_diagnostics_json(args, diagnostics)
    print(f"({count} rows)", file=out)
    if not diagnostics.ok:
        print(diagnostics.summary(), file=sys.stderr)
    return EXIT_LIMIT_HIT if diagnostics.limit_hit else 0


def _command_explain(args: argparse.Namespace, out) -> int:
    catalog = _build_catalog(args)
    domains = AttributeDomains(args.positive)
    executor = Executor(catalog, domains=domains, matcher=args.matcher)
    analyzed, compiled = executor.prepare(args.sql)
    print(f"table: {analyzed.table}", file=out)
    if analyzed.cluster_by:
        print(f"cluster by: {', '.join(analyzed.cluster_by)}", file=out)
    if analyzed.sequence_by:
        print(f"sequence by: {', '.join(analyzed.sequence_by)}", file=out)
    if analyzed.cluster_filter:
        rendered = " AND ".join(str(c) for c in analyzed.cluster_filter)
        print(f"cluster filter: {rendered}", file=out)
    print(file=out)
    for element in analyzed.spec:
        print(f"  {element}: {element.predicate!r}", file=out)
    print(file=out)
    print(compiled.describe(), file=out)
    if compiled.graph is not None:
        print(file=out)
        print("implication graph G_P:", file=out)
        print(compiled.graph.render(), file=out)
    if args.analyze:
        trace = Trace()
        result = executor.execute(args.sql, trace=trace)
        print(file=out)
        print(result.profile.render(), file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SQL-TS sequence queries with the OPS optimizer (PODS 2001)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    query = subparsers.add_parser("query", help="execute a query")
    _add_common_arguments(query)
    query.add_argument(
        "--matcher",
        choices=sorted(MATCHERS),
        default="ops",
        help="evaluation strategy (default: ops)",
    )
    query.add_argument(
        "--stats", action="store_true", help="print execution statistics"
    )
    query.add_argument(
        "--profile",
        action="store_true",
        help="trace the execution and print the EXPLAIN ANALYZE-style "
        "operator tree (wall time, rows, predicate tests per cluster)",
    )
    query.add_argument(
        "--max-rows",
        type=_number(int, minimum=0),
        default=20,
        help="rows to display (default 20)",
    )
    query.add_argument(
        "--on-error",
        choices=[policy.value for policy in ErrorPolicy],
        default="raise",
        help="how to treat malformed rows and unplannable patterns: "
        "raise aborts (default), skip quarantines and continues, "
        "collect additionally retains the error objects",
    )
    query.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock deadline; on expiry the query returns partial "
        f"results and exits with code {EXIT_LIMIT_HIT}",
    )
    query.add_argument(
        "--max-matches",
        type=int,
        default=None,
        metavar="N",
        help="stop after N matches (kept); exits with code "
        f"{EXIT_LIMIT_HIT} when the cap is hit",
    )
    query.add_argument(
        "--evaluator",
        choices=["columnar", "row"],
        default="columnar",
        help="predicate path: columnar (default) materializes vectorized "
        "truth arrays per cluster, row keeps the per-row evaluators; "
        "matches are byte-identical in both modes (see "
        "docs/performance.md)",
    )
    query.add_argument(
        "--diagnostics-json",
        metavar="PATH",
        default=None,
        help="write Diagnostics counters as JSON to PATH (written on "
        "every exit path, including partial results)",
    )
    _add_failpoints_argument(query)
    query.set_defaults(func=_command_query)

    stream = subparsers.add_parser(
        "stream",
        help="execute a query as a crash-recoverable stream "
        "(checkpoint/resume, retry/backoff, exactly-once emission)",
    )
    _add_common_arguments(stream)
    stream.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="durable checkpoint file (written atomically; "
        "PATH.prev keeps the previous good checkpoint)",
    )
    stream.add_argument(
        "--checkpoint-replicas",
        type=int,
        default=1,
        metavar="N",
        help="replicate the checkpoint across N files (PATH, PATH.r1, "
        "...) with majority-quorum writes and repair-on-load "
        "(default 1: PATH only)",
    )
    stream.add_argument(
        "--resume",
        action="store_true",
        help="restore matcher state and source position from --checkpoint "
        "instead of starting over; already-emitted matches are suppressed",
    )
    stream.add_argument(
        "--checkpoint-every",
        type=_number(int, minimum=1),
        default=500,
        metavar="N",
        help="checkpoint every N source rows (default 500)",
    )
    stream.add_argument(
        "--checkpoint-interval",
        type=_number(float, above=0),
        default=None,
        metavar="SECONDS",
        help="additionally checkpoint every SECONDS of wall-clock time",
    )
    stream.add_argument(
        "--retry",
        type=_number(int, minimum=0),
        default=0,
        metavar="N",
        help="retry a failing source up to N consecutive times "
        "(default 0: fail fast)",
    )
    stream.add_argument(
        "--backoff",
        type=_number(float, minimum=0),
        default=0.1,
        metavar="SECONDS",
        help="initial retry backoff, doubled per consecutive failure "
        "(default 0.1)",
    )
    stream.add_argument(
        "--retry-jitter",
        type=_number(float, minimum=0, maximum=1),
        default=0.0,
        metavar="FRACTION",
        help="randomize each retry delay: 0 keeps the exact geometric "
        "schedule (default), 1 is full jitter in [0, delay)",
    )
    stream.add_argument(
        "--overflow",
        choices=["raise", "restart"],
        default="raise",
        help="stream-buffer overflow behavior (restart drops the oldest "
        "rows and keeps matching; spanning matches are lost)",
    )
    stream.add_argument(
        "--max-stream-buffer",
        type=int,
        default=None,
        metavar="N",
        help="hard cap on the look-back window (rows)",
    )
    stream.add_argument(
        "--evaluator",
        choices=["compiled", "interpreted"],
        default="compiled",
        help="predicate evaluator (default: compiled); checkpoints are "
        "interchangeable between the two",
    )
    stream.add_argument(
        "--on-error",
        choices=[policy.value for policy in ErrorPolicy],
        default="raise",
        help="how to treat malformed source rows: raise aborts (default), "
        "skip/collect quarantine and continue",
    )
    stream.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock deadline; on expiry the stream stops with "
        f"partial results and exit code {EXIT_LIMIT_HIT}",
    )
    stream.add_argument(
        "--max-matches",
        type=int,
        default=None,
        metavar="N",
        help="stop after N matches (kept); exits with code "
        f"{EXIT_LIMIT_HIT} when the cap is hit",
    )
    stream.add_argument(
        "--diagnostics-json",
        metavar="PATH",
        default=None,
        help="write Diagnostics counters (retries, checkpoints "
        "written/restored, suppressed duplicates) as JSON to PATH",
    )
    stream.add_argument(
        "--throttle",
        type=_number(float, minimum=0),
        default=None,
        metavar="SECONDS",
        help="sleep SECONDS after each emitted row (pacing for demos "
        "and interruption tests)",
    )
    _add_failpoints_argument(stream)
    stream.set_defaults(func=_command_stream)

    explain = subparsers.add_parser(
        "explain", help="show the compiled OPS plan for a query"
    )
    _add_common_arguments(explain)
    explain.add_argument(
        "--analyze",
        action="store_true",
        help="additionally execute the query under tracing and print the "
        "per-operator profile (like EXPLAIN ANALYZE)",
    )
    explain.add_argument(
        "--matcher",
        choices=sorted(MATCHERS),
        default="ops",
        help="evaluation strategy for --analyze (default: ops)",
    )
    explain.set_defaults(func=_command_explain)

    serve = subparsers.add_parser(
        "serve",
        help="run the always-on query service over the registered tables "
        "(per-tenant admission control, backpressure, graceful drain)",
    )
    serve.add_argument(
        "--table",
        action="append",
        default=[],
        type=_parse_table_spec,
        metavar="NAME=PATH:COL:TYPE,...",
        help="register a CSV file as a served table (repeatable)",
    )
    serve.add_argument(
        "--demo-data",
        action="store_true",
        help="serve the built-in synthetic djia and quote tables",
    )
    serve.add_argument(
        "--positive",
        action="append",
        default=[],
        metavar="ATTR",
        help="declare an attribute positive (enables the ratio rewrite)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (default 0: pick an ephemeral port, printed on start)",
    )
    serve.add_argument(
        "--pool-workers",
        type=int,
        default=4,
        metavar="N",
        help="query worker threads (default 4)",
    )
    serve.add_argument(
        "--max-concurrent",
        type=_number(int, minimum=1),
        default=4,
        metavar="N",
        help="default per-tenant concurrent-query cap (default 4)",
    )
    serve.add_argument(
        "--max-queued",
        type=_number(int, minimum=0),
        default=16,
        metavar="N",
        help="default per-tenant queued-request cap beyond the "
        "concurrency cap (default 16)",
    )
    serve.add_argument(
        "--rows-per-second",
        type=_number(float, above=0),
        default=None,
        metavar="RATE",
        help="default per-tenant scanned-row budget (token bucket); "
        "exhausted tenants are rejected with a retry_after hint",
    )
    serve.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default per-query wall-clock deadline applied to every tenant",
    )
    serve.add_argument(
        "--max-matches",
        type=int,
        default=None,
        metavar="N",
        help="default per-query match cap applied to every tenant",
    )
    serve.add_argument(
        "--quota-json",
        metavar="PATH",
        default=None,
        help="JSON file of per-tenant quota overrides: "
        '{"tenant": {"max_concurrent": 2, "rows_per_second": 1000, '
        '"timeout": 5, "max_matches": 100, "max_rows_scanned": 50000, '
        '"max_queued": 8}}',
    )
    serve.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help="directory for per-subscription checkpoints (enables "
        "exactly-once resumable subscriptions)",
    )
    serve.add_argument(
        "--checkpoint-replicas",
        type=int,
        default=1,
        metavar="N",
        help="replicate each subscription checkpoint across N replica "
        "subdirectories of --checkpoint-dir with majority-quorum "
        "writes and repair-on-load (default 1: single file)",
    )
    serve.add_argument(
        "--drain-grace",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="on shutdown, let in-flight queries finish for SECONDS "
        "before cancelling them (default 5)",
    )
    serve.add_argument(
        "--allow-remote-shutdown",
        action="store_true",
        help="let clients trigger a drain via the shutdown op",
    )
    serve.add_argument(
        "--on-error",
        choices=[policy.value for policy in ErrorPolicy],
        default="raise",
        help="error policy for CSV loading and query execution",
    )
    serve.add_argument(
        "--slow-query-log",
        metavar="PATH",
        default=None,
        help="append a JSON line for every query slower than "
        "--slow-query-threshold",
    )
    serve.add_argument(
        "--slow-query-threshold",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="wall-time threshold for the slow-query log (default 1.0)",
    )
    serve.add_argument(
        "--slow-query-log-max-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="rotate the slow-query log to PATH.1 before it would exceed "
        "BYTES (default: grow without bound)",
    )
    _add_failpoints_argument(serve)
    serve.set_defaults(func=_command_serve)

    call = subparsers.add_parser(
        "call", help="send one query to a running repro serve instance"
    )
    call.add_argument("sql", help="the SQL-TS query text")
    call.add_argument("--host", default="127.0.0.1")
    call.add_argument("--port", type=int, required=True)
    call.add_argument("--tenant", default="default")
    call.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request deadline (tightens the tenant quota)",
    )
    call.add_argument(
        "--max-matches",
        type=int,
        default=None,
        metavar="N",
        help="per-request match cap (tightens the tenant quota)",
    )
    call.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="reconnect up to N times on connection loss with full-jitter "
        "backoff (0 disables failover; default: 4)",
    )
    call.set_defaults(func=_command_call)

    subscribe = subparsers.add_parser(
        "subscribe",
        help="stream a query's matches from a running repro serve "
        "instance (exactly-once with --after-seq)",
    )
    subscribe.add_argument("sql", help="the SQL-TS query text")
    subscribe.add_argument("--host", default="127.0.0.1")
    subscribe.add_argument("--port", type=int, required=True)
    subscribe.add_argument("--tenant", default="default")
    subscribe.add_argument(
        "--subscription",
        required=True,
        metavar="ID",
        help="durable subscription id (names the server-side checkpoint)",
    )
    subscribe.add_argument(
        "--after-seq",
        type=int,
        default=-1,
        metavar="SEQ",
        help="exactly-once high-water mark: suppress matches with "
        "seq <= SEQ (pass the last seq you received)",
    )
    subscribe.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="on connection loss, reconnect and resume from the last "
        "received seq up to N times (0 disables failover; default: 4)",
    )
    subscribe.set_defaults(func=_command_subscribe)

    script = subparsers.add_parser(
        "script",
        help="run a ;-separated script of CREATE TABLE / INSERT / SELECT",
    )
    script.add_argument("path", help="path to the .sql script file")
    script.add_argument(
        "--positive",
        action="append",
        default=[],
        metavar="ATTR",
        help="declare an attribute positive (enables the ratio rewrite)",
    )
    script.add_argument(
        "--matcher",
        choices=sorted(MATCHERS),
        default="ops",
        help="evaluation strategy (default: ops)",
    )
    script.add_argument(
        "--on-error",
        choices=[policy.value for policy in ErrorPolicy],
        default="raise",
        help="raise aborts on the first failing statement (default); "
        "skip/collect quarantine bad rows, and collect also continues "
        "past failing statements",
    )
    script.add_argument(
        "--diagnostics-json",
        metavar="PATH",
        default=None,
        help="write Diagnostics counters as JSON to PATH (written even "
        "when a statement fails)",
    )
    script.set_defaults(func=_command_script)
    return parser


def _command_script(args: argparse.Namespace, out) -> int:
    from repro.engine.session import Session

    with open(args.path) as handle:
        text = handle.read()
    session = Session(
        domains=AttributeDomains(args.positive),
        matcher=args.matcher,
        policy=args.on_error,
    )
    try:
        for result in session.run_script(text):
            print(result.pretty(), file=out)
            print(f"({len(result)} rows)", file=out)
            print(file=out)
    finally:
        _write_diagnostics_json(args, session.diagnostics)
    if not session.diagnostics.ok:
        print(session.diagnostics.summary(), file=sys.stderr)
    return EXIT_LIMIT_HIT if session.diagnostics.limit_hit else 0


def _quotas_from_json(path: str, args: argparse.Namespace) -> dict:
    from repro.serve import TenantQuota

    with open(path) as handle:
        specs = json.load(handle)
    if not isinstance(specs, dict):
        raise ExecutionError(
            f"--quota-json must hold an object of tenant -> quota, "
            f"got {type(specs).__name__}"
        )
    quotas = {}
    for tenant, spec in specs.items():
        try:
            limits = ResourceLimits(
                max_matches=spec.get("max_matches", args.max_matches),
                max_rows_scanned=spec.get("max_rows_scanned"),
                wall_clock_deadline=spec.get("timeout", args.timeout),
            )
            quotas[tenant] = TenantQuota(
                limits=limits,
                max_concurrent=spec.get("max_concurrent", args.max_concurrent),
                max_queued=spec.get("max_queued", args.max_queued),
                rows_per_second=spec.get(
                    "rows_per_second", args.rows_per_second
                ),
            )
        except (ValueError, AttributeError, TypeError) as error:
            raise ExecutionError(
                f"bad quota for tenant {tenant!r}: {error}"
            ) from None
    return quotas


def _command_serve(args: argparse.Namespace, out) -> int:
    from repro.serve import QueryServer, ServerThread, TenantQuota

    _activate_failpoints(args)
    diagnostics = Diagnostics()
    catalog = _build_catalog(args, diagnostics)
    if len(catalog) == 0:
        raise ExecutionError(
            "nothing to serve: pass --table specs and/or --demo-data"
        )
    default_quota = TenantQuota(
        limits=ResourceLimits(
            max_matches=args.max_matches, wall_clock_deadline=args.timeout
        ),
        max_concurrent=args.max_concurrent,
        max_queued=args.max_queued,
        rows_per_second=args.rows_per_second,
    )
    quotas = _quotas_from_json(args.quota_json, args) if args.quota_json else {}
    server = QueryServer(
        catalog,
        domains=AttributeDomains(args.positive),
        policy=args.on_error,
        quotas=quotas,
        default_quota=default_quota,
        pool_workers=args.pool_workers,
        checkpoint_dir=args.checkpoint_dir,
        drain_grace=args.drain_grace,
        host=args.host,
        port=args.port,
        allow_remote_shutdown=args.allow_remote_shutdown,
        slow_query_threshold=args.slow_query_threshold,
        slow_query_log=args.slow_query_log,
        slow_query_log_max_bytes=args.slow_query_log_max_bytes,
        checkpoint_replicas=args.checkpoint_replicas,
    )
    stop = threading.Event()
    previous = {}

    def handler(signum, frame):
        stop.set()

    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[sig] = signal.signal(sig, handler)
        except ValueError:
            break
    handle = ServerThread(server).start()
    try:
        host, port = handle.address
        tables = ", ".join(sorted(table.name for table in catalog))
        print(f"serving {tables} on {host}:{port}", file=out, flush=True)
        while not stop.wait(0.2):
            if server.draining:  # remote shutdown request
                break
        print("draining...", file=out, flush=True)
    finally:
        _restore_signals(previous)
        handle.stop(grace=args.drain_grace)
    print("stopped", file=out, flush=True)
    return 0


def _failover_from_args(args: argparse.Namespace):
    """Map ``--retries`` to a client failover policy.

    ``None`` (flag omitted) keeps the client default; ``0`` disables
    reconnection entirely (``failover=None``).
    """
    from repro.serve.client import _DEFAULT_FAILOVER, FailoverPolicy

    retries = getattr(args, "retries", None)
    if retries is None:
        return _DEFAULT_FAILOVER
    if retries < 0:
        raise ExecutionError("--retries must be >= 0")
    if retries == 0:
        return None
    return FailoverPolicy(max_retries=retries)


def _command_call(args: argparse.Namespace, out) -> int:
    from repro.serve import ServeClient
    from repro.serve.client import ServeError

    with ServeClient(
        args.host, args.port, tenant=args.tenant,
        failover=_failover_from_args(args),
    ) as client:
        try:
            reply = client.query(
                args.sql, timeout=args.timeout, max_matches=args.max_matches
            )
        except ServeError as error:
            print(f"error: {error}", file=sys.stderr)
            if error.retry_after is not None:
                print(
                    f"retry after {error.retry_after}s", file=sys.stderr
                )
            return 1
    print(",".join(reply.columns), file=out)
    for row in reply.rows:
        print(",".join(_render(value) for value in row), file=out)
    print(f"({len(reply.rows)} rows)", file=out)
    if reply.limits_hit:
        for reason in reply.limits_hit:
            print(f"limit: {reason}", file=sys.stderr)
    return EXIT_LIMIT_HIT if reply.limit_hit else 0


def _command_subscribe(args: argparse.Namespace, out) -> int:
    from repro.serve import ServeClient
    from repro.serve.client import ServeError

    with ServeClient(
        args.host, args.port, tenant=args.tenant,
        failover=_failover_from_args(args),
    ) as client:
        try:
            rows = client.subscribe(
                args.sql,
                args.subscription,
                after_seq=args.after_seq,
                on_begin=lambda begin: print(
                    "seq," + ",".join(begin["columns"]), file=out, flush=True
                ),
            )
            count = 0
            for row in rows:
                rendered = ",".join(_render(value) for value in row.values)
                print(f"{row.seq},{rendered}", file=out, flush=True)
                count += 1
        except ServeError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
    end = client.last_end or {}
    print(f"({count} rows, last_seq={end.get('last_seq')})", file=out)
    return EXIT_LIMIT_HIT if end.get("limit_hit") else 0


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, out)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
