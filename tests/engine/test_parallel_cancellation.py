"""A global deadline expiring mid-pool must stop workers cleanly.

The contract (ISSUE 5 satellite): a ``wall_clock_deadline`` that fires
while work units are still in flight stops outstanding workers, the
call still returns a well-formed partial :class:`Result` and
:class:`ExecutionReport` with the limit recorded, and the CLI surfaces
it as exit code 3 — never a hang, never a traceback.
"""

from __future__ import annotations

import io
import random
import time

from repro.cli import EXIT_LIMIT_HIT, main
from repro.engine.catalog import Catalog
from repro.engine.executor import Executor
from repro.engine.table import Schema, Table
from repro.pattern.predicates import AttributeDomains
from repro.resilience import ResourceLimits
from tests.conftest import parallel_path

QUERY = (
    "SELECT X.name, X.date, Z.date FROM quote CLUSTER BY name "
    "SEQUENCE BY date AS (X, *Y, Z) "
    "WHERE Y.price < Y.previous.price AND Z.price > 1.01 * X.price"
)


def heavy_catalog(partitions=8, rows=4000, seed=21):
    rng = random.Random(seed)
    table = Table(
        "quote", Schema([("name", "str"), ("date", "int"), ("price", "float")])
    )
    for p in range(partitions):
        price = 100.0
        for day in range(rows):
            price = max(1.0, price + rng.uniform(-2.0, 2.0))
            table.insert(
                {"name": f"S{p:02d}", "date": day, "price": round(price, 2)}
            )
    return Catalog([table])


class TestDeadlineMidPool:
    def test_partial_result_and_wellformed_report(self):
        catalog = heavy_catalog()
        executor = Executor(
            catalog,
            domains=AttributeDomains.prices(),
            matcher="naive",
            workers=2,
            # An order of magnitude below the workload's full runtime,
            # so the deadline reliably fires while units are in flight.
            limits=ResourceLimits(wall_clock_deadline=0.01),
        )
        started = time.monotonic()
        with parallel_path("inline"):
            result, report = executor.execute_with_report(QUERY)
        elapsed = time.monotonic() - started
        # Workers hold the same deadline allowance, so expiry stops the
        # pool promptly instead of letting stragglers run to completion.
        assert elapsed < 10.0
        assert result.diagnostics.limit_hit
        assert any(
            "wall_clock_deadline" in reason
            for reason in result.diagnostics.limits_hit
        )
        # The partial report stays internally consistent.
        assert report.matches == len(result.rows)
        assert report.clusters_searched <= report.clusters
        assert report.diagnostics is result.diagnostics
        assert len(result.columns) == 3

    def test_generous_deadline_changes_nothing(self):
        catalog = heavy_catalog(partitions=4, rows=200)
        serial = Executor(
            catalog, domains=AttributeDomains.prices(), matcher="naive"
        ).execute(QUERY)
        bounded = Executor(
            catalog,
            domains=AttributeDomains.prices(),
            matcher="naive",
            workers=2,
            limits=ResourceLimits(wall_clock_deadline=300.0),
        ).execute(QUERY)
        assert bounded.rows == serial.rows
        assert not bounded.diagnostics.limit_hit

    def test_already_expired_deadline_is_clean(self):
        catalog = heavy_catalog(partitions=3, rows=50)
        executor = Executor(
            catalog,
            domains=AttributeDomains.prices(),
            workers=4,
            limits=ResourceLimits(wall_clock_deadline=0.0),
        )
        with parallel_path("inline"):
            result, report = executor.execute_with_report(QUERY)
        assert result.rows == ()
        assert result.diagnostics.limit_hit
        assert report.matches == 0


class TestDeadlineNaming:
    """Every parallel run names the configured deadline, as serial does,
    not the allowance left over for a unit when it was dispatched."""

    LIMITS = ResourceLimits(wall_clock_deadline=0.01)
    MESSAGE = "wall_clock_deadline (0.01s) exceeded"

    def run(self, catalog, workers):
        return Executor(
            catalog,
            domains=AttributeDomains.prices(),
            matcher="naive",
            workers=workers,
            limits=self.LIMITS,
        ).execute_with_report(QUERY)

    def test_inline_run_names_the_configured_deadline(self):
        # One partition is one work unit, which always runs in-line.
        catalog = heavy_catalog(partitions=1, rows=40_000)
        serial, _ = self.run(catalog, 1)
        parallel, _ = self.run(catalog, 2)
        assert serial.diagnostics.limits_hit == [self.MESSAGE]
        assert parallel.diagnostics.limits_hit == [self.MESSAGE]

    def test_pooled_run_names_it_once(self):
        with parallel_path("process"):
            result, report = self.run(heavy_catalog(), 2)
        assert result.diagnostics.limits_hit == [self.MESSAGE]
        assert report.matches == len(result.rows)


class TestCliExitCode:
    def test_workers_with_tiny_timeout_exits_3(self, tmp_path):
        rng = random.Random(5)
        path = tmp_path / "quotes.csv"
        lines = ["name,date,price"]
        for p in range(6):
            price = 100.0
            for day in range(400):
                price = max(1.0, price + rng.uniform(-2.0, 2.0))
                lines.append(f"S{p:02d},{day},{price:.2f}")
        path.write_text("\n".join(lines) + "\n")
        out = io.StringIO()
        code = main(
            [
                "query",
                "--table",
                f"quote={path}:name:str,date:int,price:float",
                "--positive",
                "price",
                "--matcher",
                "naive",
                "--workers",
                "2",
                "--timeout",
                "0.00001",
                QUERY,
            ],
            out=out,
        )
        assert code == EXIT_LIMIT_HIT
        assert "rows)" in out.getvalue()  # partial result still printed
