"""A self-contained in-memory relational engine hosting SQL-TS.

The paper runs SQL-TS inside a conventional DBMS, implemented "via
user-defined aggregates that are capable of applying arbitrary SQL
statements on input streams" [17].  This subpackage is that host,
built from scratch:

- typed tables with schema validation (:mod:`repro.engine.table`);
- a catalog of named tables (:mod:`repro.engine.catalog`);
- CLUSTER BY grouping and SEQUENCE BY sorting (:mod:`repro.engine.cluster`);
- the query executor tying parser, analyzer, OPS compiler, and matcher
  together: it hands each sorted cluster to the matcher
  (:mod:`repro.engine.executor`);
- CSV import/export (:mod:`repro.engine.csv_io`).

The stream deployment of [17], a UDA's iterate/terminate, is
``OpsStreamMatcher.push``/``finish`` (:mod:`repro.match.streaming`).
"""

from repro.engine.table import Column, Schema, Table
from repro.engine.catalog import Catalog
from repro.engine.cluster import clusters_of
from repro.engine.executor import ExecutionReport, Executor, execute
from repro.engine.result import Result

__all__ = [
    "Column",
    "Schema",
    "Table",
    "Catalog",
    "clusters_of",
    "Executor",
    "ExecutionReport",
    "execute",
    "Result",
]
