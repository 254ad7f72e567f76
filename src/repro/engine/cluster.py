"""CLUSTER BY grouping and SEQUENCE BY sorting (paper Figure 1).

"Rows are grouped by their CLUSTER BY attribute(s) (not necessarily
ordered), and data in each group are sorted by their SEQUENCE BY
attribute(s)."  Clusters are yielded in first-appearance order of their
key; with no CLUSTER BY the whole table is a single cluster.  Keys are
C-level ``itemgetter`` lookups, so no Python callable runs per row.

The grouping depends only on the table, so each table keeps it: the
first query that asks for a (CLUSTER BY, SEQUENCE BY, error policy)
triple groups the rows, and the partition stays on the table
(:attr:`~repro.engine.table.Table.partitions`) until a mutation drops
it.  A cluster is sorted only when a scan first reaches it, and a
``keep`` test (the query's hoisted cluster filter) runs before that
sort, so a cluster it rejects is not sorted unless the lenient audit
below sorts it.  The sorted list replaces the grouped one whole, and so
does a cluster's kernel column store (:class:`~repro.engine.columnar.
ColumnStore`), built with it and filled by the first kernels that read
it.  The table's ``partition_lock`` guards the grouping and every sort,
so threads sharing a table build each once and never see a cluster
mid-sort.

The stable re-sort is part of the language semantics.  Under a lenient
:class:`~repro.resilience.ErrorPolicy` the grouping additionally audits
sequence-key integrity per cluster: out-of-order input is re-sorted with
a warning recorded in :class:`~repro.resilience.Diagnostics`, and
duplicate SEQUENCE BY keys — which make the match semantics
order-dependent — are warned about (``COLLECT``) or dropped after the
first occurrence with a quarantine entry (``SKIP``).  The audit runs
once per cluster; it records its diagnostics, and every scan replays
them into its own, in the order and with the text a fresh audit gives.
"""

from __future__ import annotations

from collections import defaultdict
from operator import itemgetter
from typing import Callable, Iterator, Optional, Sequence, Union

from repro.engine.table import Table
from repro.errors import ExecutionError
from repro.resilience import Diagnostics, ErrorPolicy


class ClusterScan:
    """What one :func:`clusters_of` scan paid for, and what it reused.

    ``grouped`` counts the clusters this scan grouped (all of them when
    it built the partition), ``sorted`` those it sorted or audited (with
    no SEQUENCE BY: took as grouped), and ``reused`` those an earlier
    scan had sorted.  ``columns`` is the kernel column store of the
    last cluster the scan yielded rows for.
    """

    __slots__ = ("grouped", "sorted", "reused", "columns")

    def __init__(self) -> None:
        self.grouped = 0
        self.sorted = 0
        self.reused = 0
        self.columns = None


def clusters_of(
    table: Table,
    cluster_by: Sequence[str],
    sequence_by: Sequence[str],
    *,
    policy: Union[ErrorPolicy, str] = ErrorPolicy.RAISE,
    diagnostics: Optional[Diagnostics] = None,
    keep: Optional[Callable[[list[dict[str, object]]], bool]] = None,
    scan: Optional[ClusterScan] = None,
) -> Iterator[tuple[tuple[object, ...], Optional[list[dict[str, object]]]]]:
    """Yield ``(key, sorted_rows)`` per cluster.

    ``key`` is the tuple of CLUSTER BY values (empty tuple when there is
    no CLUSTER BY clause).  A cluster is sorted only when it is reached.
    ``keep`` is tested on each cluster's rows; a cluster it rejects is
    yielded as ``(key, None)`` without being sorted.  Under a lenient
    policy every cluster is still audited first, so the diagnostics do
    not depend on ``keep``.  ``scan``, when given, counts the work.

    The yielded lists belong to the table's partition and are shared by
    later queries: they are read-only, as ``Table.rows`` is.
    """
    policy = ErrorPolicy.coerce(policy)
    _require_columns(table, (*cluster_by, *sequence_by))
    if scan is None:
        scan = ClusterScan()
    partition = _partition(table, tuple(cluster_by), tuple(sequence_by), policy, scan)
    for cluster in partition.clusters:
        if partition.audit:
            rows = partition.settle(cluster, scan)
            if diagnostics is not None:
                for record, args in cluster.audit:
                    record(diagnostics, *args)
            if keep is not None and not keep(rows):
                yield cluster.key, None
                continue
        else:
            if keep is not None and not keep(cluster.rows):
                yield cluster.key, None
                continue
            rows = partition.settle(cluster, scan)
        scan.columns = cluster.columns
        yield cluster.key, rows


def sequenced(table: Table, sequence_by: Sequence[str]) -> list:
    """The table's rows stably sorted by SEQUENCE BY: the single-cluster order."""
    _require_columns(table, sequence_by)
    return sorted(table, key=itemgetter(*sequence_by)) if sequence_by else list(table)


class _Cluster:
    """One cluster of a partition.

    Until ``ready``, ``rows`` is the cluster's rows in table order; the
    sort then publishes the sorted list, its recorded ``audit``
    diagnostics as ``(Diagnostics method, args)`` pairs, and its kernel
    column store, and sets ``ready`` last.
    """

    __slots__ = ("key", "rows", "ready", "audit", "columns")

    def __init__(self, key: tuple, rows: list) -> None:
        self.key = key
        self.rows = rows
        self.ready = False
        self.audit: tuple = ()
        self.columns = None


class _Partition:
    """A table's clusters for one (CLUSTER BY, SEQUENCE BY, policy) triple.

    ``lock`` is the table's ``partition_lock``.
    """

    __slots__ = ("table_name", "sequence_by", "policy", "audit", "lock", "clusters")

    def __init__(
        self,
        table: Table,
        cluster_by: tuple[str, ...],
        sequence_by: tuple[str, ...],
        policy: ErrorPolicy,
    ) -> None:
        self.table_name = table.name
        self.sequence_by = sequence_by
        self.policy = policy
        self.audit = bool(sequence_by) and policy.lenient
        self.lock = table.partition_lock
        if cluster_by:
            key_of = itemgetter(*cluster_by)
            groups = defaultdict(list)
            for row in table:
                groups[key_of(row)].append(row)
            if len(cluster_by) == 1:
                self.clusters = [_Cluster((key,), rows) for key, rows in groups.items()]
            else:
                self.clusters = [_Cluster(key, rows) for key, rows in groups.items()]
        else:
            rows = list(table)
            self.clusters = [_Cluster((), rows)] if rows else []

    def settle(self, cluster: _Cluster, scan: ClusterScan) -> list:
        """The cluster's sorted rows, sorting them if no scan has yet."""
        if not cluster.ready:
            with self.lock:
                if not cluster.ready:
                    self._sort(cluster)
                    scan.sorted += 1
                    return cluster.rows
        scan.reused += 1
        return cluster.rows

    def _sort(self, cluster: _Cluster) -> None:
        """Sort (or audit) one cluster and publish it, under the lock."""
        rows = cluster.rows
        audit: tuple = ()
        if self.audit:
            rows, audit = _audit_sequence(
                self.table_name, cluster.key, rows, self.sequence_by, self.policy
            )
        elif self.sequence_by:
            rows = sorted(rows, key=itemgetter(*self.sequence_by))
        # Imported here: the stream path never partitions, and the
        # columnar module is no part of it.
        from repro.engine.columnar import ColumnStore

        cluster.audit = audit
        cluster.columns = ColumnStore(rows)
        cluster.rows = rows
        cluster.ready = True


def _partition(
    table: Table,
    cluster_by: tuple[str, ...],
    sequence_by: tuple[str, ...],
    policy: ErrorPolicy,
    scan: ClusterScan,
) -> _Partition:
    """The table's partition for the triple, grouping it on first use."""
    key = (cluster_by, sequence_by, policy)
    # Read once: a mutation replaces the dict after appending its rows,
    # so a partition grouped from older rows lands in the dropped one.
    partitions = table.partitions
    partition = partitions.get(key)
    if partition is None:
        with table.partition_lock:
            partition = partitions.get(key)
            if partition is None:
                partition = partitions[key] = _Partition(
                    table, cluster_by, sequence_by, policy
                )
                scan.grouped += len(partition.clusters)
    return partition


def _require_columns(table: Table, names: Sequence[str]) -> None:
    for name in names:
        if name not in table.schema:
            raise ExecutionError(
                f"table {table.name!r} has no column {name!r} "
                "(referenced by CLUSTER BY / SEQUENCE BY)"
            )


def _audit_sequence(
    table_name: str,
    key: tuple[object, ...],
    rows: list[dict[str, object]],
    sequence_by: Sequence[str],
    policy: ErrorPolicy,
) -> tuple[list[dict[str, object]], tuple]:
    """Sort one cluster, recording out-of-order and duplicate keys.

    Returns the sorted rows and the diagnostics a fresh audit reports,
    as ``(Diagnostics method, args)`` pairs in reporting order.
    """
    keys = [tuple(row[name] for name in sequence_by) for row in rows]
    out_of_order = any(a > b for a, b in zip(keys, keys[1:]))
    ordered = sorted(zip(keys, rows), key=lambda pair: pair[0])
    label = f"cluster {key!r}" if key else "the single cluster"
    audit: list = []
    if out_of_order:
        audit.append((
            Diagnostics.warn,
            (
                f"table {table_name!r}, {label}: SEQUENCE BY "
                f"{tuple(sequence_by)} keys arrived out of order; "
                "stably re-sorted",
            ),
        ))
    duplicates = sum(a == b for (a, _), (b, _) in zip(ordered, ordered[1:]))
    if duplicates:
        if policy is ErrorPolicy.SKIP:
            deduped: list[dict[str, object]] = []
            last_key: object = object()
            for sort_key, row in ordered:
                if sort_key == last_key:
                    audit.append((
                        Diagnostics.quarantine,
                        (
                            f"table {table_name!r}",
                            0,
                            f"{label}: duplicate SEQUENCE BY key {sort_key!r}",
                            tuple(row.values()),
                        ),
                    ))
                    continue
                last_key = sort_key
                deduped.append(row)
            return deduped, tuple(audit)
        audit.append((
            Diagnostics.warn,
            (
                f"table {table_name!r}, {label}: {duplicates} duplicate "
                f"SEQUENCE BY key(s); match results depend on their "
                "relative order",
            ),
        ))
    return [row for _, row in ordered], tuple(audit)
