"""CLUSTER BY grouping and SEQUENCE BY sorting (paper Figure 1).

"Rows are grouped by their CLUSTER BY attribute(s) (not necessarily
ordered), and data in each group are sorted by their SEQUENCE BY
attribute(s)."  Clusters are yielded in first-appearance order of their
key; with no CLUSTER BY the whole table is a single cluster.  A cluster
is a vector of row positions in the table, its ``index``: grouping
reads only the CLUSTER BY columns (one dict lookup and one append per
row) and sorting only the SEQUENCE BY columns (``sorted`` keyed by the
column's C-level ``__getitem__``), so no Python function runs per row
and no row dict is built.

The grouping depends only on the table, so each table keeps it: the
first query that asks for a (CLUSTER BY, SEQUENCE BY, error policy)
triple groups the rows, and the partition stays on the table
(:attr:`~repro.engine.table.BaseTable.partitions`) until a mutation
drops it.  A cluster is sorted only when a scan first reaches it, and a
``keep`` test (the query's hoisted cluster filter) runs before that
sort, so a cluster it rejects is not sorted unless the lenient audit
below sorts it.  The sorted index replaces the grouped one whole.  A
cluster also keeps what its readers derive from it, each built on first
use: the float64 columns of its kernels (``np.take`` of the table's),
and its rows as dicts, for a reader that needs mappings.  The table's
``partition_lock`` guards the grouping and every sort, so threads
sharing a table build each once and never see a cluster mid-sort.

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

from repro.engine.table import BaseTable, float_array
from repro.errors import ExecutionError
from repro.resilience import Diagnostics, ErrorPolicy


class ClusterScan:
    """What one :func:`clusters_of` scan paid for, and what it reused.

    ``grouped`` counts the clusters this scan grouped (all of them when
    it built the partition), ``sorted`` those it sorted or audited (with
    no SEQUENCE BY: took as grouped), and ``reused`` those an earlier
    scan had sorted.
    """

    __slots__ = ("grouped", "sorted", "reused")

    def __init__(self) -> None:
        self.grouped = 0
        self.sorted = 0
        self.reused = 0


class Cluster:
    """One sorted cluster, as a scan hands it to its readers.

    ``index`` holds the table positions of the cluster's rows in
    SEQUENCE BY order.  Each reader takes what it needs: the kernels
    :meth:`floats`, the lowered SELECT a table :meth:`column` read
    through ``index``, and a reader that needs mappings (a row
    evaluator, the interpreted oracle, a SELECT item that is not a
    column reference, a custom matcher) :attr:`rows`.  Indexing and
    iterating the cluster read :attr:`rows` too.  What is built is kept
    with the table's partition and shared by later scans: it is
    read-only, as the table's columns are.
    """

    __slots__ = ("key", "index", "_table", "_group")

    def __init__(self, table: BaseTable, group: "_Group") -> None:
        self.key = group.key
        self.index = group.index
        self._table = table
        self._group = group

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, position):
        return self.rows[position]

    def __iter__(self) -> Iterator[dict[str, object]]:
        return iter(self.rows)

    def column(self, name: str) -> Sequence[object]:
        """The table's column ``name``: row ``i`` of the cluster is at
        ``index[i]``."""
        return self._table.column(name)

    @property
    def rows(self) -> list[dict[str, object]]:
        """The cluster's rows as the table's row dicts, in order."""
        group = self._group
        rows = group.rows
        if rows is None:
            rows = group.rows = list(map(self._table.rows.__getitem__, self.index))
        return rows

    def floats(self, name: str, np):
        """Column ``name`` over the cluster as a read-only float64 array.

        Raises ValueError where a value of the column in the cluster is
        not a ``float``.  Where every value in the table is one
        (:meth:`~repro.engine.table.BaseTable.float_column`), the array
        is taken from the table's; otherwise the cluster's own values
        decide.
        """
        arrays = self._group.floats
        try:
            array = arrays[name]
        except KeyError:
            array = self._table.float_column(name, np)
            if array is None:
                values = self._table.column(name)
                array = float_array(list(map(values.__getitem__, self.index)), np)
            else:
                array = array.take(self.index)
                array.flags.writeable = False
            array = arrays.setdefault(name, array)
        if array is None:
            raise ValueError(f"column {name!r} is not all float")
        return array


def clusters_of(
    table: BaseTable,
    cluster_by: Sequence[str],
    sequence_by: Sequence[str],
    *,
    policy: Union[ErrorPolicy, str] = ErrorPolicy.RAISE,
    diagnostics: Optional[Diagnostics] = None,
    keep: Optional[Callable[[list[dict[str, object]]], bool]] = None,
    scan: Optional[ClusterScan] = None,
) -> Iterator[tuple[tuple[object, ...], Optional[Cluster]]]:
    """Yield ``(key, cluster)`` per cluster.

    ``key`` is the tuple of CLUSTER BY values (empty tuple when there is
    no CLUSTER BY clause).  A cluster is sorted only when it is reached.
    ``keep`` is tested on a one-row list whose row maps each CLUSTER BY
    column to the cluster's value (a hoisted cluster filter reads
    nothing else); a cluster it rejects is yielded as ``(key, None)``
    without being sorted.  Under a lenient policy every cluster is still
    audited first, so the diagnostics do not depend on ``keep``.
    ``scan``, when given, counts the work.
    """
    policy = ErrorPolicy.coerce(policy)
    _require_columns(table, (*cluster_by, *sequence_by))
    if scan is None:
        scan = ClusterScan()
    partition = _partition(table, tuple(cluster_by), tuple(sequence_by), policy, scan)
    for group in partition.groups:
        if partition.audit:
            partition.settle(group, table, scan)
            if diagnostics is not None:
                for record, args in group.audit:
                    record(diagnostics, *args)
            if keep is not None and not keep(partition.head(group)):
                yield group.key, None
                continue
        else:
            if keep is not None and not keep(partition.head(group)):
                yield group.key, None
                continue
            partition.settle(group, table, scan)
        yield group.key, Cluster(table, group)


def sequenced(table: BaseTable, sequence_by: Sequence[str]) -> list:
    """The table's rows stably sorted by SEQUENCE BY: the single-cluster order."""
    _require_columns(table, sequence_by)
    return sorted(table, key=itemgetter(*sequence_by)) if sequence_by else list(table)


class _Group:
    """One cluster of a partition.

    Until ``ready``, ``index`` is the cluster's positions in table
    order; the sort then publishes the sorted index and its recorded
    ``audit`` diagnostics as ``(Diagnostics method, args)`` pairs, and
    sets ``ready`` last.  ``floats``, ``rows`` and ``head`` are kept
    for :class:`Cluster` and the ``keep`` test.
    """

    __slots__ = ("key", "index", "ready", "audit", "floats", "rows", "head")

    def __init__(self, key: tuple, index: list[int]) -> None:
        self.key = key
        self.index = index
        self.ready = False
        self.audit: tuple = ()
        self.floats: dict = {}
        self.rows: Optional[list] = None
        self.head: Optional[list] = None


class _Partition:
    """A table's clusters for one (CLUSTER BY, SEQUENCE BY, policy) triple.

    ``lock`` is the table's ``partition_lock``.  Nothing here points
    back at the table, so a dropped table is freed by reference
    counting.
    """

    __slots__ = (
        "table_name", "cluster_by", "sequence_by", "policy", "audit", "lock", "groups",
    )

    def __init__(
        self,
        table: BaseTable,
        cluster_by: tuple[str, ...],
        sequence_by: tuple[str, ...],
        policy: ErrorPolicy,
    ) -> None:
        self.table_name = table.name
        self.cluster_by = cluster_by
        self.sequence_by = sequence_by
        self.policy = policy
        self.audit = bool(sequence_by) and policy.lenient
        self.lock = table.partition_lock
        length = len(table)
        if not cluster_by:
            self.groups = [_Group((), list(range(length)))] if length else []
            return
        if len(cluster_by) == 1:
            keys = table.column(cluster_by[0])
        else:
            keys = zip(*map(table.column, cluster_by))
        groups: defaultdict = defaultdict(list)
        for position, key in zip(range(length), keys):
            groups[key].append(position)
        if len(cluster_by) == 1:
            self.groups = [_Group((key,), index) for key, index in groups.items()]
        else:
            self.groups = [_Group(key, index) for key, index in groups.items()]

    def head(self, group: _Group) -> list[dict[str, object]]:
        """What ``keep`` is tested on: a one-row list of the cluster's
        CLUSTER BY values."""
        head = group.head
        if head is None:
            head = group.head = [dict(zip(self.cluster_by, group.key))]
        return head

    def settle(self, group: _Group, table: BaseTable, scan: ClusterScan) -> None:
        """Sort the cluster if no scan has yet."""
        if not group.ready:
            with self.lock:
                if not group.ready:
                    self._sort(group, table)
                    scan.sorted += 1
                    return
        scan.reused += 1

    def _sort(self, group: _Group, table: BaseTable) -> None:
        """Sort (or audit) one cluster and publish it, under the lock."""
        index = group.index
        audit: tuple = ()
        if self.audit:
            index, audit = _audit_sequence(
                self.table_name, group.key, index, table, self.sequence_by, self.policy
            )
        elif self.sequence_by:
            columns = [table.column(name) for name in self.sequence_by]
            if len(columns) == 1:
                index = sorted(index, key=columns[0].__getitem__)
            else:
                keys = zip(*(map(column.__getitem__, index) for column in columns))
                index = [position for _, position in sorted(zip(keys, index), key=_FIRST)]
        group.audit = audit
        group.index = index
        group.ready = True


_FIRST = itemgetter(0)


def _partition(
    table: BaseTable,
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
                scan.grouped += len(partition.groups)
    return partition


def _require_columns(table: BaseTable, names: Sequence[str]) -> None:
    for name in names:
        if name not in table.schema:
            raise ExecutionError(
                f"table {table.name!r} has no column {name!r} "
                "(referenced by CLUSTER BY / SEQUENCE BY)"
            )


def _audit_sequence(
    table_name: str,
    key: tuple[object, ...],
    index: list[int],
    table: BaseTable,
    sequence_by: Sequence[str],
    policy: ErrorPolicy,
) -> tuple[list[int], tuple]:
    """Sort one cluster's positions, recording out-of-order and
    duplicate keys.

    Returns the sorted positions and the diagnostics a fresh audit
    reports, as ``(Diagnostics method, args)`` pairs in reporting order.
    """
    columns = [table.column(name) for name in sequence_by]
    keys = list(zip(*(map(column.__getitem__, index) for column in columns)))
    out_of_order = any(a > b for a, b in zip(keys, keys[1:]))
    ordered = sorted(zip(keys, index), key=_FIRST)
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
            row_columns = [table.column(name) for name in table.schema.names]
            deduped: list[int] = []
            last_key: object = object()
            for sort_key, position in ordered:
                if sort_key == last_key:
                    audit.append((
                        Diagnostics.quarantine,
                        (
                            f"table {table_name!r}",
                            0,
                            f"{label}: duplicate SEQUENCE BY key {sort_key!r}",
                            tuple(column[position] for column in row_columns),
                        ),
                    ))
                    continue
                last_key = sort_key
                deduped.append(position)
            return deduped, tuple(audit)
        audit.append((
            Diagnostics.warn,
            (
                f"table {table_name!r}, {label}: {duplicates} duplicate "
                f"SEQUENCE BY key(s); match results depend on their "
                "relative order",
            ),
        ))
    return [position for _, position in ordered], tuple(audit)
