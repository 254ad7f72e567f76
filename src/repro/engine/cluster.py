"""CLUSTER BY grouping and SEQUENCE BY sorting (paper Figure 1).

"Rows are grouped by their CLUSTER BY attribute(s) (not necessarily
ordered), and data in each group are sorted by their SEQUENCE BY
attribute(s)."  Clusters are yielded in first-appearance order of their
key; with no CLUSTER BY the whole table is a single cluster.  Keys are
C-level ``itemgetter`` lookups, so no Python callable runs per row, and
a cluster is sorted only when the scan reaches it.  A ``keep`` test (the
query's hoisted cluster filter) runs before that sort, so a cluster it
rejects is not sorted unless the lenient audit below sorts it.

The stable re-sort is part of the language semantics.  Under a lenient
:class:`~repro.resilience.ErrorPolicy` the grouping additionally audits
sequence-key integrity per cluster: out-of-order input is re-sorted with
a warning recorded in :class:`~repro.resilience.Diagnostics`, and
duplicate SEQUENCE BY keys — which make the match semantics
order-dependent — are warned about (``COLLECT``) or dropped after the
first occurrence with a quarantine entry (``SKIP``).
"""

from __future__ import annotations

from collections import defaultdict
from operator import itemgetter
from typing import Callable, Iterator, Optional, Sequence, Union

from repro.engine.table import Table
from repro.errors import ExecutionError
from repro.resilience import Diagnostics, ErrorPolicy


def clusters_of(
    table: Table,
    cluster_by: Sequence[str],
    sequence_by: Sequence[str],
    *,
    policy: Union[ErrorPolicy, str] = ErrorPolicy.RAISE,
    diagnostics: Optional[Diagnostics] = None,
    keep: Optional[Callable[[list[dict[str, object]]], bool]] = None,
) -> Iterator[tuple[tuple[object, ...], Optional[list[dict[str, object]]]]]:
    """Yield ``(key, sorted_rows)`` per cluster.

    ``key`` is the tuple of CLUSTER BY values (empty tuple when there is
    no CLUSTER BY clause).  A cluster is sorted only when it is reached.
    ``keep`` is tested on each cluster's rows; a cluster it rejects is
    yielded as ``(key, None)`` without being sorted.  Under a lenient
    policy every cluster is still audited first, so the diagnostics do
    not depend on ``keep``.
    """
    policy = ErrorPolicy.coerce(policy)
    _require_columns(table, (*cluster_by, *sequence_by))
    audit = bool(sequence_by) and policy.lenient
    if cluster_by:
        key_of = itemgetter(*cluster_by)
        groups = defaultdict(list)
        for row in table:
            groups[key_of(row)].append(row)
    else:
        rows = list(table) if audit else sequenced(table, sequence_by)
        groups = {(): rows} if rows else {}
    for key, rows in groups.items():
        if len(cluster_by) == 1:
            key = (key,)
        if audit:
            rows = _audit_sequence(
                table.name, key, rows, sequence_by, policy, diagnostics
            )
        if keep is not None and not keep(rows):
            yield key, None
            continue
        if cluster_by and sequence_by and not audit:
            rows.sort(key=itemgetter(*sequence_by))
        yield key, rows


def sequenced(table: Table, sequence_by: Sequence[str]) -> list:
    """The table's rows stably sorted by SEQUENCE BY: the single-cluster order."""
    _require_columns(table, sequence_by)
    return sorted(table, key=itemgetter(*sequence_by)) if sequence_by else list(table)


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
    diagnostics: Optional[Diagnostics],
) -> list[dict[str, object]]:
    """Sort one cluster, reporting out-of-order and duplicate keys."""
    keys = [tuple(row[name] for name in sequence_by) for row in rows]
    out_of_order = any(a > b for a, b in zip(keys, keys[1:]))
    ordered = sorted(zip(keys, rows), key=lambda pair: pair[0])
    label = f"cluster {key!r}" if key else "the single cluster"
    if out_of_order and diagnostics is not None:
        diagnostics.warn(
            f"table {table_name!r}, {label}: SEQUENCE BY "
            f"{tuple(sequence_by)} keys arrived out of order; "
            "stably re-sorted"
        )
    duplicates = sum(a == b for (a, _), (b, _) in zip(ordered, ordered[1:]))
    if duplicates:
        if policy is ErrorPolicy.SKIP:
            deduped: list[dict[str, object]] = []
            last_key: object = object()
            for sort_key, row in ordered:
                if sort_key == last_key:
                    if diagnostics is not None:
                        diagnostics.quarantine(
                            f"table {table_name!r}",
                            0,
                            f"{label}: duplicate SEQUENCE BY key {sort_key!r}",
                            tuple(row.values()),
                        )
                    continue
                last_key = sort_key
                deduped.append(row)
            return deduped
        if diagnostics is not None:
            diagnostics.warn(
                f"table {table_name!r}, {label}: {duplicates} duplicate "
                f"SEQUENCE BY key(s); match results depend on their "
                "relative order"
            )
    return [row for _, row in ordered]
