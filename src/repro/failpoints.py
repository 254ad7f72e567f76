"""Deterministic failpoint injection for crash-consistency testing.

Production code guards its failure-prone boundaries with *named sites*::

    failpoints.maybe_fail("checkpoint.rename")          # raise-style sites
    frame = failpoints.mangle("checkpoint.write", frame)  # payload sites
    if not failpoints.maybe_fail("checkpoint.fsync"):     # skippable sites
        os.fsync(handle.fileno())

When no failpoint is armed (the production default) every hook is a
single module-global boolean check — zero allocation, zero locking — so
the ``tracing`` gate's byte-identity and overhead checks
(``repro.bench.gates``) are unaffected.  Tests and chaos harnesses arm
sites to fire a chosen exception, truncate a payload ("torn write"), or
skip an operation (lost fsync), optionally only from the Nth hit onward
and at most K times, which turns "kill -9 at just the wrong moment"
races into deterministic unit tests.

Activation surfaces:

- API: :func:`configure` / :func:`activate_spec` / :func:`scoped`;
- environment: ``REPRO_FAILPOINTS="site=action;..."`` read at import;
- CLI: ``--failpoints "site=action;..."`` on ``query``/``stream``/``serve``.

Spec grammar (entries separated by ``;`` or ``,``)::

    site=action[:arg][@hit][*times]

    checkpoint.write=torn:12          # keep only 12 bytes of the payload
    checkpoint.fsync=skip             # silently lose the fsync
    serve.send_frame=raise:ConnectionResetError@3*1
                                      # 3rd send raises, once, then disarms

Hit and fire counts per site are kept always (cheap ints under a lock,
touched only while armed) and are additionally surfaced through a
:class:`~repro.obs.metrics.MetricsRegistry` bound via
:func:`set_metrics` — see docs/observability.md.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple, Type

from repro.errors import FailpointError, TransientSourceError

__all__ = [
    "KNOWN_SITES",
    "FailpointSpecError",
    "activate_spec",
    "active",
    "armed",
    "configure",
    "clear",
    "fires",
    "hits",
    "mangle",
    "maybe_fail",
    "reset",
    "scoped",
    "set_metrics",
]

#: Sites compiled into the engine as of this release.  The registry is
#: deliberately open (new sites need no central edit), but this list is
#: the documented contract and what ``--failpoints help`` prints.
KNOWN_SITES: Tuple[str, ...] = (
    "checkpoint.write",        # payload of the temp-file write (torn-able)
    "checkpoint.fsync",        # file fsync before rename (skippable)
    "checkpoint.rename",       # between .prev rotation and final rename
    "checkpoint.replica_write",  # each replica write of a checkpoint save
    "recovery.restore",        # checkpoint load during runner restore
    "serve.send_frame",        # every server->client NDJSON frame
    "parallel.worker_start",   # entry of each parallel work unit
    "columnar.write",          # columnar file payload (torn-able)
    "columnar.fsync",          # columnar file fsync before rename (skippable)
    "columnar.rename",         # between columnar tmp write and final rename
)

#: Exception names accepted by ``raise:<Name>`` specs.  Restricted to a
#: curated set (not arbitrary attribute lookup) so a spec string coming
#: from an env var or CLI flag cannot name surprising internals.
_EXCEPTIONS: Dict[str, Type[BaseException]] = {
    "FailpointError": FailpointError,
    "OSError": OSError,
    "IOError": OSError,
    "RuntimeError": RuntimeError,
    "ValueError": ValueError,
    "ConnectionError": ConnectionError,
    "ConnectionResetError": ConnectionResetError,
    "BrokenPipeError": BrokenPipeError,
    "TimeoutError": TimeoutError,
    "TransientSourceError": TransientSourceError,
}

_ACTIONS = ("raise", "torn", "skip")


class FailpointSpecError(ValueError):
    """A ``--failpoints`` / ``REPRO_FAILPOINTS`` spec string is malformed."""


@dataclass
class _Site:
    """Armed configuration plus lifetime counters for one site."""

    name: str
    action: str = "raise"
    exc: Type[BaseException] = FailpointError
    message: str = ""
    keep_bytes: Optional[int] = None   # torn: bytes kept (default: half)
    at_hit: int = 1                    # first hit (1-based) that fires
    times: Optional[int] = None        # max fires; None = unlimited
    hits: int = 0
    fires: int = 0

    def should_fire(self) -> bool:
        if self.hits < self.at_hit:
            return False
        if self.times is not None and self.fires >= self.times:
            return False
        return True

    def build_exception(self) -> BaseException:
        detail = self.message or f"failpoint {self.name!r} injected failure"
        if self.exc is FailpointError:
            return FailpointError(self.name, detail)
        return self.exc(detail)


class FailpointRegistry:
    """Process-wide registry of armed failpoint sites.

    All mutation and evaluation happens under one lock; the fast path
    (nothing armed) never takes it — ``_armed`` is a plain bool read.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._sites: Dict[str, _Site] = {}
        self._armed = False
        self._metrics = None
        self._hit_counter = None
        self._fire_counter = None

    # -- configuration --------------------------------------------------

    def configure(
        self,
        site: str,
        action: str = "raise",
        *,
        exc: Optional[Type[BaseException]] = None,
        message: str = "",
        keep_bytes: Optional[int] = None,
        at_hit: int = 1,
        times: Optional[int] = None,
    ) -> None:
        """Arm ``site``.  Re-configuring a site resets its counters."""
        if not site or "=" in site:
            raise FailpointSpecError(f"invalid failpoint site name {site!r}")
        if action not in _ACTIONS:
            raise FailpointSpecError(
                f"unknown failpoint action {action!r} (choose from {_ACTIONS})"
            )
        if at_hit < 1:
            raise FailpointSpecError(f"at_hit must be >= 1, got {at_hit}")
        if times is not None and times < 1:
            raise FailpointSpecError(f"times must be >= 1, got {times}")
        if keep_bytes is not None and keep_bytes < 0:
            raise FailpointSpecError(f"keep_bytes must be >= 0, got {keep_bytes}")
        with self._lock:
            self._sites[site] = _Site(
                name=site,
                action=action,
                exc=exc if exc is not None else FailpointError,
                message=message,
                keep_bytes=keep_bytes,
                at_hit=at_hit,
                times=times,
            )
            self._armed = True

    def clear(self, site: Optional[str] = None) -> None:
        """Disarm one site (or all when ``site`` is None), keeping nothing."""
        with self._lock:
            if site is None:
                self._sites.clear()
            else:
                self._sites.pop(site, None)
            self._armed = bool(self._sites)

    def reset(self) -> None:
        """Disarm every site and drop the metrics binding (test teardown)."""
        with self._lock:
            self._sites.clear()
            self._armed = False
            self._metrics = None
            self._hit_counter = None
            self._fire_counter = None

    def activate_spec(self, spec: str) -> int:
        """Parse and arm a ``site=action[:arg][@hit][*times];...`` string.

        Returns the number of sites armed.  Raises
        :class:`FailpointSpecError` (leaving the registry untouched) on a
        malformed spec.
        """
        entries = [
            entry.strip()
            for entry in spec.replace(",", ";").split(";")
            if entry.strip()
        ]
        if not entries:
            raise FailpointSpecError("empty failpoints spec")
        parsed = [self._parse_entry(entry) for entry in entries]
        for kwargs in parsed:
            self.configure(**kwargs)
        return len(parsed)

    @staticmethod
    def _parse_entry(entry: str) -> dict:
        site, sep, rhs = entry.partition("=")
        site = site.strip()
        if not sep or not site or not rhs.strip():
            raise FailpointSpecError(
                f"malformed failpoint entry {entry!r} "
                "(expected site=action[:arg][@hit][*times])"
            )
        rhs = rhs.strip()
        times: Optional[int] = None
        at_hit = 1
        if "*" in rhs:
            rhs, _, times_text = rhs.rpartition("*")
            try:
                times = int(times_text)
            except ValueError:
                raise FailpointSpecError(
                    f"bad *times count in {entry!r}: {times_text!r}"
                ) from None
        if "@" in rhs:
            rhs, _, hit_text = rhs.rpartition("@")
            try:
                at_hit = int(hit_text)
            except ValueError:
                raise FailpointSpecError(
                    f"bad @hit number in {entry!r}: {hit_text!r}"
                ) from None
        action, _, arg = rhs.partition(":")
        action = action.strip()
        arg = arg.strip()
        kwargs: dict = {"site": site, "action": action, "at_hit": at_hit, "times": times}
        if action == "raise":
            if arg:
                if arg not in _EXCEPTIONS:
                    raise FailpointSpecError(
                        f"unknown exception {arg!r} in {entry!r} "
                        f"(choose from {sorted(_EXCEPTIONS)})"
                    )
                kwargs["exc"] = _EXCEPTIONS[arg]
        elif action == "torn":
            if arg:
                try:
                    kwargs["keep_bytes"] = int(arg)
                except ValueError:
                    raise FailpointSpecError(
                        f"bad torn byte count in {entry!r}: {arg!r}"
                    ) from None
        elif action == "skip":
            if arg:
                raise FailpointSpecError(f"skip takes no argument in {entry!r}")
        else:
            raise FailpointSpecError(
                f"unknown failpoint action {action!r} in {entry!r} "
                f"(choose from {_ACTIONS})"
            )
        return kwargs

    # -- metrics --------------------------------------------------------

    def set_metrics(self, registry) -> None:
        """Surface per-site hit/fire counters through a MetricsRegistry.

        Idempotent; pass ``None`` to unbind.  Counters created:
        ``repro_failpoint_hits_total{site=...}`` and
        ``repro_failpoint_fires_total{site=...}``.
        """
        with self._lock:
            self._metrics = registry
            if registry is None:
                self._hit_counter = None
                self._fire_counter = None
                return
            self._hit_counter = registry.counter(
                "repro_failpoint_hits_total",
                "Times an armed failpoint site was reached.",
                labelnames=("site",),
            )
            self._fire_counter = registry.counter(
                "repro_failpoint_fires_total",
                "Times a failpoint actually injected its fault.",
                labelnames=("site",),
            )

    # -- evaluation -----------------------------------------------------

    def evaluate(self, site: str) -> Optional[_Site]:
        """Count a hit on ``site``; return its config if it fires now.

        Only called from the slow path (``_armed`` already True).  A site
        that is not configured is not counted — hit counters measure
        traffic through *armed* sites, which is what the chaos matrix
        asserts on.
        """
        with self._lock:
            config = self._sites.get(site)
            if config is None:
                return None
            config.hits += 1
            if self._hit_counter is not None:
                self._hit_counter.labels(site=site).inc()
            if not config.should_fire():
                return None
            config.fires += 1
            if self._fire_counter is not None:
                self._fire_counter.labels(site=site).inc()
            return config

    # -- inspection -----------------------------------------------------

    @property
    def armed(self) -> bool:
        return self._armed

    def active(self) -> Dict[str, str]:
        """``{site: "action[:arg][@hit][*times]"}`` for every armed site."""
        with self._lock:
            view = {}
            for name, config in sorted(self._sites.items()):
                text = config.action
                if config.action == "raise" and config.exc is not FailpointError:
                    text += f":{config.exc.__name__}"
                elif config.action == "torn" and config.keep_bytes is not None:
                    text += f":{config.keep_bytes}"
                if config.at_hit != 1:
                    text += f"@{config.at_hit}"
                if config.times is not None:
                    text += f"*{config.times}"
                view[name] = text
            return view

    def hits(self, site: str) -> int:
        with self._lock:
            config = self._sites.get(site)
            return config.hits if config is not None else 0

    def fires(self, site: str) -> int:
        with self._lock:
            config = self._sites.get(site)
            return config.fires if config is not None else 0

    def counters(self) -> Dict[str, Dict[str, int]]:
        """``{site: {"hits": n, "fires": m}}`` for every armed site."""
        with self._lock:
            return {
                name: {"hits": config.hits, "fires": config.fires}
                for name, config in sorted(self._sites.items())
            }


#: The process-wide registry all module-level helpers delegate to.
_registry = FailpointRegistry()


def registry() -> FailpointRegistry:
    return _registry


def maybe_fail(site: str) -> bool:
    """The production hook for raise/skip sites.

    Returns False (and does nothing else) when nothing is armed — the
    common case is one global bool check.  When the site fires: a
    ``raise`` config raises its exception; a ``skip`` config returns
    True, telling the caller to skip the guarded operation; a ``torn``
    config at a non-payload site is treated as ``skip``.
    """
    if not _registry._armed:
        return False
    config = _registry.evaluate(site)
    if config is None:
        return False
    if config.action == "raise":
        raise config.build_exception()
    return True


def mangle(site: str, data: bytes) -> bytes:
    """The production hook for payload sites (torn-write injection).

    Identity when nothing is armed.  A ``torn`` config truncates the
    payload to ``keep_bytes`` (default: half); a ``raise`` config raises;
    a ``skip`` config drops the payload entirely (returns ``b""``).
    """
    if not _registry._armed:
        return data
    config = _registry.evaluate(site)
    if config is None:
        return data
    if config.action == "raise":
        raise config.build_exception()
    if config.action == "skip":
        return b""
    keep = config.keep_bytes if config.keep_bytes is not None else len(data) // 2
    return data[:keep]


def configure(
    site: str,
    action: str = "raise",
    *,
    exc: Optional[Type[BaseException]] = None,
    message: str = "",
    keep_bytes: Optional[int] = None,
    at_hit: int = 1,
    times: Optional[int] = None,
) -> None:
    _registry.configure(
        site,
        action,
        exc=exc,
        message=message,
        keep_bytes=keep_bytes,
        at_hit=at_hit,
        times=times,
    )


def activate_spec(spec: str) -> int:
    return _registry.activate_spec(spec)


def clear(site: Optional[str] = None) -> None:
    _registry.clear(site)


def reset() -> None:
    _registry.reset()


def armed() -> bool:
    return _registry.armed


def active() -> Dict[str, str]:
    return _registry.active()


def hits(site: str) -> int:
    return _registry.hits(site)


def fires(site: str) -> int:
    return _registry.fires(site)


def counters() -> Dict[str, Dict[str, int]]:
    return _registry.counters()


def set_metrics(registry) -> None:
    _registry.set_metrics(registry)


@contextmanager
def scoped(spec: str) -> Iterator[FailpointRegistry]:
    """Arm a spec for the duration of a ``with`` block, then disarm.

    Only the sites named in ``spec`` are cleared on exit, so nesting
    scopes over disjoint sites composes; counters for the scoped sites
    are discarded with them.
    """
    armed_sites = set(_registry.active())
    _registry.activate_spec(spec)
    added = set(_registry.active()) - armed_sites
    try:
        yield _registry
    finally:
        for site in added:
            _registry.clear(site)


def load_from_env(environ=os.environ) -> int:
    """Arm sites from ``REPRO_FAILPOINTS`` if set; returns sites armed."""
    spec = environ.get("REPRO_FAILPOINTS", "").strip()
    if not spec:
        return 0
    return _registry.activate_spec(spec)


# Env activation happens at import so a spec exported before launching
# any entry point (CLI, server, pytest) arms the process without code
# changes.  A malformed spec must fail loudly here, not silently run the
# workload un-faulted.
load_from_env()
