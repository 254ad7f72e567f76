"""Start ``repro serve`` with the benchmark's probes around it.

Usage::

    python -m perf.serve_entry SPEED_OUT [--layers-out PATH] serve ARGS...

The server runs the machine-speed probe of :mod:`perf.speed` in a side
thread every ``INTERVAL_S``, timed with the thread's CPU clock so that
waiting for the interpreter lock does not count, and writes the probes
to SPEED_OUT once it has drained.  Served times are scaled by the speed
of the process that served them.

``--layers-out`` puts timing wrappers onto the names the server looks
up — ``repro.serve.server.decode_frame`` and ``encode_frame``,
``AdmissionController.reserve`` and ``Executor.execute_with_report`` —
and writes the per-layer sums (calls, busy seconds, bytes) to PATH once
the server has drained.  Sums are per layer, not per request.
"""

from __future__ import annotations

import sys
import threading
import time


def _install(sums):
    from perf.spans import Patches
    from repro.engine.executor import Executor
    from repro.serve import server
    from repro.serve.tenants import AdmissionController

    patches = Patches()
    patches.replace(
        server, "decode_frame",
        lambda fn: sums.wrap("serve.decode", fn, size=lambda args, _: len(args[0])),
    )
    patches.replace(
        server, "encode_frame",
        lambda fn: sums.wrap("serve.encode", fn, size=lambda _, frame: len(frame)),
    )
    patches.replace(
        AdmissionController, "reserve", lambda fn: sums.wrap("serve.admit", fn)
    )
    patches.replace(
        Executor, "execute_with_report", lambda fn: sums.wrap("serve.execute", fn)
    )
    return patches


def _probe_until(speed, stop: threading.Event, interval: float) -> None:
    while not stop.wait(interval):
        speed.measure()


def main(argv: list[str]) -> int:
    from perf.spans import LayerSums
    from perf.speed import INTERVAL_S, Speed
    from repro import cli

    speed_out, argv = argv[0], argv[1:]
    layers_out = None
    if argv[:1] == ["--layers-out"]:
        layers_out, argv = argv[1], argv[2:]
    speed = Speed(timer=time.thread_time)
    stop = threading.Event()
    prober = threading.Thread(
        target=_probe_until, args=(speed, stop, INTERVAL_S), name="perf-speed", daemon=True
    )
    sums = LayerSums()
    patches = _install(sums) if layers_out is not None else None
    prober.start()
    try:
        return cli.main(argv)
    finally:
        stop.set()
        prober.join(timeout=10)
        speed.dump(speed_out)
        if patches is not None:
            patches.undo()
            sums.write(layers_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
