"""Self time with nested spans, merged calls, and where wrappers record."""

import threading
import types

import pytest

from perf.spans import LayerSums, Patches, Tracer


class FakeClock:
    """A clock that moves only when the test says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


def test_self_time_subtracts_children(clock):
    tracer = Tracer(clock)

    def leaf():
        clock.advance(2.0)

    traced_leaf = tracer.wrap("leaf", leaf)

    def middle():
        clock.advance(1.0)
        traced_leaf()
        clock.advance(0.5)

    traced_middle = tracer.wrap("middle", middle)
    with tracer.op("query"):
        clock.advance(0.25)
        traced_middle()
    assert tracer.layer_self("middle") == (1, pytest.approx(1.5))
    assert tracer.layer_self("leaf") == (1, pytest.approx(2.0))
    root = tracer.ops[0]
    assert root.busy == pytest.approx(3.75)
    assert root.self_time() == pytest.approx(0.25)
    assert tracer.unaccounted() == pytest.approx(0.25 / 3.75)


def test_repeated_calls_merge_into_one_record(clock):
    tracer = Tracer(clock)
    step = tracer.wrap("step", lambda: clock.advance(1.0))
    with tracer.op("query"):
        for _ in range(3):
            step()
            clock.advance(10.0)  # caller time between calls
    records = tracer.records()
    assert [r["name"] for r in records] == ["query", "step"]
    step_record = records[1]
    assert step_record["calls"] == 3
    assert step_record["busy_s"] == pytest.approx(3.0)
    assert (step_record["start"], step_record["end"]) == (0.0, 23.0)
    assert step_record["parent"] == records[0]["id"]
    assert step_record["op"] == records[0]["op"] == 0


def test_same_name_nested_counts_self_time_once(clock):
    tracer = Tracer(clock)
    inner = tracer.wrap("project", lambda: clock.advance(1.0))

    def outer():
        clock.advance(0.5)
        inner()

    traced_outer = tracer.wrap("project", outer)
    with tracer.op("query"):
        traced_outer()
    assert tracer.layer_self("project") == (2, pytest.approx(1.5))


def test_generator_time_excludes_the_consumer(clock):
    tracer = Tracer(clock)

    def produce():
        for item in range(3):
            clock.advance(1.0)
            yield item

    traced = tracer.wrap_iter("cluster", produce)
    with tracer.op("query"):
        for _ in traced():
            clock.advance(5.0)
    calls, busy = tracer.layer_self("cluster")
    assert calls == 4  # three items and the final StopIteration
    assert busy == pytest.approx(3.0)


def test_exception_still_closes_the_span(clock):
    tracer = Tracer(clock)

    def boom():
        clock.advance(1.0)
        raise ValueError("bad")

    traced = tracer.wrap("boom", boom)
    with tracer.op("query"):
        with pytest.raises(ValueError):
            traced()
        clock.advance(2.0)
    assert tracer.layer_self("boom") == (1, pytest.approx(1.0))
    assert tracer.ops[0].self_time() == pytest.approx(2.0)


def test_nothing_recorded_outside_an_op_or_off_thread(clock):
    tracer = Tracer(clock)
    seen = []
    traced = tracer.wrap("work", lambda: seen.append(1))
    traced()  # no open operation
    with tracer.op("query"):
        worker = threading.Thread(target=traced)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    assert seen == [1, 1]
    assert tracer.layer_self("work") == (0, 0.0)


def test_observe_counts_layer_work(clock):
    tracer = Tracer(clock)

    def count(counts, args, result):
        counts["bytes"] += len(result)

    traced = tracer.wrap("encode", lambda text: text.encode(), observe=count)
    with tracer.op("query"):
        traced("abc")
        traced("de")
    assert tracer.counts["bytes"] == 5


def test_layer_sums_across_threads(clock):
    sums = LayerSums(clock)
    traced = sums.wrap("serve.encode", lambda n: b"x" * n, size=lambda _, out: len(out))
    threads = [threading.Thread(target=traced, args=(10,)) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert sums.layers["serve.encode"]["calls"] == 8
    assert sums.layers["serve.encode"]["bytes"] == 80


def test_patches_undo_module_and_inherited_attributes():
    module = types.ModuleType("fake")
    module.work = lambda: "original"

    class Base:
        def run(self):
            return "base"

    class Child(Base):
        pass

    patches = Patches()
    patches.replace(module, "work", lambda fn: lambda: "patched " + fn())
    patches.replace(Child, "run", lambda fn: lambda self: "patched " + fn(self))
    assert module.work() == "patched original"
    assert Child().run() == "patched base"
    patches.undo()
    assert module.work() == "original"
    assert Child().run() == "base"
    assert "run" not in vars(Child)
