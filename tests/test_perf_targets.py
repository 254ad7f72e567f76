"""The names the benchmark's layer wrappers patch must exist.

``perf/layers.py`` and ``perf/serve_entry.py`` put timing wrappers onto
names that callers look up (``executor.parse_query``,
``OpsStarMatcher.find_matches``, ...).  Renaming or deleting one makes a
traced ``python -m perf run --trace`` fail with AttributeError; this test
makes the suite fail first.
"""

from perf.layers import install
from perf.serve_entry import _install
from perf.spans import LayerSums, Patches, Tracer


def test_wrapped_names_exist_and_are_restored(monkeypatch):
    patched = []
    replace = Patches.replace

    def recording(self, owner, attr, make):
        patched.append((owner, attr, getattr(owner, attr)))
        replace(self, owner, attr, make)

    monkeypatch.setattr(Patches, "replace", recording)
    layer_patches = install(Tracer())
    serve_patches = _install(LayerSums())
    try:
        for owner, attr, original in patched:
            assert getattr(owner, attr).__wrapped__ is original
    finally:
        serve_patches.undo()
        layer_patches.undo()

    names = {attr for _, attr, _ in patched}
    assert {"apply_aggregate", "find_matches", "execute_with_report"} <= names
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner}.{attr} not restored"
