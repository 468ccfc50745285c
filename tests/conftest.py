import tracemalloc

import pytest

from embcom import ArrayConfig, SceneConfig, field


@pytest.fixture
def ref_array():
    """Half-wavelength 64x16 UPA used by the reference numerical setup."""
    return ArrayConfig(64, 16)


@pytest.fixture
def ref_scene():
    """2 m x 2 m plane at 100 m, gamma0 = 10 (10 dB), L = 5 snapshots."""
    return SceneConfig(100.0, 2.0, 2.0, 10.0, 1.0, 5, 1.0)


@pytest.fixture
def small_array():
    """8x4 UPA for dense-matrix oracles."""
    return ArrayConfig(8, 4)


@pytest.fixture
def capped_field(monkeypatch):
    """Make a ray search that calls the field over 10,000 times fail instead
    of hang."""
    calls = 0
    exact = field.bhattacharyya_grid

    def capped(*args):
        nonlocal calls
        calls += 1
        if calls > 10_000:
            raise RuntimeError("ray search does not terminate")
        return exact(*args)

    monkeypatch.setattr(field, "bhattacharyya_grid", capped)


@pytest.fixture
def call_log(monkeypatch):
    """``calls = call_log(module, "name")`` replaces that module attribute
    with a wrapper that appends each call's positional arguments to
    ``calls``."""
    def install(module, name):
        calls = []
        original = getattr(module, name)

        def logged(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, logged)
        return calls

    return install


@pytest.fixture
def traced_peak():
    """``peak = traced_peak(fn, *args)`` calls fn(*args) and returns the
    most bytes that tracemalloc saw allocated at once during the call (numpy
    reports its array buffers to it)."""
    def measure(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return measure
