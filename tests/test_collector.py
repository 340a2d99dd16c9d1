"""The public engine calls pause the cyclic garbage collector, and only them.

tree_top_k, tensor_top_k and top_peaks turn an enabled collector off for the
whole call and back on when it returns or raises; a collector that the caller
turned off stays off.
"""

import gc
import inspect
import sys

import pytest

import summit.isotopes
from summit import InputError, SumOverflowError, tensor_top_k, top_peaks, tree_top_k

VECTORS = [[3.0, 1.0, 2.0], [4.0, 2.0], [0.5, 1.5]]

# One ordinary call per entry point, and the calls that raise inside it.
CALLS = {
    "tree_top_k": (lambda: tree_top_k(VECTORS, 5), [
        (InputError, lambda: tree_top_k(VECTORS, -1)),
        (InputError, lambda: tree_top_k([[1.0, float("nan")], [2.0]], 1)),
        (SumOverflowError, lambda: tree_top_k([[1e308], [1e308]], 1)),
    ]),
    "tensor_top_k": (lambda: tensor_top_k(VECTORS, 5), [
        (InputError, lambda: tensor_top_k(VECTORS, -1)),
        (InputError, lambda: tensor_top_k([[1.0, float("nan")], [2.0]], 1)),
        (SumOverflowError, lambda: tensor_top_k([[1e308], [1e308]], 1)),
    ]),
    "top_peaks": (lambda: top_peaks("C3H8", 5), [
        (InputError, lambda: top_peaks("C3H8", -1)),
        (InputError, lambda: top_peaks("C3Xq8", 5)),
    ]),
}
ENTRY_POINTS = {"tree_top_k": tree_top_k, "tensor_top_k": tensor_top_k,
                "top_peaks": top_peaks}
NAMES = sorted(CALLS)


@pytest.fixture
def collector():
    """Runs the test with the collector on, and leaves it as it found it."""
    was_enabled = gc.isenabled()
    gc.enable()
    try:
        yield
    finally:
        if not was_enabled:
            gc.disable()


@pytest.fixture
def enables(monkeypatch):
    """Counts the calls that turn the collector on."""
    calls = []
    enable = gc.enable

    def counted():
        calls.append(None)
        enable()

    monkeypatch.setattr(gc, "enable", counted)
    return calls


@pytest.mark.parametrize("name", NAMES)
def test_enabled_collector_is_on_after_a_return(collector, name):
    call, _ = CALLS[name]
    call()
    assert gc.isenabled()


@pytest.mark.parametrize("name", NAMES)
def test_enabled_collector_is_on_after_a_raise(collector, name):
    _, failures = CALLS[name]
    for error, call in failures:
        with pytest.raises(error):
            call()
        assert gc.isenabled()


@pytest.mark.parametrize("name", NAMES)
def test_disabled_collector_stays_off(collector, enables, name):
    call, failures = CALLS[name]
    gc.disable()
    try:
        call()
        assert not gc.isenabled()
        for error, failing in failures:
            with pytest.raises(error):
                failing()
            assert not gc.isenabled()
        assert enables == []
    finally:
        gc.enable()


@pytest.mark.parametrize("name", NAMES)
def test_no_collection_starts_inside_the_call(collector, name):
    fn = ENTRY_POINTS[name]
    codes = {fn.__code__, fn.__wrapped__.__code__}
    inside = []

    def hook(phase, info):
        frame = sys._getframe(1) if phase == "start" else None
        while frame is not None:
            if frame.f_code in codes:
                inside.append(info["generation"])
            frame = frame.f_back

    call, failures = CALLS[name]
    threshold = gc.get_threshold()
    gc.callbacks.append(hook)
    gc.set_threshold(1)
    try:
        for _ in range(3):
            call()
            for error, failing in failures:
                with pytest.raises(error):
                    failing()
    finally:
        gc.set_threshold(*threshold)
        gc.callbacks.remove(hook)
    assert inside == []


def test_top_peaks_turns_the_collector_on_once_at_the_end(collector, enables, monkeypatch):
    seen = []
    select = summit.isotopes.select

    def spy(sources, k):
        seen.append((gc.isenabled(), len(enables)))
        return select(sources, k)

    monkeypatch.setattr(summit.isotopes, "select", spy)
    top_peaks("C3H8", 3)
    assert seen == [(False, 0)]
    assert len(enables) == 1
    assert gc.isenabled()


@pytest.mark.parametrize("name", NAMES)
def test_wrapper_keeps_name_doc_and_signature(name):
    fn = ENTRY_POINTS[name]
    assert fn.__name__ == name
    assert fn.__doc__ and fn.__doc__ == fn.__wrapped__.__doc__
    assert inspect.signature(fn) == inspect.signature(fn.__wrapped__)
    params = list(inspect.signature(fn).parameters)
    assert params == (["formula", "k", "table"] if name == "top_peaks"
                      else ["vectors", "k"])
