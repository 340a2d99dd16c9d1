import sys

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(params=[True, False], ids=["numpy.ma loaded", "numpy.ma not loaded"])
def ma_loaded(request, monkeypatch):
    """Runs a test with and without numpy.ma in sys.modules: as_float_vectors
    checks for masked entries only while it is loaded, and must convert and
    refuse input alike in both states."""
    pytest.importorskip("numpy.ma")
    if not request.param:
        monkeypatch.delitem(sys.modules, "numpy.ma")
    return request.param
