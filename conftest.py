"""Set-up shared by every test directory of the checkout."""
import sys

import pytest


@pytest.fixture(autouse=True)
def _no_cached_series(request):
    """The tracer tests count the series their claims expand, so each of
    them starts without the series that earlier tests cached."""
    if request.path.name != "test_tracer.py":
        return
    quasiforms = sys.modules.get("eisenlab.quasiforms")
    if quasiforms is not None:
        quasiforms.eis_series.cache_clear()
