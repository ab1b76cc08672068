import hypothesis
import pytest

from eisenlab import quasiforms
from eisenlab.quasiforms import EisBasis

hypothesis.settings.register_profile(
    "eisenlab",
    max_examples=25,
    deadline=None,
)
hypothesis.settings.load_profile("eisenlab")


@pytest.fixture
def basis_builds(monkeypatch):
    """The (weight, level, truncation) of every `EisBasis` built during the
    test; `eis_basis` stops caching, so each basis asked for is built."""
    builds = []
    real_init = EisBasis.__init__

    def init(self, weight, level, truncation):
        builds.append((weight, level, truncation))
        real_init(self, weight, level, truncation)

    monkeypatch.setattr(EisBasis, "__init__", init)
    monkeypatch.setattr(quasiforms, "eis_basis", quasiforms.eis_basis.__wrapped__)
    return builds
