import pytest
from hypothesis import HealthCheck, settings

from exturan.counting import HostIndex

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def index_builds(monkeypatch):
    """The ``edges`` argument of every ``HostIndex`` built while the test runs."""
    built = []
    init = HostIndex.__init__

    def spy(index, n, edges=()):
        built.append(edges)
        init(index, n, edges)

    monkeypatch.setattr(HostIndex, "__init__", spy)
    return built
