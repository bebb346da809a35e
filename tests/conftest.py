import sys
from pathlib import Path

import pytest

# make the shared oracle helpers importable from every test module
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def table_builds(monkeypatch):
    """``table_builds(module)`` records the edges of every ``SmoothCumulative``
    that ``module`` builds from then on in the returned list."""

    def patch(module):
        built = []

        class Counted(module.SmoothCumulative):
            def __init__(self, edges, values, right=False):
                built.append(edges)
                super().__init__(edges, values, right)

        monkeypatch.setattr(module, "SmoothCumulative", Counted)
        return built

    return patch
