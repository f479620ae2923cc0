import pytest

from shadowcover import lp


@pytest.fixture
def lp_calls(monkeypatch):
    """Names of the ``lp`` entry points called from here on, in order."""
    calls = []
    for name in ("solve", "solve_from", "feasible"):
        original = getattr(lp, name)
        monkeypatch.setattr(lp, name,
                            lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a))
    return calls
