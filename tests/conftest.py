import pytest

from shadowcover import bodies, lp


@pytest.fixture
def lp_calls(monkeypatch):
    """Names of the ``lp`` entry points called from here on, in order."""
    calls = []
    for name in ("solve", "solve_from"):
        original = getattr(lp, name)
        monkeypatch.setattr(lp, name,
                            lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a))
    return calls


@pytest.fixture
def hull_calls(monkeypatch):
    """Point counts of the hulls built from here on, in every dimension by the
    one Quickhull (``bodies._hull``)."""
    calls = []
    original = bodies._hull
    monkeypatch.setattr(bodies, "_hull",
                        lambda p, *frame: calls.append(len(p)) or original(p, *frame))
    return calls

