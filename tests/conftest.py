import pytest

from shadowcover import bodies, lp


@pytest.fixture
def lp_calls(monkeypatch):
    """Names of the ``lp`` entry points called from here on, in order: ``solve``, whose one
    library caller is ``bodies.point_in_hull``."""
    calls = []
    original = lp.solve
    monkeypatch.setattr(lp, "solve", lambda *a: calls.append("solve") or original(*a))
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

