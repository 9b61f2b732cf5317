import pytest

import endspec.experiments


@pytest.fixture
def experiment_solves(monkeypatch):
    """(Im z, unknowns, policy kind) of every ``resolve`` call made from
    ``endspec.experiments``, in call order."""
    seen = []
    original = endspec.experiments.resolve

    def recording(op, *args, **kwargs):
        seen.append((op.z.imag, op.n_unknowns, op.policy.kind))
        return original(op, *args, **kwargs)

    monkeypatch.setattr(endspec.experiments, "resolve", recording)
    return seen
