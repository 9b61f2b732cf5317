import pytest

import endspec.closure
import endspec.experiments


@pytest.fixture
def experiment_solves(monkeypatch):
    """(Im z, unknowns, policy kind) of every ``resolve`` call made from
    ``endspec.experiments`` and ``endspec.closure``, in call order."""
    seen = []
    original = endspec.experiments.resolve

    def recording(op, *args, **kwargs):
        seen.append((op.z.imag, op.n_unknowns, op.policy.kind))
        return original(op, *args, **kwargs)

    for module in (endspec.experiments, endspec.closure):
        monkeypatch.setattr(module, "resolve", recording)
    return seen
