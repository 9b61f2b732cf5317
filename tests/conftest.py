import pytest

import endspec.experiments


@pytest.fixture
def experiment_solves(monkeypatch):
    """(Im z, unknowns, policy kind) of every ``Resolvent`` and ``resolve``
    call made from ``endspec.experiments``, in call order."""
    seen = []
    for name in ("Resolvent", "resolve"):
        original = getattr(endspec.experiments, name)

        def recording(op, *args, original=original, **kwargs):
            seen.append((op.z.imag, op.n_unknowns, op.policy.kind))
            return original(op, *args, **kwargs)

        monkeypatch.setattr(endspec.experiments, name, recording)
    return seen
