import os
from types import SimpleNamespace

import pytest


@pytest.fixture
def affinity(monkeypatch):
    """A fake affinity set, {0, 1} until ``affinity.cpus`` is set: os.sched_getaffinity
    returns it, and os.sched_setaffinity replaces it and appends the new set to
    ``affinity.pins`` instead of pinning the test process.  A forked child changes only
    its own copy."""
    fake = SimpleNamespace(cpus={0, 1}, pins=[])

    def pin(pid, cpus):
        fake.pins.append(set(cpus))
        fake.cpus = set(cpus)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(fake.cpus))
    monkeypatch.setattr(os, "sched_setaffinity", pin)
    return fake
