"""The benchmark's tracer (``perfbench/tracer.py``) wraps pairedk functions
by name, so renaming or deleting one of them breaks ``perfbench/run.py
--trace`` with a KeyError or AttributeError; this test catches it first."""

import pairedk  # noqa: F401  (binds the modules the targets name)
import pairedk.cli  # noqa: F401
import tracer  # from perfbench/, which conftest.py puts on the path


def test_every_tracer_target_is_bound():
    missing = []
    for name, owner, attr in tracer.TARGETS:
        try:
            getattr(tracer._owner(owner), attr)
        except (KeyError, AttributeError) as exc:
            missing.append(f"{name}: {owner}.{attr} ({type(exc).__name__})")
    assert not missing, missing
