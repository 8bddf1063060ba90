"""The benchmark tracer resolves every name it patches in the library.

The tracer in ``perfbench/`` wraps jvu functions by name, including the
second bindings that other modules import by value.  A rename or deletion in
``src/jvu`` would otherwise surface only as a crash of a traced benchmark run.
This test only reads ``perfbench/``.
"""

import os
import sys

import jvu.cli  # noqa: F401  (loads every jvu module the tracer scans)

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_tracer_bindings_resolve(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import selftest
    from tracer import Tracer

    tracer = Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    missing = [b for b in selftest.BY_VALUE_BINDINGS if b not in tracer.bindings]
    assert not missing
