"""The perfbench tracer still finds every function it traces.

``perfbench/tracing.py`` wraps named qcausal functions wherever the package
holds them and raises when a name has moved or is gone, so a refactor that
renames a traced function shows up here rather than only in a traced
benchmark run.
"""

import importlib.util
from pathlib import Path

from qcausal import causality, cli

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_traced_name():
    tracing = _load_tracing()
    original = causality.operator_schmidt_values
    tracer = tracing.Tracer()
    # set before install, so that uninstall can also undo a partial install
    tracer._table_info = tracing._base_table_info()
    try:
        tracer.install()  # raises if a traced name cannot be found
        assert causality.operator_schmidt_values is not original
        assert cli.operator_schmidt_values is causality.operator_schmidt_values
    finally:
        tracer.uninstall()
    assert causality.operator_schmidt_values is original
    assert cli.operator_schmidt_values is original
