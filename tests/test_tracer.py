"""The benchmark's tracer (``perfbench/tracer.py``) wraps functions by the
names the package's modules bind them to.  Installing it here makes a
renamed or removed name fail in this suite, not only in a traced benchmark
run, and uninstalling it must put every original back."""

import importlib.util
from pathlib import Path

from domlab import classify, domination, enumeration, isomorphism, theorems, verify

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
MODULES = (classify, domination, enumeration, isomorphism, theorems, verify)


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _changed(before: dict) -> set[tuple[str, str]]:
    return {
        (m.__name__, name)
        for m in MODULES
        for name, value in vars(m).items()
        if before[m.__name__].get(name) is not value
    }


def test_tracer_install_patches_names_and_uninstall_restores_them():
    before = {m.__name__: dict(vars(m)) for m in MODULES}
    entries = dict(theorems.THEOREMS)
    tracer = _tracer_module().Tracer("test")
    try:
        tracer.install()
        patched = _changed(before)
        assert ("domlab.verify", "parse_graph6") in patched
        assert ("domlab.theorems", "is_minimal_dominating") in patched
        assert ("domlab.domination", "has_isolatable_vertex") in patched
        assert all(theorems.THEOREMS[tid] is not e for tid, e in entries.items())
    finally:
        tracer.uninstall()
    assert _changed(before) == set()
    assert {m.__name__: set(vars(m)) for m in MODULES} == {
        name: set(names) for name, names in before.items()
    }
    assert theorems.THEOREMS.keys() == entries.keys()
    assert all(theorems.THEOREMS[tid] is e for tid, e in entries.items())
