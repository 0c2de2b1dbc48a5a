"""The benchmark tracer still finds every library function it wraps.

``perfbench/tracer.py`` wraps library functions by name in every module
namespace that holds them and raises ``TraceTargetMissing`` when a name is
gone.  Here it is loaded from its source (read only, no bytecode written),
installed on the package and uninstalled again, so that a rename or a
deletion in the library fails tier-1 rather than only a traced benchmark
run (``perfbench/run.py --trace 1``).
"""

import types
from pathlib import Path

from ballfourier import verify

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_module():
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


def test_install_finds_every_target_and_uninstall_restores_it():
    tracer = _tracer_module()
    modules = tracer.library_modules("ballfourier")
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    before = [dict(vars(m)) for m in modules]
    suites = dict(verify._SUITES)
    spans = tracer.Tracer()
    try:
        spans.install("ballfourier")
        for _, module, attr, _ in tracer.layer_targets(by_name["quadrature"]):
            assert hasattr(getattr(by_name[module], attr), "__wrapped__"), (module, attr)
        assert all(hasattr(runner, "__wrapped__") for runner in verify._SUITES.values())
    finally:
        spans.uninstall()
    assert [dict(vars(m)) for m in modules] == before
    assert verify._SUITES == suites
