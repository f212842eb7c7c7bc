"""The benchmark's tracer can hook every layer it names.

`perfbench/tracer.py` wraps program functions under the names their
callers use (`engine.canonical`, `subst.beta_normal`, ...).  A renamed or
removed name would only show as a crash of a traced benchmark run; here
it fails a test instead."""

import importlib
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    tracer = importlib.import_module("tracer")
    # the module map of run.load_program, without re-importing the program
    mods = {name.rsplit(".", 1)[-1]: importlib.import_module(f"hounif.{name}")
            for name in run.MODULES}
    before = {name: dict(vars(mod)) for name, mod in mods.items()}
    t = tracer.Tracer(mods)
    try:
        t.install()
        assert mods["engine"].canonical is not before["engine"]["canonical"]
    finally:
        t.uninstall()
    for name, mod in mods.items():
        for attr, value in before[name].items():
            assert vars(mod)[attr] is value, (name, attr)
