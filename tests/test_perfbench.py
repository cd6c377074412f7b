"""perfbench's per-layer tracer (`perfbench/run.py --trace 1`) still finds
every layer that it patches in the package."""

from pathlib import Path

from conftest import initial_state

import matrixcode as mc

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_the_per_layer_tracer_installs_on_the_package(monkeypatch, corpus):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    primes, decnum = corpus["primes"].matrix, corpus["decnum"].matrix
    tracer = tracing.Tracer()
    tracer.install(mc)
    try:
        patched = {original for _owner, _key, original in tracer._patches}
        mc.run(primes, initial_state(primes, N=3))
        mc.enumerate_runs(decnum, initial_state(decnum, left=[-1, 1, 2, 3]), 6)
        tracer.fold()
    finally:
        tracer.uninstall()
    for mod, attr, _kind, _own in tracing.LAYERS:
        owner = getattr(mc, mod)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert owner in patched, (mod, attr)
    for layer in ("interpreter.step", "interpreter.run", "interpreter.enumerate_runs"):
        assert tracer.calls[tracer.layers.index(layer)] > 0, layer
