"""perfbench still works on the package: its per-layer tracer
(`perfbench/run.py --trace 1`) finds every layer that it patches, and its
output checks reject the wrong outputs of `perfbench/selfcheck.py`."""

from pathlib import Path

import pytest

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


def test_the_benchmark_rejects_a_wrong_prime_table_or_final_tape(monkeypatch):
    # perfbench/selfcheck.py for the two run_arrays ops, on the package
    # already imported: run.set_up would import a second copy of it
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import selfcheck
    import workloads

    workload = workloads.make("run_arrays", selfcheck.SEED, PERFBENCH.parent)
    parsed = {key: mc.parse(text, filename=name)
              for key, (text, name) in workload.sources.items()}
    ops = {op.label: op for op in workload.build(mc, parsed)}
    for label in ("primes N=25", "turing 30"):
        op = ops[label]
        op.check(op.call())
        for _what, mutate in selfcheck.mutations(op, mc):
            result = op.call()
            changed = mutate(result)
            with pytest.raises(workloads.WrongAnswer):
                op.check(result if changed is None else changed)
