"""The benchmark's tracer and output checks still fit the package they run.

perfbench/tracing.py wraps deta functions by name and checks the calls that
adapt_task makes in each iteration; perfbench/workloads.py checks the files
and reports deta writes. A renamed function, a changed call pattern or a
changed output format must fail here, not only in benchmark runs.
"""

import importlib.util
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

import deta.adaptation
import deta.classifier
import deta.cli
import deta.episodes
import deta.errors
import deta.harness
import deta.losses
import deta.relevance
from deta.adaptation import AdaptationConfig
from deta.harness import BenchmarkConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def snapshot(owners):
    return {owner: dict(vars(owner)) for owner in owners}


@pytest.mark.parametrize("preset", list(deta.harness.ABLATION_PRESETS))
def test_traced_episode_keeps_the_tracer_contract(preset):
    mods = types.SimpleNamespace(
        adaptation=deta.adaptation,
        classifier=deta.classifier,
        cli=deta.cli,
        errors=deta.errors,
        harness=deta.harness,
        losses=deta.losses,
        relevance=deta.relevance,
    )
    owners = (*vars(mods).values(), deta.relevance.RegionIndex, deta.relevance.RegionWeightTable)
    before = snapshot(owners)
    tracer = load_tracing().Tracer(mods)
    cfg = BenchmarkConfig(
        way=3,
        shot=4,
        feature_dim=12,
        query_shot=5,
        noise_ratios=(0.3,),
        episodes_per_cell=1,
        adaptation=AdaptationConfig(iterations=3, embed_dim=16),
        ablation=deta.harness.ABLATION_PRESETS[preset],
    )
    tracer.install()
    try:
        report = deta.harness.run_episode(cfg, 0.3, 0, 0)
    finally:
        tracer.remove()

    assert not report.failed
    assert tracer.structure_errors() == []
    calls = tracer.summary()["calls"]
    assert calls["episodes.resample"] == 3
    assert tracer.counts["relevance.region_index_hash"] == 0
    assert tracer.counts["classifier.classify"] <= 2
    after = snapshot(owners)
    for owner in owners:
        assert after[owner].keys() == before[owner].keys()
        for name, value in before[owner].items():
            assert after[owner][name] is value, f"{owner.__name__}.{name} not restored"


def test_traced_file_commands_keep_the_tracer_contract(tmp_path, capsys):
    mods = types.SimpleNamespace(
        adaptation=deta.adaptation,
        classifier=deta.classifier,
        cli=deta.cli,
        errors=deta.errors,
        harness=deta.harness,
        losses=deta.losses,
        relevance=deta.relevance,
    )
    owners = (*vars(mods).values(), deta.relevance.RegionIndex, deta.relevance.RegionWeightTable)
    episode = tmp_path / "episode.json"
    gen = ["gen", "--way", "3", "--shot", "4", "--k-regions", "5", "--dim", "12",
           "--query-shot", "5", "--label-noise", "0.3", "--seed", "2", "--out", str(episode)]
    assert deta.cli.main(gen) == 0
    before = snapshot(owners)
    tracer = load_tracing().Tracer(mods)
    iterations = 3
    tracer.install()
    try:
        codes = [
            deta.cli.main([command, "--episode", str(episode), "--out", str(tmp_path / out),
                           "--iterations", str(iterations), "--embed-dim", "16"])
            for command, out in (("adapt", "state.json"), ("weights", "weights.csv"))
        ]
    finally:
        tracer.remove()

    assert codes == [0, 0]
    assert tracer.structure_errors() == []
    calls = tracer.summary()["calls"]
    assert calls["cli.main"] == 2
    assert calls["episodes.load"] == 2
    adapt_spans = [span[0] for span in tracer.spans if span[3] == "adaptation.adapt_task"]
    resamples = Counter(span[1] for span in tracer.spans if span[3] == "episodes.resample")
    assert [resamples[sid] for sid in adapt_spans] == [iterations, iterations]
    after = snapshot(owners)
    for owner in owners:
        assert after[owner].keys() == before[owner].keys()
        for name, value in before[owner].items():
            assert after[owner][name] is value, f"{owner.__name__}.{name} not restored"


@pytest.fixture()
def workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look up their module by name
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["file-roundtrip", "acceptance-mix"])
def test_benchmark_output_checks_accept_what_deta_writes(workloads, tmp_path, name):
    mods = types.SimpleNamespace(cli=deta.cli, episodes=deta.episodes, harness=deta.harness)
    workload = workloads.WORKLOADS[name]()
    workload.setup(mods, 1, tmp_path)
    outcome = workload.check(0, workload.op(0))
    assert (outcome.ok, outcome.valid) == (True, True), outcome.error
