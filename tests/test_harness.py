import csv
import dataclasses
import io
import json

import numpy as np
import pytest

from deta.adaptation import AdaptationConfig
from deta.errors import DivergenceError, InvalidParameterError
from deta.harness import (
    ABLATION_PRESETS,
    AblationFlags,
    AggregateReport,
    BenchmarkConfig,
    CellAggregate,
    emit_report,
    run_benchmark,
)
from oracles import load_report_json


def tiny_config(**kw):
    defaults = dict(
        way=3,
        shot=4,
        k_regions=2,
        feature_dim=12,
        query_shot=5,
        noise_type="label",
        noise_ratios=(0.3,),
        episodes_per_cell=3,
        adaptation=AdaptationConfig(iterations=3, embed_dim=16),
        master_seed=5,
    )
    defaults.update(kw)
    return BenchmarkConfig(**defaults)


class TestRunBenchmark:
    def test_episode_and_cell_counts(self):
        report = run_benchmark(tiny_config(episodes_per_cell=1))
        assert len(report.episodes) == 1
        assert len(report.cells) == 1
        assert report.cells[0].n_episodes == 1
        assert report.cells[0].n_failed == 0

    def test_all_components_off_reduces_to_baseline(self):
        report = run_benchmark(tiny_config(ablation=ABLATION_PRESETS["off"], episodes_per_cell=4))
        for ep in report.episodes:
            assert ep.deta_accuracy == ep.baseline_accuracy
        assert report.cells[0].delta_mean == 0.0

    def test_baseline_independent_of_ablation(self):
        full = run_benchmark(tiny_config())
        ablated = run_benchmark(tiny_config(ablation=ABLATION_PRESETS["no-cora"]))
        assert [e.baseline_accuracy for e in full.episodes] == [
            e.baseline_accuracy for e in ablated.episodes
        ]
        assert [e.seed for e in full.episodes] == [e.seed for e in ablated.episodes]

    def test_noise_type_none_single_cell(self):
        report = run_benchmark(tiny_config(noise_type="none", noise_ratios=(0.1, 0.5)))
        assert len(report.cells) == 1
        assert report.cells[0].noise_ratio == 0.0
        assert all(tag == "clean" for ep in report.episodes for tag in ep.noise_tags.values())

    def test_omega_separation_recorded(self):
        report = run_benchmark(tiny_config(episodes_per_cell=4))
        cell = report.cells[0]
        assert cell.omega_separation is not None
        assert 0.0 <= cell.omega_separation_positive_fraction <= 1.0

    def test_divergent_episodes_counted_not_raised(self, monkeypatch):
        import deta.harness as harness_module

        def explode(episode, cfg):
            raise DivergenceError("boom", iteration=2)

        monkeypatch.setattr(harness_module, "adapt_task", explode)
        report = run_benchmark(tiny_config(episodes_per_cell=2))
        cell = report.cells[0]
        assert cell.n_episodes == 0
        assert cell.n_failed == 2
        assert cell.deta_mean is None
        for ep in report.episodes:
            assert ep.failed
            assert "iteration 2" in ep.error
            assert ep.baseline_accuracy is not None

    def test_uncorruptible_labels_fail_their_episodes_not_the_sweep(self):
        # One wrong label in a 2-way 1-shot episode always empties a class; at 0.1 none is wrong.
        report = run_benchmark(tiny_config(way=2, shot=1, noise_ratios=(0.1, 0.5), episodes_per_cell=2))
        assert [(c.cell_id, c.n_episodes, c.n_failed) for c in report.cells] == [
            ("label-0.1-1111", 2, 0),
            ("label-0.5-1111", 0, 2),
        ]
        for ep in report.episodes[2:]:
            assert ep.failed
            assert ep.error == "could not corrupt 1/2 labels without emptying a class"
            assert ep.baseline_accuracy is None and ep.noise_tags == {}

    def test_config_validation(self):
        with pytest.raises(InvalidParameterError):
            tiny_config(noise_type="salt")
        with pytest.raises(InvalidParameterError):
            tiny_config(episodes_per_cell=0)
        with pytest.raises(InvalidParameterError):
            tiny_config(noise_ratios=(0.2, 1.5))
        with pytest.raises(InvalidParameterError):
            tiny_config(noise_ratios=())
        for query_shot in (0, -1):
            with pytest.raises(InvalidParameterError, match="query_shot must be >= 1"):
                tiny_config(query_shot=query_shot)
        for noise_type in ("label", "none"):
            with pytest.raises(InvalidParameterError, match="repeated noise ratio"):
                tiny_config(noise_type=noise_type, noise_ratios=(0.3, 0.1, 0.3))

    def test_ci_halves_when_episodes_quadruple(self):
        base = tiny_config(
            way=5,
            shot=5,
            feature_dim=16,
            query_shot=10,
            adaptation=AdaptationConfig(iterations=1, learning_rate=0.0, embed_dim=8),
        )
        small = run_benchmark(
            BenchmarkConfig(**{**base.__dict__, "episodes_per_cell": 40})
        )
        large = run_benchmark(
            BenchmarkConfig(**{**base.__dict__, "episodes_per_cell": 160})
        )
        ci_small = small.cells[0].baseline_ci95
        ci_large = large.cells[0].baseline_ci95
        assert abs(ci_large - ci_small / 2.0) <= 0.2 * (ci_small / 2.0)


class TestEmitReport:
    def test_csv_schema_and_determinism(self, tmp_path):
        cfg = tiny_config()
        report = run_benchmark(cfg)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_report(report, "csv", p1)
        emit_report(run_benchmark(cfg), "csv", p2)
        assert p1.read_bytes() == p2.read_bytes()
        with open(p1) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "cell_id",
            "noise_type",
            "noise_ratio",
            "ablation_mask",
            "n_episodes",
            "n_failed",
            "baseline_mean",
            "baseline_ci95",
            "deta_mean",
            "deta_ci95",
            "delta_mean",
            "omega_separation",
            "omega_separation_positive_fraction",
        ]
        assert all(len(r) == len(rows[0]) for r in rows)

    def test_empty_report_header_only(self, tmp_path):
        empty = AggregateReport(master_seed=0, ablation_mask="1111", cells=[], episodes=[])
        path = tmp_path / "empty.csv"
        emit_report(empty, "csv", path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("cell_id,")

    def test_json_round_trip(self, tmp_path):
        report = run_benchmark(tiny_config(episodes_per_cell=2))
        path = tmp_path / "report.json"
        emit_report(report, "json", path)
        assert load_report_json(path) == report

    def test_csv_golden_bytes(self, tmp_path):
        ok = CellAggregate(
            "label-0.3-1111", "label", 0.3, "1111", 3, 0,
            0.5, 0.1, 2 / 3, 0.05, 2 / 3 - 0.5, 0.25, 1.0,
        )
        diverged = CellAggregate(
            "label-0.5-1111", "label", 0.5, "1111", 0, 3,
            None, None, None, None, None, None, None,
        )
        report = AggregateReport(master_seed=5, ablation_mask="1111", cells=[ok, diverged], episodes=[])
        path = tmp_path / "golden.csv"
        emit_report(report, "csv", path)
        assert path.read_bytes() == (
            b"cell_id,noise_type,noise_ratio,ablation_mask,n_episodes,n_failed,baseline_mean,"
            b"baseline_ci95,deta_mean,deta_ci95,delta_mean,omega_separation,"
            b"omega_separation_positive_fraction\n"
            b"label-0.3-1111,label,0.3,1111,3,0,0.5,0.1,0.6666666666666666,0.05,0.16666666666666663,0.25,1.0\n"
            b"label-0.5-1111,label,0.5,1111,0,3,,,,,,,\n"
        )

    def test_csv_bytes_equal_csv_writer(self, tmp_path):
        report = run_benchmark(tiny_config(noise_ratios=(0.1, 0.3)))
        diverged = CellAggregate(
            "label-0.5-1111", "label", 0.5, "1111", 0, 3, None, None, None, None, None, None, None,
        )
        report.cells.append(diverged)
        path = tmp_path / "report.csv"
        emit_report(report, "csv", path)
        reference = io.StringIO()
        writer = csv.writer(reference, lineterminator="\n")
        writer.writerow(f.name for f in dataclasses.fields(CellAggregate))
        writer.writerows(dataclasses.astuple(cell) for cell in report.cells)
        assert path.read_bytes() == reference.getvalue().encode("utf-8")
        assert path.read_bytes().endswith(b",0,3,,,,,,,\n")

    def test_json_bytes_are_the_indented_dataclass(self, tmp_path):
        report = run_benchmark(tiny_config(episodes_per_cell=2))
        path = tmp_path / "report.json"
        emit_report(report, "json", path)
        assert path.read_text(encoding="utf-8") == json.dumps(dataclasses.asdict(report), indent=2) + "\n"

    def test_unknown_format(self, tmp_path):
        report = AggregateReport(master_seed=0, ablation_mask="1111", cells=[], episodes=[])
        with pytest.raises(InvalidParameterError):
            emit_report(report, "yaml", tmp_path / "x.yaml")


class TestAblationFlags:
    def test_masks(self):
        assert AblationFlags().mask() == "1111"
        assert ABLATION_PRESETS["no-cora"].mask() == "0111"
        assert ABLATION_PRESETS["no-local"].mask() == "1011"
        assert ABLATION_PRESETS["no-global"].mask() == "1101"
        assert ABLATION_PRESETS["no-ma"].mask() == "1110"
        assert ABLATION_PRESETS["off"].mask() == "0000"
