import csv
import json
import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from deta.cli import build_parser, main
from deta.episodes import load_episode_file
from deta.errors import DivergenceError
from deta.harness import CSV_COLUMNS, load_report_json


def run(argv):
    return main(argv)


@pytest.fixture()
def episode_file(tmp_path):
    path = tmp_path / "episode.json"
    code = run(
        [
            "gen",
            "--way", "3",
            "--shot", "4",
            "--k-regions", "2",
            "--dim", "12",
            "--query-shot", "4",
            "--label-noise", "0.3",
            "--seed", "3",
            "--out", str(path),
        ]
    )
    assert code == 0
    return path


class TestGen:
    def test_generates_loadable_episode(self, episode_file):
        ep = load_episode_file(episode_file)
        assert ep.way == 3
        assert ep.n_support == 12
        assert len(ep.queries) == 12


class TestAdapt:
    def test_writes_state_json(self, tmp_path, episode_file):
        out = tmp_path / "state.json"
        code = run(
            [
                "adapt",
                "--episode", str(episode_file),
                "--out", str(out),
                "--iterations", "3",
                "--embed-dim", "16",
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["iterations"] == 3
        assert len(doc["omega"]) == 12

    def test_missing_episode_file(self, tmp_path):
        code = run(["adapt", "--episode", str(tmp_path / "nope.json"), "--out", str(tmp_path / "s.json")])
        assert code == 2

    def test_episode_path_is_a_directory(self, tmp_path, capsys):
        code = run(["adapt", "--episode", str(tmp_path), "--out", str(tmp_path / "s.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_episode_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        code = run(["adapt", "--episode", str(bad), "--out", str(tmp_path / "s.json")])
        assert code == 2

    def test_non_utf8_episode_file(self, tmp_path, capsys):
        bad = tmp_path / "random.json"
        bad.write_bytes(np.random.default_rng(0).bytes(100))
        code = run(["adapt", "--episode", str(bad), "--out", str(tmp_path / "s.json")])
        assert code == 2
        assert "random.json: not UTF-8" in capsys.readouterr().err

    def test_feature_integer_beyond_float_range(self, tmp_path, capsys, episode_file):
        doc = json.loads(episode_file.read_text())
        doc["support"][2]["regions"][1][0] = 10**400
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps(doc))
        code = run(["adapt", "--episode", str(bad), "--out", str(tmp_path / "s.json")])
        assert code == 2
        sid = doc["support"][2]["id"]
        assert f"support sample {sid}, region 1: feature value out of float range" in capsys.readouterr().err

    def test_zero_region_row_is_an_input_error(self, tmp_path, capsys, episode_file):
        doc = json.loads(episode_file.read_text())
        doc["support"][0]["regions"][1] = [0.0] * doc["feature_dim"]
        bad = tmp_path / "zero.json"
        bad.write_text(json.dumps(doc))
        code = run(
            ["adapt", "--episode", str(bad), "--out", str(tmp_path / "s.json"), "--jitter", "0"]
        )
        assert code == 2
        assert "zero-norm region feature at row 1" in capsys.readouterr().err

    def test_divergence_exit_code(self, tmp_path, episode_file, monkeypatch):
        import deta.cli as cli_module

        def explode(episode, cfg):
            raise DivergenceError("boom", iteration=1)

        monkeypatch.setattr(cli_module, "adapt_task", explode)
        code = run(["adapt", "--episode", str(episode_file), "--out", str(tmp_path / "s.json")])
        assert code == 3


class TestWeights:
    def test_trace_csv(self, tmp_path, episode_file):
        out = tmp_path / "weights.csv"
        code = run(
            [
                "weights",
                "--episode", str(episode_file),
                "--out", str(out),
                "--iterations", "4",
                "--embed-dim", "16",
            ]
        )
        assert code == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "sample_id", "region_slot", "phi", "psi", "lambda", "omega"]
        assert len(rows) == 1 + 4 * 12 * 2
        assert {r[0] for r in rows[1:]} == {"1", "2", "3", "4"}


    def test_trace_rows_follow_sample_id_order(self, tmp_path, episode_file):
        # support stored out of id order: rows still go by iteration, sample id, slot
        doc = json.loads(episode_file.read_text())
        for entry, new_id in zip(doc["support"], (70, 3, 41, 12, 99, 5, 64, 28, 17, 50, 8, 33)):
            entry["id"] = new_id
        doc["support"].reverse()
        shuffled = tmp_path / "shuffled.json"
        shuffled.write_text(json.dumps(doc))
        out = tmp_path / "weights.csv"
        code = run(["weights", "--episode", str(shuffled), "--out", str(out), "--iterations", "2"])
        assert code == 0
        with open(out) as fh:
            keys = [(int(r[0]), int(r[1]), int(r[2])) for r in list(csv.reader(fh))[1:]]
        assert keys == sorted(keys)
        assert len(set(keys)) == 2 * 12 * 2


class TestBench:
    def _bench_args(self, out, fmt="csv"):
        return [
            "bench",
            "--way", "3",
            "--shot", "4",
            "--dim", "12",
            "--query-shot", "4",
            "--noise-type", "label",
            "--noise-ratios", "0.3",
            "--episodes", "2",
            "--iterations", "2",
            "--embed-dim", "16",
            "--seed", "5",
            "--out", str(out),
            "--format", fmt,
        ]

    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        assert run(self._bench_args(out)) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(CSV_COLUMNS)
        assert len(rows) == 2
        printed = capsys.readouterr().out
        assert "baseline=" in printed

    def test_json_output(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(self._bench_args(out, fmt="json")) == 0
        report = load_report_json(out)
        assert len(report.episodes) == 2

    def test_repeat_runs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(self._bench_args(a)) == 0
        assert run(self._bench_args(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_ratio_exits_config_error(self, tmp_path):
        args = self._bench_args(tmp_path / "r.csv")
        args[args.index("--noise-ratios") + 1] = "1.5"
        assert run(args) == 2

    @pytest.mark.parametrize(
        "flag,value,knob",
        [
            ("--lr", "nan", "learning_rate"),
            ("--tau", "inf", "tau"),
            ("--pi", "nan", "pi"),
            ("--beta", "inf", "beta"),
            ("--jitter", "nan", "jitter"),
            ("--class-separation", "nan", "class_separation"),
        ],
    )
    def test_non_finite_knob_exits_config_error(self, tmp_path, capsys, flag, value, knob):
        out = tmp_path / "r.csv"
        assert run(self._bench_args(out) + [flag, value]) == 2
        assert knob in capsys.readouterr().err
        assert not out.exists()

    def test_blown_up_episodes_fail_alone(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        args = self._bench_args(out, fmt="json") + ["--lr", "1e100", "--iterations", "10"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(args) == 3
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert "(0 ok, 2 failed)" in capsys.readouterr().out
        report = load_report_json(out)
        assert [e.failed for e in report.episodes] == [True, True]
        assert all(e.error.startswith("diverged at iteration") for e in report.episodes)

    def test_unknown_ablation_rejected_by_parser(self, tmp_path):
        for value in ("bogus", "full,bogus", "full,full", ""):
            args = self._bench_args(tmp_path / "r.csv") + ["--ablation", value]
            with pytest.raises(SystemExit) as exc:
                run(args)
            assert exc.value.code == 2, value

    def test_ablation_list_concatenates_single_preset_rows(self, tmp_path):
        def data_rows(out, ablation):
            assert run(self._bench_args(out) + ["--ablation", ablation]) == 0
            return out.read_text().splitlines(keepends=True)[1:]

        both = data_rows(tmp_path / "both.csv", "full,no-cora")
        full = data_rows(tmp_path / "full.csv", "full")
        no_cora = data_rows(tmp_path / "no-cora.csv", "no-cora")
        assert len(full) == len(no_cora) == 1
        assert both == full + no_cora

    def test_ablation_list_json_round_trips(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(self._bench_args(out, fmt="json") + ["--ablation", "full,no-cora"]) == 0
        report = load_report_json(out)
        assert report.ablation_mask == "11111,01111"
        assert [c.ablation_mask for c in report.cells] == ["11111", "01111"]
        assert [e.seed for e in report.episodes[:2]] == [e.seed for e in report.episodes[2:]]

    def test_all_cells_divergent_exit_code(self, tmp_path, monkeypatch):
        import deta.harness as harness_module

        def explode(episode, cfg):
            raise DivergenceError("boom", iteration=1)

        monkeypatch.setattr(harness_module, "adapt_task", explode)
        assert run(self._bench_args(tmp_path / "r.csv")) == 3

    def test_ablation_presets_accepted(self, tmp_path):
        for preset in ("full", "no-cora", "no-local", "no-global", "no-ma"):
            out = tmp_path / f"{preset}.csv"
            args = self._bench_args(out) + ["--ablation", preset]
            assert run(args) == 0


def test_readme_commands_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```sh\n(.*?)```", readme, flags=re.S)
    lines = [line.strip() for line in "\n".join(blocks).replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line, comments=True) for line in lines]
    commands = [argv for argv in commands if argv]
    assert not [argv for argv in commands if argv[0] == "python"], "README runs a script"
    deta = [argv for argv in commands if argv[0] == "deta"]
    assert deta
    parser = build_parser()
    for argv in deta:
        parser.parse_args(argv[1:])
