import argparse
import csv
import dataclasses
import errno
import io
import json
import os
import re
import shlex
import stat
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from deta.adaptation import adapt_task
from deta.cli import _adaptation_config, build_parser, main
from deta.episodes import load_episode_file
from deta.errors import DivergenceError
from deta.harness import CellAggregate
from oracles import load_report_json, same_episode, stdlib_episode_bytes


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


@pytest.fixture()
def shuffled_file(tmp_path, episode_file):
    """episode_file with support ids 70, 3, 41, ... stored in reverse order."""
    doc = json.loads(episode_file.read_text())
    for entry, new_id in zip(doc["support"], (70, 3, 41, 12, 99, 5, 64, 28, 17, 50, 8, 33)):
        entry["id"] = new_id
    doc["support"].reverse()
    path = tmp_path / "shuffled.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture()
def five_region_file(tmp_path):
    """An episode storing 5 regions per sample, more than the default k."""
    path = tmp_path / "five.json"
    argv = ["--way", "3", "--shot", "3", "--k-regions", "5", "--dim", "8", "--seed", "5"]
    assert run(["gen", *argv, "--out", str(path)]) == 0
    return path


class TestGen:
    def test_generates_loadable_episode(self, episode_file):
        ep = load_episode_file(episode_file)
        assert ep.way == 3
        assert ep.n_support == 12
        assert len(ep.query_labels) == 12


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
        assert len(doc["final_image_weights"]) == 12

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

    @pytest.mark.parametrize("command", ["adapt", "weights"])
    @pytest.mark.parametrize("case", ["deep-brackets", "deep-support", "long-integer"])
    def test_json_beyond_decoder_limits_exits_config_error(self, tmp_path, capsys, episode_file,
                                                          command, case):
        text = episode_file.read_text()
        if case == "deep-brackets":
            edited, count = "[" * 200_000, 1
        elif case == "deep-support":
            edited, count = re.subn(r'"support"\s*:\s*\[', '"support":' + "[" * 5000 + "]" * 4999 + ",[",
                                    text, count=1)
        else:
            edited, count = re.subn(r"-?\d+\.\d+(e-?\d+)?", "9" * 5000, text, count=1)
        assert count == 1 and edited != text
        text = edited
        bad = tmp_path / f"{case}.json"
        bad.write_text(text)
        out = tmp_path / "out"
        code = run([command, "--episode", str(bad), "--out", str(out)])
        assert code == 2
        assert f"error: {bad}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("way", [10**12, 2_000_000])
    def test_way_beyond_support_exits_config_error_briefly(self, tmp_path, capsys, episode_file, way):
        doc = json.loads(episode_file.read_text())
        doc["way"] = way
        bad = tmp_path / "way.json"
        bad.write_text(json.dumps(doc))
        code = run(["adapt", "--episode", str(bad), "--out", str(tmp_path / "s.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert f"way {way} exceeds the 12 support samples" in err
        assert len(err.encode()) < 1024

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

    def test_blown_up_last_step_is_divergence(self, tmp_path, capsys, episode_file):
        # the only update is the last one, so adapt_task's own checks never see its result
        out = tmp_path / "s.json"
        args = ["adapt", "--episode", str(episode_file), "--out", str(out)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(args + ["--lr", "1e300", "--iterations", "1"])
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert code == 3
        assert "diverged at iteration 1" in capsys.readouterr().err
        assert not out.exists()

    def test_blown_up_last_step_without_queries_is_divergence(self, tmp_path, capsys):
        # nothing is scored, so only the check on the adapted support features sees the update
        episode, out = tmp_path / "episode.json", tmp_path / "s.json"
        assert run(["gen", "--query-shot", "0", "--out", str(episode)]) == 0
        args = ["adapt", "--episode", str(episode), "--out", str(out)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(args + ["--lr", "1e300", "--iterations", "1"])
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert code == 3
        assert "diverged at iteration 1" in capsys.readouterr().err
        assert not out.exists()


def _option_strings(command: str) -> set[str]:
    subcommands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {s for action in subcommands.choices[command]._actions for s in action.option_strings}


def test_adapt_and_weights_take_the_same_flags():
    assert _option_strings("adapt") == _option_strings("weights")
    assert {"--episode", "--out", "--jitter", "--k-regions"} <= _option_strings("adapt")
    assert "--jitter" not in _option_strings("bench")


class TestWeights:
    def test_blown_up_last_step_is_divergence(self, tmp_path, capsys, episode_file):
        out = tmp_path / "weights.csv"
        args = ["weights", "--episode", str(episode_file), "--out", str(out)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(args + ["--lr", "1e300", "--iterations", "1"])
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert code == 3
        assert "diverged at iteration 1" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "source, k_flags",
        [("episode_file", []), ("five_region_file", ["--k-regions", "3"]), ("shuffled_file", [])],
        ids=["fixture", "5-stored-read-at-3", "shuffled"],
    )
    def test_trace_csv_bytes_equal_csv_writer(self, tmp_path, request, source, k_flags):
        episode_file = request.getfixturevalue(source)
        out = tmp_path / "weights.csv"
        argv = ["--iterations", "3", "--embed-dim", "16", "--seed", "4", *k_flags]
        assert run(["weights", "--episode", str(episode_file), "--out", str(out)] + argv) == 0
        args = build_parser().parse_args(["weights", "--episode", "-", "--out", "-"] + argv)
        state = adapt_task(load_episode_file(episode_file), _adaptation_config(args))
        k = args.k_regions
        reference = io.StringIO()
        writer = csv.writer(reference, lineterminator="\n")
        writer.writerow(["iteration", "sample_id", "region_slot", "phi", "psi", "lambda", "omega"])
        for t, record in enumerate(state.trace, start=1):
            table, omega = record.table, record.image_weights
            for sid, pos in sorted((sid, pos) for pos, sid in enumerate(state.sample_ids)):
                for slot in range(k):
                    row = pos * k + slot
                    columns = (table.per_class_phi, table.per_class_psi, table.weights)
                    writer.writerow(
                        [t, sid, slot] + [repr(float(c[row])) for c in columns] + [repr(float(omega[pos]))]
                    )
        assert out.read_bytes() == reference.getvalue().encode("utf-8")

    def test_trace_rows_follow_sample_id_order(self, tmp_path, shuffled_file):
        # support stored out of id order: rows still go by iteration, sample id, slot
        out = tmp_path / "weights.csv"
        code = run(["weights", "--episode", str(shuffled_file), "--out", str(out), "--iterations", "2"])
        assert code == 0
        with open(out) as fh:
            keys = [(int(r[0]), int(r[1]), int(r[2])) for r in list(csv.reader(fh))[1:]]
        assert keys == sorted(keys)
        assert len(set(keys)) == 2 * 12 * 2

    def test_state_weights_match_last_trace_iteration_by_id(self, tmp_path, shuffled_file):
        # the state keys both weight maps by id, in id order, whatever the stored order
        state_path, csv_path = tmp_path / "state.json", tmp_path / "weights.csv"
        argv = ["--episode", str(shuffled_file), "--iterations", "3", "--seed", "11"]
        assert run(["adapt", "--out", str(state_path)] + argv) == 0
        assert run(["weights", "--out", str(csv_path)] + argv) == 0
        with open(csv_path) as fh:
            last = {int(r[1]): float(r[6]) for r in list(csv.reader(fh))[1:] if r[0] == "3"}
        doc = json.loads(state_path.read_text())
        assert list(doc["final_image_weights"]) == [str(sid) for sid in sorted(last)]
        assert {int(sid): w for sid, w in doc["final_image_weights"].items()} == last


def test_episode_file_in_the_old_encoding_gives_the_same_outputs(tmp_path, capsys, episode_file):
    # the same episode in the json.dumps encoding deta wrote before orjson
    episode = load_episode_file(episode_file)
    old = tmp_path / "old.json"
    old.write_bytes(stdlib_episode_bytes(episode))
    assert old.read_bytes() != episode_file.read_bytes()
    assert same_episode(load_episode_file(old), episode)
    capsys.readouterr()
    outputs = []
    for path in (episode_file, old):
        run_outputs = []
        for command in ("adapt", "weights"):
            out = tmp_path / f"{command}.out"
            argv = [command, "--episode", str(path), "--out", str(out), "--iterations", "3", "--seed", "11"]
            assert run(argv) == 0
            run_outputs.append((out.read_bytes(), capsys.readouterr().out))
        outputs.append(run_outputs)
    assert outputs[0] == outputs[1]


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
        assert rows[0] == [f.name for f in dataclasses.fields(CellAggregate)]
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
            ("--jitter", "nan", "jitter"),  # on adapt: only loaded episodes are jittered
        ],
    )
    def test_non_finite_knob_exits_config_error(self, tmp_path, capsys, episode_file, flag, value, knob):
        out = tmp_path / "r.csv"
        adapt = ["adapt", "--episode", str(episode_file), "--out", str(out)]
        assert run((adapt if flag == "--jitter" else self._bench_args(out)) + [flag, value]) == 2
        assert knob in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--query-shot", "0", "query_shot must be >= 1"),
            ("--query-shot", "-1", "query_shot must be >= 1"),
            ("--noise-ratios", "0.3,0.3", "repeated noise ratio"),
        ],
    )
    def test_config_rejected_before_any_episode(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "r.csv"
        args = self._bench_args(out)
        args[args.index(flag) + 1] = value
        assert run(args) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,flag",
        [
            ("bench", "--jitter"),  # only loaded episodes are jittered
            ("bench", "--distractor-mix"),
            ("bench", "--class-separation"),
            ("gen", "--distractor-mix"),
            ("gen", "--class-separation"),
        ],
    )
    def test_flag_is_not_on_the_command(self, tmp_path, capsys, command, flag):
        out = tmp_path / "r.csv"
        args = self._bench_args(out) if command == "bench" else ["gen", "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            run(args + [flag, "0.9"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 0.9" in capsys.readouterr().err
        assert not out.exists()

    def test_uncorruptible_label_cell_fails_alone(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        args = ["bench", "--way", "2", "--shot", "1", "--noise-ratios", "0.1,0.5", "--episodes", "2",
                "--iterations", "2", "--out", str(out)]
        assert run(args) == 3
        printed = capsys.readouterr().out
        assert "label-0.1-1111: " in printed and "(2 ok, 0 failed)" in printed
        assert "label-0.5-1111: baseline=n/a deta=n/a delta=n/a (0 ok, 2 failed)" in printed
        rows = list(csv.DictReader(out.open()))
        assert [(r["cell_id"], r["n_episodes"], r["n_failed"]) for r in rows] == [
            ("label-0.1-1111", "2", "0"),
            ("label-0.5-1111", "0", "2"),
        ]

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

    def test_blown_up_last_step_fails_the_episode(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        args = self._bench_args(out, fmt="json") + ["--lr", "1e300", "--iterations", "1"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(args) == 3
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert "(0 ok, 2 failed)" in capsys.readouterr().out
        report = load_report_json(out)
        assert [e.error.split(":")[0] for e in report.episodes] == ["diverged at iteration 1"] * 2
        assert all(e.deta_accuracy is None for e in report.episodes)

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
        assert report.ablation_mask == "1111,0111"
        assert [c.ablation_mask for c in report.cells] == ["1111", "0111"]
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


_NO_PROCFS = pytest.mark.skipif(
    not os.path.exists("/proc/self/stat"), reason="/proc is not procfs, so a file might be created there"
)


@pytest.mark.parametrize("command", ["bench", "adapt", "weights", "gen"])
@pytest.mark.parametrize(
    "kind",
    [
        "missing-directory",
        "directory",
        "dangling-link",
        pytest.param("proc", marks=_NO_PROCFS),
        "empty",
        "trailing-slash-new",
        "trailing-slash-file",
    ],
)
def test_unwritable_out_exits_before_any_work(tmp_path, capsys, monkeypatch, episode_file, command, kind):
    import deta.cli as cli_module
    import deta.harness as harness_module

    calls = []

    def counted(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, **kw: calls.append(name) or real(*a, **kw))

    counted(harness_module, "run_episode")
    counted(cli_module, "load_episode_file")
    counted(cli_module, "generate_synthetic_episode")
    old = tmp_path / "old.json"
    old.write_bytes(b"old")
    out = {
        "directory": tmp_path,
        "proc": "/proc/r.csv",  # procfs takes no new file, even from root
        "empty": "",  # realpath("") is the working directory
        "trailing-slash-new": f"{tmp_path / 'new'}/",  # realpath drops the "/"
        "trailing-slash-file": f"{old}/",
    }.get(kind, tmp_path / "missing" / "r.csv")
    if kind == "dangling-link":  # the check and the writer both follow it into the missing directory
        out, target = tmp_path / "link.csv", out
        out.symlink_to(target)
    source = {"bench": ["--episodes", "1", "--iterations", "1"], "gen": []}.get(
        command, ["--episode", str(episode_file)]
    )
    assert run([command, "--out", str(out)] + source) == 2
    assert calls == []
    assert capsys.readouterr().err.startswith("error: --out")
    assert old.read_bytes() == b"old"
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("command", ["adapt", "weights"])
@pytest.mark.parametrize("kind", ["same-path", "out-is-symlink", "episode-is-symlink"])
def test_out_naming_the_episode_exits_before_any_work(
    tmp_path, capsys, monkeypatch, episode_file, command, kind
):
    import deta.cli as cli_module

    calls = []
    real = cli_module.load_episode_file
    monkeypatch.setattr(cli_module, "load_episode_file", lambda *a: calls.append(a) or real(*a))
    before = episode_file.read_bytes()
    link = tmp_path / "link.json"
    link.symlink_to(episode_file)
    episode, out = {
        "same-path": (episode_file, episode_file),
        "out-is-symlink": (episode_file, link),
        "episode-is-symlink": (link, episode_file),
    }[kind]
    assert run([command, "--episode", str(episode), "--out", str(out)]) == 2
    assert calls == []
    assert capsys.readouterr().err.startswith("error: --out")
    assert episode_file.read_bytes() == before


class _HalfWrite:
    """A text file whose first write puts half its text on disk, then fails as a full disk."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, text):
        self._fh.write(text[: len(text) // 2])
        self._fh.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


@pytest.mark.parametrize("command", ["adapt", "weights", "bench-csv", "bench-json", "gen"])
@pytest.mark.parametrize("old", [None, b"old output\n"])
def test_failed_write_leaves_old_file_and_no_temporary(tmp_path, capsys, monkeypatch, episode_file,
                                                       command, old):
    import deta.episodes as episodes_module

    real_open = open

    def half_writing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return _HalfWrite(fh) if set(mode) & set("wxa") else fh

    out = tmp_path / "out"
    if old is not None:
        out.write_bytes(old)
    before = sorted(tmp_path.iterdir())
    argv = {
        "bench-csv": ["bench", "--episodes", "1", "--iterations", "1"],
        "bench-json": ["bench", "--episodes", "1", "--iterations", "1", "--format", "json"],
        "gen": ["gen"],
    }.get(command, [command, "--episode", str(episode_file), "--iterations", "2"])
    monkeypatch.setattr(episodes_module, "open", half_writing_open, raising=False)
    assert run(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: [Errno 28]")
    assert sorted(tmp_path.iterdir()) == before
    assert (out.read_bytes() if out.exists() else None) == old


@pytest.mark.parametrize("command", ["adapt", "weights"])
def test_out_naming_a_fifo_writes_through_it(tmp_path, capsys, episode_file, command):
    regular, fifo = tmp_path / "regular", tmp_path / "out.fifo"
    argv = [command, "--episode", str(episode_file), "--iterations", "2", "--out"]
    assert run(argv + [str(regular)]) == 0
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert run(argv + [str(fifo)]) == 0
    reader.join(timeout=30)
    assert received == [regular.read_bytes()]
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([episode_file.name, "out.fifo", "regular"])


@pytest.mark.parametrize("command", ["bench", "gen"])
def test_out_with_a_250_byte_name_is_written(tmp_path, capsys, command):
    # the temporary file beside it must fit too, whatever the output's name
    out = tmp_path / ("r" * 246 + ".csv")
    source = {
        "bench": ["--way", "3", "--shot", "2", "--dim", "4", "--query-shot", "2", "--episodes", "2",
                  "--iterations", "2", "--noise-ratios", "0.1,0.3"],
        "gen": [],
    }[command]
    assert run([command, "--out", str(out)] + source) == 0
    assert capsys.readouterr().err == ""
    assert out.stat().st_size > 0
    assert [p.name for p in tmp_path.iterdir()] == [out.name]


def _run_cli(argv, **kwargs):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, "-m", "deta.cli", *argv], env=env, timeout=120, **kwargs)


_BENCH_ONE = ["bench", "--episodes", "1", "--iterations", "1", "--noise-ratios", "0.3", "--out"]


@pytest.mark.parametrize("out", ["/dev/stdout", "same-file", "/dev/stderr", "same-file-as-stderr"])
def test_out_naming_the_file_stdout_is_redirected_to_exits_before_any_work(tmp_path, out):
    # Replacing that file would drop what the command prints after the report:
    # the summary lines on stdout, or an error line on stderr.
    redirected = tmp_path / "o.txt"
    argv = _BENCH_ONE + [out if out.startswith("/dev/") else str(redirected)]
    stream = "stderr" if "stderr" in out else "stdout"
    with open(redirected, "wb") as fh:
        done = _run_cli(argv, **{"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, stream: fh})
    assert done.returncode == 2
    printed = {"stdout": done.stdout, "stderr": done.stderr, stream: redirected.read_bytes()}
    assert printed["stderr"].decode().startswith("error: --out")
    assert printed["stdout"] == b""
    assert os.listdir(tmp_path) == ["o.txt"]


@pytest.mark.parametrize("stdout", [subprocess.PIPE, subprocess.DEVNULL])
def test_out_naming_stdout_on_a_pipe_or_dev_null_writes_in_place(stdout):
    out = "/dev/null" if stdout == subprocess.DEVNULL else "/dev/stdout"
    done = _run_cli(_BENCH_ONE + [out], stdout=stdout, stderr=subprocess.PIPE)
    assert done.returncode == 0, done.stderr
    if stdout == subprocess.PIPE:
        assert done.stdout.startswith(b"cell_id,noise_type,")
        assert done.stdout.endswith(b"(1 ok, 0 failed)\n")


def test_out_naming_stderr_on_a_pipe_writes_in_place():
    done = _run_cli(_BENCH_ONE + ["/dev/stderr"], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert done.returncode == 0, done.stderr
    assert done.stderr.startswith(b"cell_id,noise_type,")
    assert done.stdout.endswith(b"(1 ok, 0 failed)\n")


def test_nesting_past_the_stack_is_refused_in_a_subprocess(tmp_path):
    # orjson overflows the C stack on nesting like this, which kills the
    # process by SIGSEGV; the loader must leave such text to Python's json.
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 200_000 + "]" * 200_000)
    argv = ["adapt", "--episode", str(bad), "--out", str(tmp_path / "s.json")]
    done = _run_cli(argv, capture_output=True, text=True)
    assert done.returncode == 2, (done.returncode, done.stderr[-2000:])
    assert done.stderr.startswith(f"error: {bad}: maximum recursion depth exceeded")
    assert not (tmp_path / "s.json").exists()


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
