"""Rewrite the golden outputs under tests/golden/ from the current tree.

    PYTHONPATH=src python tests/regen_golden.py

Each case runs one `deta` command in a scratch directory, with relative
paths, and keeps its output file and its stdout. test_golden.py reruns the
same cases and compares bytes. A declared output change reruns this script
in the same change and lists each rewritten file in CHANGES.md.

Float bytes depend on numpy, on the BLAS, on its thread count and on the
CPU's kernels, so the set records the machine it was made on in
MACHINE.json, with the CPUs the process may use and the BLAS thread
variables that perfbench pins. The set is made with none of them set, so
under OpenBLAS's default threading.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import platform
import shutil
import tempfile
from pathlib import Path

import numpy as np
import orjson

from deta.cli import main
from deta.harness import ABLATION_PRESETS

GOLDEN = Path(__file__).resolve().parent / "golden"
PERFBENCH_RUN = GOLDEN.parents[1] / "perfbench" / "run.py"
MACHINE = "MACHINE.json"
# Hand-written: two classes, support ids stored out of order, 3 or 4 stored regions per sample.
SHUFFLED = "shuffled-episode.json"

_SHAPE = ["--way", "3", "--shot", "4", "--dim", "12", "--query-shot", "5"]
_SWEEP = [*_SHAPE, "--episodes", "3", "--iterations", "5", "--noise-ratios", "0.1,0.3",
          "--ablation", ",".join(ABLATION_PRESETS)]
_ADAPT = ["--iterations", "4", "--embed-dim", "8", "--seed", "11"]

# (output file, argv without --out); each case also keeps its stdout as <output file>.stdout.
CASES: tuple[tuple[str, list[str]], ...] = (
    ("bench-label.csv", ["bench", *_SWEEP, "--noise-type", "label"]),
    ("bench-image.csv", ["bench", *_SWEEP, "--noise-type", "image"]),
    ("bench-image.json", ["bench", *_SHAPE, "--episodes", "2", "--iterations", "5",
                          "--noise-ratios", "0.3", "--noise-type", "image", "--ablation", "full,no-cora",
                          "--format", "json"]),
    # 400 region rows: the local loss runs several 64-row bands, one of them partial.
    ("bench-wide.json", ["bench", "--way", "10", "--shot", "10", "--k-regions", "4", "--dim", "128",
                         "--query-shot", "5", "--episodes", "2", "--iterations", "5", "--noise-ratios", "0.3",
                         "--noise-type", "image", "--format", "json"]),
    ("episode.json", ["gen", "--way", "3", "--shot", "3", "--dim", "6", "--query-shot", "2",
                      "--k-regions", "5", "--label-noise", "0.3", "--seed", "3"]),
    ("adapt-k3.json", ["adapt", "--episode", "episode.json", "--k-regions", "3", *_ADAPT]),
    ("weights-k3.csv", ["weights", "--episode", "episode.json", "--k-regions", "3", *_ADAPT]),
    ("adapt-shuffled.json", ["adapt", "--episode", SHUFFLED, "--k-regions", "3", *_ADAPT]),
    ("weights-shuffled.csv", ["weights", "--episode", SHUFFLED, "--k-regions", "3", *_ADAPT]),
)


def run_cases(workdir: Path) -> dict[str, bytes]:
    """Run every case in order inside workdir; returns file name -> bytes for each output and stdout."""
    shutil.copyfile(GOLDEN / SHUFFLED, workdir / SHUFFLED)
    produced = {}
    previous = os.getcwd()
    os.chdir(workdir)  # not contextlib.chdir, which Python 3.10 lacks
    try:
        for out, argv in CASES:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main([*argv, "--out", out])
            if code != 0:
                raise AssertionError(f"{out}: deta {' '.join(argv)} exited {code}")
            produced[out] = Path(out).read_bytes()
            produced[f"{out}.stdout"] = stdout.getvalue().encode("utf-8")
    finally:
        os.chdir(previous)
    return produced


def _thread_vars() -> tuple[str, ...]:
    """perfbench's THREAD_VARS, read from its run.py so both name the same variables."""
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH_RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.THREAD_VARS


def machine() -> dict:
    """What the float bytes depend on: versions, BLAS and its threads, CPU model and numpy's SIMD dispatch.

    An unset thread variable is recorded as None.
    """
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "orjson": orjson.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "cpu": cpu,
        "simd": config["SIMD Extensions"]["found"],
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "thread_env": {var: os.environ.get(var) for var in _thread_vars()},
    }


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        produced = run_cases(Path(tmp))
    for path in GOLDEN.iterdir():
        if path.name not in (SHUFFLED, MACHINE):
            path.unlink()
    for name, data in produced.items():
        (GOLDEN / name).write_bytes(data)
    (GOLDEN / MACHINE).write_text(json.dumps(machine(), indent=2) + "\n", encoding="utf-8")
    print(f"{len(produced)} golden files written to {GOLDEN}")


if __name__ == "__main__":
    regenerate()
