"""The outputs of a fixed set of `deta` commands equal the bytes under tests/golden/.

The cases live in regen_golden.py, which also rewrites the set. The set was
made on the machine that MACHINE.json records. On another machine the test
still runs and compares bytes; a mismatch there may come from numpy, the BLAS
or the CPU's kernels rather than from the code, so the failure names both
machines. To check a change on such a machine, run regen_golden.py on the
parent tree there and this test on the change.
"""

import json

from regen_golden import GOLDEN, MACHINE, SHUFFLED, machine, run_cases


def _first_difference(name: str, expected: bytes, produced: bytes) -> str:
    old, new = expected.splitlines(keepends=True), produced.splitlines(keepends=True)
    for line, (a, b) in enumerate(zip(old, new), start=1):
        if a != b:
            return f"{name} line {line}: expected {a[:200]!r}, got {b[:200]!r}"
    return f"{name}: expected {len(old)} lines, got {len(new)}"


def test_outputs_equal_the_golden_set(tmp_path):
    produced = run_cases(tmp_path)
    on_disk = {path.name for path in GOLDEN.iterdir()} - {MACHINE, SHUFFLED}
    assert on_disk == set(produced), "tests/golden is out of step with CASES; rerun regen_golden.py"
    diffs = [
        _first_difference(name, expected, data)
        for name, data in produced.items()
        if (expected := (GOLDEN / name).read_bytes()) != data
    ]
    if diffs:
        recorded, here = json.loads((GOLDEN / MACHINE).read_text(encoding="utf-8")), machine()
        where = "on the machine it was made on" if recorded == here else (
            f"on another machine (made on {recorded}, running on {here})"
        )
        raise AssertionError(f"{len(diffs)} golden file(s) differ {where}; first: {diffs[0]}")
