"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402


def test_smoke_counts_and_digests_repeat():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count(": ok ") == 4


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "typical2d",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)


@pytest.fixture
def fake_program(monkeypatch):
    module = types.ModuleType("perfbench_fake_layer")

    def inner(x):
        return x + 1

    def outer(x):
        return module.inner(x) * 2

    def broken():
        raise ArithmeticError("degenerate")

    module.inner, module.outer, module.broken = inner, outer, broken
    monkeypatch.setitem(sys.modules, module.__name__, module)
    monkeypatch.setattr(spans, "SITES", (
        (module.__name__, "outer", "fake.outer"),
        (module.__name__, "inner", "fake.inner"),
        (module.__name__, "broken", "fake.broken"),
        (module.__name__, "deleted", "fake.deleted"),
    ))
    return module


def test_recorder_spans_self_time_and_absent_sites(fake_program):
    eligibility = types.SimpleNamespace(strong_eig_threshold=1e-6)
    recorder = spans.Recorder(eligibility)
    assert recorder.absent == ["perfbench_fake_layer.deleted"]
    originals = (fake_program.outer, fake_program.inner)
    for dataset in (0, 1):
        with recorder.dataset(dataset):
            assert fake_program.outer(1) == 4
            with pytest.raises(ArithmeticError):
                fake_program.broken()
    assert (fake_program.outer, fake_program.inner) == originals

    names = [span[0] for span in recorder.spans]
    assert names == [spans.ROOT_SPAN, "fake.outer", "fake.inner",
                     "fake.broken"] * 2
    outer, inner = recorder.spans[1], recorder.spans[2]
    assert outer[3] == 0 and inner[3] == 1
    own = recorder._self_seconds()
    assert own[1] == pytest.approx((outer[2] - outer[1])
                                   - (inner[2] - inner[1]))

    stats = recorder.layer_stats([0])
    assert stats["fake.inner"]["calls"] == 1.0
    assert stats["fake.broken"]["raised"] == 1.0
    assert stats["fake.outer"]["ms"] >= stats["fake.outer"]["self_ms"] > 0.0
