"""Smoke tests of the benchmark itself, at a tiny run length.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from cwmix import em  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = "0.5"  # --seconds: one or two replicates per variant


def run_benchmark(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", TINY, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_schema(workload, trace):
    proc = run_benchmark(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    if trace:
        assert (ROOT / ".perfbench_out" / f"spans-{workload}-seed7.npz").is_file()


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark("paper_small", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_untraced_run_installs_no_wrapper(monkeypatch, capsys):
    originals = tracing.current_attributes()
    original_fit = em.fit
    seen = []

    def probe(data, config):
        seen.append(all(tracing.current_attributes()[t] is f
                        for t, f in originals.items() if t != "cwmix.em.fit"))
        return original_fit(data, config)

    monkeypatch.setattr(em, "fit", probe)
    assert run.main(["--workload", "paper_small", "--seed", "3", "--seconds", TINY]) == 0
    assert seen and all(seen)
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"] is True


def test_traced_run_restores_every_name(capsys):
    before = tracing.current_attributes()
    assert run.main(["--workload", "paper_small", "--seed", "3", "--seconds", TINY,
                     "--trace", "1"]) == 0
    after = tracing.current_attributes()
    assert after.keys() == before.keys()
    assert all(after[t] is before[t] for t in before)
    capsys.readouterr()


def test_tracer_restores_on_error_and_reports_missing_names(monkeypatch):
    monkeypatch.setitem(tracing.SPAN_TARGETS, "em.renamed", ("cwmix.em._no_such_helper",))
    before = tracing.current_attributes()
    with pytest.raises(RuntimeError):
        with tracing.Tracer() as tracer:
            assert em._m_step is not before["cwmix.em._m_step"]
            raise RuntimeError("boom")
    assert tracer.missing == ["cwmix.em._no_such_helper"]
    assert "em.renamed" in tracer.missing_layers
    assert all(tracing.current_attributes()[t] is f for t, f in before.items())


def test_inputs_follow_the_seed():
    wl = workloads.WORKLOADS["paper_small"]
    a = workloads.make_inputs(wl, 5, 2)
    assert workloads.same_inputs(a, workloads.make_inputs(wl, 5, 2))
    assert not workloads.same_inputs(a, workloads.make_inputs(wl, 6, 2))
