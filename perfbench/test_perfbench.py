"""Self-tests of the benchmark.

    python3 -m pytest perfbench -q

They run the benchmark in its quick mode (tiny data, one set-up), so they
check plumbing and oracles, not performance.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import run  # noqa: E402

run.import_package()

from perfbench import grammar, oracle, tracing  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_quick_mode_emits_every_named_metric(workload, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1.5", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = _last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    for metric in BENCHMARK["end_to_end"]:
        assert f"{workload} {metric['name']} " in done.stdout


def test_injected_wrong_expected_row_is_a_failure(monkeypatch, capsys):
    original = oracle.ReferenceOracle.expected
    injected = []

    def corrupted(self, query, params):
        rows = original(self, query, params)
        if not injected and rows:
            injected.append(query)
            return [tuple("wrong" for _ in rows[0])] + list(rows[1:])
        return rows

    monkeypatch.setattr(oracle.ReferenceOracle, "expected", corrupted)
    monkeypatch.setattr(os, "environ", dict(os.environ))
    code = run.main(["--workload", "interactive_small", "--seed", "4",
                     "--seconds", "1", "--quick"])
    result = _last_json(capsys.readouterr().out)
    assert injected
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1


def test_numpy_mirror_agrees_with_linq():
    from repro.query import QueryProvider
    from repro.tpch import TPCHData, relation_query

    data = TPCHData(scale=0.001, seed=5)
    rows = relation_query(data, "lineitem", "linq", QueryProvider())
    mirror = grammar.MirrorTable(data.arrays("lineitem"))
    stream = grammar.ShapeStream(5)
    verdicts = oracle.Verdicts()
    for _ in range(40):
        instance = stream.next()
        verdicts.check(instance.shape.describe(), instance.expected(mirror),
                       instance.build(rows).to_list(), ordered=False)
    assert verdicts.wrong == 0, verdicts.messages


def test_novel_shapes_never_repeat_warmup_or_each_other():
    workload = WORKLOADS["interactive_small"](6, quick=True)
    seen = {i.shape for i in workload.warmup_shapes}
    stream = workload.requests()
    novel = 0
    while novel < 200:
        request = next(stream)
        if request.kind == "novel":
            novel += 1
            assert request.instance.shape not in seen
            seen.add(request.instance.shape)


def test_recorder_restores_every_binding():
    import repro.query.provider as provider

    before = (provider.canonicalize, provider.QueryProvider.execute)
    recorder = tracing.Recorder()
    recorder.install()
    assert provider.canonicalize is not before[0]
    recorder.uninstall()
    assert (provider.canonicalize, provider.QueryProvider.execute) == before


def test_refuses_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "interactive_small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_metrics_json_documents_every_declared_name():
    documented = json.loads((ROOT / "perfbench" / "metrics.json").read_text())
    for section in ("workloads", "end_to_end", "per_layer"):
        assert set(documented[section]) == {m["name"] for m in BENCHMARK[section]}
