"""Checks of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench -q

The traced-count test makes two traced runs per workload, about five
minutes in all.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

orientw = run.import_program()

TIME_DERIVED = {"trace.overhead", "trace.solve_s"}


def _bench(args, cwd=ROOT):
    """Run the benchmark the way a checkout runs it: perfbench/run.py from
    the root of `cwd`."""
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py")] + args,
                          capture_output=True, text=True, cwd=cwd, timeout=600)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    runs = []
    for _ in range(2):
        out = _bench(["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1"])
        assert out.returncode == 0, out.stderr
        runs.append(json.loads(out.stdout.splitlines()[-1]))
    first, second = (r["metrics"] for r in runs)
    assert set(first) == {name for (name, _unit) in tracer.METRICS}
    counts = [name for name, m in first.items()
              if m["unit"] in ("count", "ratio") and name not in TIME_DERIVED]
    assert counts
    for name in counts:
        assert first[name]["value"] == second[name]["value"], name


def test_gate_rejects_changed_inputs():
    w = workloads.WORKLOADS["dense-exact"]
    texts = workloads.instance_texts(w, 1)
    assert workloads.gate(w, 1, texts) is None
    changed = [texts[0].replace('"budget": ', '"budget": 1')] + texts[1:]
    assert "digest" in workloads.gate(w, 1, changed)


def test_unrecorded_seed_is_gated_through_the_canary(monkeypatch, tmp_path):
    w = workloads.WORKLOADS["dense-exact"]
    with open(workloads.DIGESTS, encoding="utf-8") as fh:
        table = json.load(fh)
    table["dense-exact"]["canary"] = "0" * 64
    path = tmp_path / "digests.json"
    path.write_text(json.dumps(table))
    monkeypatch.setattr(workloads, "DIGESTS", str(path))
    assert "digest" in workloads.gate(w, 10 ** 6, workloads.instance_texts(w, 10 ** 6))


def test_meter_scales_by_the_reference_runs_around_each_operation():
    meter = run.Meter()
    meter.reference = [0.004] * 4 + [0.002] * 6 + [0.001] * 4
    meter.raw = [0.5, 0.5]
    meter._before = [4, 12]
    scaled = meter.scaled()
    # around operation 0: reference runs 0-9, median 0.002
    assert scaled[0] == pytest.approx(0.5 * run.REFERENCE_S / 0.002)
    # around operation 1: reference runs 8-14, the last one made by scaled(),
    # median 0.001 whatever that last run took
    assert scaled[1] == pytest.approx(0.5 * run.REFERENCE_S / 0.001)
    assert len(meter.reference) == 15


def test_digest_mismatch_exits_nonzero_without_result(monkeypatch, tmp_path, capsys):
    path = tmp_path / "digests.json"
    path.write_text(json.dumps({"dense-exact": {"1": "0" * 64}}))
    monkeypatch.setattr(workloads, "DIGESTS", str(path))
    code = run.main(["--workload", "dense-exact", "--seed", "1", "--seconds", "0"])
    assert code == 2
    assert capsys.readouterr().out == ""


def test_failed_output_check_exits_nonzero(monkeypatch, capsys):
    real = orientw.algorithms.solve_auto

    def inflated(x, **kwargs):
        rep = real(x, **kwargs)
        walk = dataclasses.replace(rep.walk, reward=rep.walk.reward + 1)
        return dataclasses.replace(rep, walk=walk)

    monkeypatch.setattr(orientw.algorithms, "solve_auto", inflated)
    code = run.main(["--workload", "dense-exact", "--seed", "1", "--seconds", "0"])
    assert code == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False


def test_missing_program_exits_nonzero_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = _bench(["--workload", "dense-exact", "--seed", "1", "--seconds", "1", "--trace", "0"],
                 cwd=str(tmp_path))
    assert out.returncode != 0
    assert out.stdout == ""


def test_tracer_skips_missing_targets_and_restores(monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (
        ("modular.dp", "modular", "no_such_solver"),
        ("oracles.monotone", "oracles", "NoSuchOracle.query")))
    original = orientw.modular.push_label
    t = tracer.Tracer()
    with t.installed():
        assert orientw.algorithms.push_label is not original
        assert orientw.modular.push_label is orientw.algorithms.push_label
        orientw.solve_auto(orientw.serialize.loads(
            workloads.instance_texts(workloads.WORKLOADS["dense-exact"], 1)[0]))
    assert orientw.modular.push_label is original
    assert orientw.algorithms.push_label is original
    values = t.metrics(1.0, 1.0, 1)
    assert values["modular.labels_pushed"] > 0
    assert values["algorithms.solver.auto.calls"] == 1
    assert values["algorithms.solver.zero-window.calls"] == 0
