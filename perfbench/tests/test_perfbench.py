"""Tests of the benchmark itself; run with
``python3 -m pytest -q perfbench/tests`` from the root of a checkout."""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402
import tracing  # noqa: E402
from splitdecode.model import ModelConfig  # noqa: E402
from tracing import Span, Target, Tracer, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

TINY = ModelConfig(n_layers=2, n_heads=2, d_model=16, head_dim=8, vocab_size=64, max_seq=48, seed=3)


def tiny(workload: workloads.Workload) -> workloads.Workload:
    return dataclasses.replace(
        workload, users=2, prompt_len=8, response_len=4, span_pos=min(workload.span_pos, 6)
    )


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_every_workload(name, tmp_path):
    workload = tiny(workloads.WORKLOADS[name])
    trace_path = tmp_path / "trace.json"
    result = workloads.run(workload, seed=1, seconds=0, trace=True, config=TINY, trace_path=trace_path)
    assert result.failed == 0, result.reasons
    assert result.sessions == workloads.MIN_SESSIONS
    assert result.attempted == (workloads.MIN_SESSIONS + 1) * workload.users  # + traced replay
    assert set(result.metrics) == set(workloads.END_TO_END_UNITS)
    assert all(value > 0 for value, _, _ in result.metrics.values())
    assert result.metrics["request_ok_ratio"][0] == 1.0
    assert set(result.traced) == set(tracing.LAYER_UNITS)
    assert result.missing == []
    assert result.traced["model.weight_copies"] == 1
    if workload.transport == "mono":
        assert result.traced["model.decode_step_ms"] > 0
        assert result.traced["protocol.gate_decisions"] == 0
    else:
        assert result.traced["obfuscation.virtual_prompts"] == workload.lam + 1
        assert result.traced["protocol.gate_pass_ratio"] == 1.0
        assert result.traced["protocol.streams_killed"] == 0
        assert result.traced["wire.frames_per_round"] > 0
    doc = json.loads(trace_path.read_text())
    assert doc["workload"] == workload.name
    assert len(doc["spans"]) > 0 and len(doc["span_fields"]) == 6


def test_traced_replay_decodes_the_same_streams():
    workload = tiny(workloads.WORKLOADS["decode_heavy"])
    st = workloads.setup(workload, TINY, seed=4)
    plain = workloads.run_session(workload, st)
    tracer = Tracer()
    with tracer.installed(tracing.TARGETS):
        traced = workloads.run_session(workload, st, tracer)
    assert traced.responses == plain.responses
    assert traced.wire_bytes == plain.wire_bytes
    assert workloads.setup(workload, TINY, seed=4).prompts == st.prompts


def test_wrong_output_fails_the_run(monkeypatch):
    import splitdecode.model as M

    real = M.greedy_decode
    monkeypatch.setattr(
        M, "greedy_decode", lambda *a, **k: [(t + 1) % TINY.vocab_size for t in real(*a, **k)]
    )
    workload = tiny(workloads.WORKLOADS["decode_heavy"])
    result = workloads.run(workload, seed=1, seconds=0, config=TINY)
    assert result.failed == result.attempted
    assert result.metrics["request_ok_ratio"][0] == 0.0


def test_self_time_on_a_synthetic_tree():
    # root [0, 100) has children [10, 30) and [20, 50) (overlapping) and
    # [90, 120) (clipped to the root's end); child 1 has a grandchild
    spans = [
        Span(0, "root", 0, 100, -1, None),
        Span(1, "a", 10, 30, 0, None),
        Span(2, "b", 20, 50, 0, None),
        Span(3, "c", 90, 120, 0, None),
        Span(4, "a.inner", 12, 18, 1, None),
    ]
    own = self_times(spans)
    assert own == {0: 100 - 40 - 10, 1: 20 - 6, 2: 30, 3: 30, 4: 6}


def test_missing_target_is_reported_not_fatal():
    import splitdecode.protocol as P

    original = P.private_partial
    tracer = Tracer()
    targets = (
        Target("splitdecode.protocol", "merge_partials_that_was_removed", "partition.merge"),
        Target("splitdecode.no_such_module", "f", "x"),
        Target("splitdecode.protocol", "NoSuchClass.method", "y"),
        Target("splitdecode.protocol", "private_partial", "partition.private"),
    )
    with tracer.installed(targets):
        assert P.private_partial is not original
    assert P.private_partial is original
    assert tracer.missing == [t.qualname for t in targets[:3]]


def test_metric_names_and_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == workloads.END_TO_END_UNITS
    assert per_layer == tracing.LAYER_UNITS
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }
    for name, unit in {**end_to_end, **per_layer}.items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), (name, unit)
    assert end_to_end["setup_s"] == "s"


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "decode_heavy",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
