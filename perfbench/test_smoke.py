"""Smoke test of the benchmark harness on one tiny pass.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

TINY = ("--shape", "64x48x64")
SMOKE = run.Workload("tiny problem: one good run, one bounds failure, one rejected argv", (
    ("run", *TINY, "--np", "1", "--si", "16"),
    ("explore", *TINY, "--simulate", "--contention", "shared_port"),   # exits 1
    ("run", *TINY, "--np", "1", "--si", "16", "--no-such-flag"),        # exits 2
))
# simulate_block renamed away, as once the run loop no longer calls it.
WRAPS = tuple(("masim.simulator:simulate_block_gone", span)
              if span == "mpe.simulate_block" else (target, span)
              for target, span in run.WRAPS)


def smoke(tmp_path, trace):
    return run.run_workload("smoke", SMOKE, seed=3, seconds=0, trace=trace,
                            out_dir=tmp_path, wraps=WRAPS)


def test_every_metric_printed_with_its_unit(tmp_path):
    for trace, gated in ((False, run.END_TO_END), (True, run.PER_LAYER)):
        result = smoke(tmp_path, trace)
        text = run.table(result)
        rows = run.END_TO_END + run.UNGATED + (run.PER_LAYER if trace else ())
        for name, unit, _ in rows:
            assert re.search(rf"^  {re.escape(name)} +\S+ {re.escape(unit)}$",
                             text, re.M), name
        last = json.loads(run.summary_line(result))
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["metrics"] == {n: {"value": result["metrics"][n], "unit": u}
                                   for n, u, _ in gated}


def test_nonzero_exits_count_as_failed_ops(tmp_path):
    result = smoke(tmp_path, False)
    assert (result["attempted"], result["failed"]) == (3, 2)
    assert result["metrics"]["failed_ops"] == 2 / 3
    failures = [s.get("failure") for op in result["ops"] for s in op["untraced"]]
    assert failures[0] is None
    assert failures[1] == "check failure: in_bounds"
    assert failures[2].startswith("exit 2: ") and "--no-such-flag" in failures[2]
    # The bounds failure is a model result; the rejected argv is a wrong output.
    assert result["correct"] is False and len(result["problems"]) == 1


def test_missing_wrapped_name_yields_zero_calls(tmp_path):
    result = smoke(tmp_path, True)
    m = result["metrics"]
    assert m["mpe.simulate_block_calls"] == 0 and m["mpe.simulate_block_share"] == 0
    assert m["mac.plan_for_tile_calls"] > 0 and m["simulator.events"] > 0
    assert "wrapped names not found (zero calls): mpe.simulate_block" in run.table(result)
    spans = (tmp_path / "smoke" / "spans" / "op0.csv").read_text().splitlines()
    assert spans[0] == "name,start_ns,end_ns,parent" and spans[1].startswith("cli.main,")


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} \
        == {name: w.why for name, w in run.WORKLOADS.items()}
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)


def test_a_report_that_changes_between_runs_fails():
    op = {"first": {"digest": "a"}, "first_counts": None}
    sample = {"exit": 0, "report": {"digest": "b", "false_checks": []}}
    assert run.judge(sample, op) == (
        "simulated results differ from the first run of this operation", True)
    op = {"first": {"digest": "a"}, "first_counts": {"events": 7, "calls": {}}}
    sample = {"exit": 0, "report": {"digest": "a", "false_checks": []},
              "layers": {}, "sim": {"events": 8}}
    assert run.judge(sample, op)[1] is True
