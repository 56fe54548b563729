"""Fast self-test of the benchmark itself (about half a minute).

    python3 bench/selftest.py

Checks that the metric names are well formed and agree with
BENCHMARK.json, that the gate counts a corrupted report body as a failure,
that the tracer puts every wrapped name back, and that a small suite runs
through the child both untraced and traced with identical report bodies
and yields every per-layer metric.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import run
from child import body_sha256, report_hashes

NAME = re.compile(r"[A-Za-z0-9_.-]+")

SMOKE_DOC = {
    "schema_version": 1,
    "suite": "smoke",
    "seed": 7,
    "samples": 5,
    "groups": {"K": {"kind": "cyclic", "order": 2}},
    "checks": [
        {"name": "theorem-b",
         "params": {"alphabet": "K", "rank": 2, "family_radius": 1,
                    "roundtrip_radius": 1, "equivariance_radius": 1, "mode": "full"}},
        {"name": "lemma-indep", "params": {}},
        {"name": "appendix-section", "params": {}},
    ],
}


def check_metric_names():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for group, units in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[group]}
        assert listed == units, f"BENCHMARK.json {group} differs from bench/run.py"
        for name in units:
            assert NAME.fullmatch(name), f"bad metric name {name!r}"
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    expected = json.loads(run.EXPECTED.read_text())
    assert set(expected) == set(run.WORKLOADS)
    for name in run.WORKLOADS:
        document = json.loads((run.BENCH / "suites" / f"{name}.json").read_text())
        assert document["seed"] == expected[name]["seed"]


def run_child(doc: Path, out: Path, trace: bool) -> dict:
    argv = [sys.executable, str(run.BENCH / "child.py"), "run", "--doc", str(doc),
            "--out", str(out)]
    if trace:
        argv += ["--trace", "--spans", str(out.parent / "spans.json")]
    proc = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=120, env=run.child_env())
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_smoke_and_gate(tmp: Path):
    doc = tmp / "smoke.json"
    doc.write_text(json.dumps(SMOKE_DOC))
    plain = run_child(doc, tmp / "plain", trace=False)
    traced = run_child(doc, tmp / "traced", trace=True)
    assert plain["exit_code"] == 0 and len(plain["reports"]) == 3, plain
    assert traced["reports"] == plain["reports"], "tracing changed a report body"
    assert traced["trace"]["restored"], "tracer left a wrapped name behind"
    assert traced["trace"]["functions"]["words.Word.__mul__"]["calls"] > 0
    assert json.loads((tmp / "spans.json").read_text()), "no spans written"
    imports = run.Session(tmp, time.monotonic() + 60).import_times()
    assert set(imports) == set(run.MODULES), imports
    values = run.per_layer_metrics(traced["trace"], plain, traced, imports,
                                   run.source_lines())
    assert set(values) == set(run.PER_LAYER), "per-layer metrics differ from PER_LAYER"

    expected = {"seed": SMOKE_DOC["seed"], "exit_code": 0,
                "checks": [{k: r[k] for k in ("check", "verdict", "sha256")}
                           for r in plain["reports"]]}
    gate = run.Gate(expected)
    assert gate.check(SMOKE_DOC["seed"], plain, "plain") == 0

    # a report body corrupted after the fact must fail the gate
    path = sorted((tmp / "plain").glob("00-*.json"))[0]
    body = json.loads(path.read_text())
    body["report"]["statistics"]["subchecks"] += 1
    path.write_text(json.dumps(body))
    corrupted = dict(plain, reports=report_hashes(tmp / "plain"))
    assert corrupted["reports"][0]["sha256"] == body_sha256(body)
    assert gate.check(SMOKE_DOC["seed"], corrupted, "corrupted") == 1
    # at another seed, the second run must agree with the first
    other = run.Gate(expected)
    assert other.check(8, plain, "first") == 0
    assert other.check(8, corrupted, "second") == 1
    assert run.Gate(expected).check(7, None, "crash") == 3


def check_tracer_restores():
    sys.path.insert(0, str(run.SRC))
    import orbitlab.cli
    import orbitlab.words
    from tracer import Tracer

    tracer = Tracer()
    targets = [(owner, attribute, fn) for _, owner, attribute, fn in tracer.targets()]
    mul, ball = orbitlab.words.Word.__mul__, orbitlab.words.ball
    runners = {name: spec.runner for name, spec in orbitlab.cli.REGISTRY.items()}
    with tracer:
        assert orbitlab.words.Word.__mul__ is not mul
        assert orbitlab.cli.ball is not ball and orbitlab.cli.ball is orbitlab.words.ball
        spec = orbitlab.cli.REGISTRY["lemma-indep"]
        ctx, _ = orbitlab.cli.parse_config(SMOKE_DOC)
        spec.runner(ctx, dict(spec.params))
    assert tracer.stats["cli._run_lemma_indep"][0] == 1
    assert tracer.restored()
    assert orbitlab.words.Word.__mul__ is mul and orbitlab.cli.ball is ball
    assert orbitlab.constructions.ball is ball
    assert all(getattr(owner, attribute) is fn for owner, attribute, fn in targets)
    assert all(orbitlab.cli.REGISTRY[n].runner is r for n, r in runners.items())


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix=".selftest-", dir=run.ROOT))
    failures = 0
    try:
        for name, fn in (("metric names", check_metric_names),
                         ("smoke run and gate", lambda: check_smoke_and_gate(tmp)),
                         ("tracer restores", check_tracer_restores)):
            try:
                fn()
                print(f"ok   {name}")
            except AssertionError as err:
                failures += 1
                print(f"FAIL {name}: {err}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
