import dataclasses
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from orbitlab.cli import REGISTRY, ConfigError, list_checks, main, parse_config, run_suite

ROOT = Path(__file__).resolve().parents[1]
SUITES = ROOT / "src" / "orbitlab" / "suites"
PINNED = json.loads((ROOT / "bench" / "expected.json").read_text())


def minimal_config(**overrides):
    doc = {
        "schema_version": 1,
        "suite": "mini",
        "seed": 7,
        "samples": 5,
        "groups": {"K": {"kind": "cyclic", "order": 2}},
        "checks": [{"name": "lemma-indep", "params": {}}],
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="suite.cfg"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_catalog_contains_required_checks():
    names = {entry["name"] for entry in list_checks()}
    required = {"theorem-b", "lemma-2", "lemma-indep", "coinduction-characterization",
                "lemma-factor", "star-action", "lemma-3", "appendix-section"}
    assert required <= names
    for entry in list_checks():
        assert set(entry) == {"name", "description", "params"}
        assert entry["description"]


def test_catalog_round_trips_through_parser():
    # every catalog entry, with its own defaults, parses back as a config
    checks = [{"name": entry["name"], "params": dict(entry["params"])}
              for entry in list_checks()]
    doc = minimal_config(checks=checks)
    ctx, resolved = parse_config(doc)
    assert len(resolved) == len(list_checks())
    assert all(spec.name == entry["name"]
               for (spec, _), entry in zip(resolved, list_checks()))


def test_parse_rejects_unknown_check():
    doc = minimal_config(checks=[{"name": "no-such-check"}])
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert "checks[0].name" in str(err.value)


def test_parse_rejects_unknown_param():
    doc = minimal_config(checks=[{"name": "lemma-indep",
                                  "params": {"bogus": 1}}])
    with pytest.raises(ConfigError, match="params.bogus"):
        parse_config(doc)


def test_parse_requires_seed():
    doc = minimal_config()
    del doc["seed"]
    with pytest.raises(ConfigError, match="seed"):
        parse_config(doc)


def test_undeclared_group_exits_3(tmp_path):
    doc = minimal_config(checks=[{"name": "lemma-factor",
                                  "params": {"gamma": "NOPE", "lam": "K", "K": "K"}}])
    path = write_config(tmp_path, doc)
    stream = io.StringIO()
    code = run_suite(path, tmp_path / "out", stream=stream)
    assert code == 3
    assert "NOPE" in stream.getvalue()


def test_malformed_json_exits_3(tmp_path):
    path = tmp_path / "broken.cfg"
    path.write_text("{not json")
    assert run_suite(path, tmp_path / "out") == 3


def test_passing_suite_exits_0(tmp_path):
    path = write_config(tmp_path, minimal_config())
    stream = io.StringIO()
    code = run_suite(path, tmp_path / "out", stream=stream)
    assert code == 0
    out = tmp_path / "out"
    assert (out / "00-lemma-indep.json").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["verdict"] == "pass"


def test_negative_control_exits_1_with_counterexample(tmp_path):
    doc = minimal_config(checks=[{"name": "negative-control"}])
    path = write_config(tmp_path, doc)
    code = run_suite(path, tmp_path / "out", stream=io.StringIO())
    assert code == 1
    report = json.loads((tmp_path / "out" / "00-negative-control.json").read_text())
    assert report["report"]["verdict"] == "fail"
    assert "counterexample" in report["report"]


def test_undetermined_suite_exits_2(tmp_path):
    # a tiny scan radius leaves scans unresolved without failing anything
    doc = minimal_config(checks=[{
        "name": "lemma-2",
        "params": {"kappa": 2, "identity_length": 2, "inverse_length": 2,
                   "determinacy": False}}],
        samples=5, scan_radius=4)
    path = write_config(tmp_path, doc)
    code = run_suite(path, tmp_path / "out", stream=io.StringIO())
    assert code == 2


def test_budget_overflow_exits_3(tmp_path):
    for name, index, states in [("coinduction-characterization", 1, 32),
                                ("theorem-b", 0, 2048)]:
        stream = io.StringIO()
        code = run_suite(SUITES / "standard.cfg", tmp_path / name, only=name,
                         budget_override=10, stream=stream)
        assert code == 3
        assert stream.getvalue() == (f"config error at checks[{index}] ({name}): "
                                     f"{states} window states exceed budget 10\n")
    # lemma-indep enumerates 2 x values times 2^3 selector values: 16 states
    doc = minimal_config()
    message = "config error at checks[0] (lemma-indep): 16 states exceed budget 10\n"
    for budget, override in [(10, None), (None, 10)]:
        stream = io.StringIO()
        path = write_config(tmp_path, dict(doc, budget=budget) if budget else doc)
        assert run_suite(path, tmp_path / "indep", budget_override=override,
                         stream=stream) == 3
        assert stream.getvalue() == message
    # --only keeps the check's index in the config in the report file name
    assert run_suite(SUITES / "standard.cfg", tmp_path / "factor", only="lemma-factor",
                     stream=io.StringIO()) == 0
    assert (tmp_path / "factor" / "04-lemma-factor.json").exists()


Z2_DOC = {"kind": "cyclic", "order": 2}
G2_DOC = {"kind": "cyclic", "order": 2, "prefix": "g"}


def _table(*elements, table=None):
    return {"kind": "table", "name": "T", "elements": list(elements),
            "table": [[0, 1], [1, 0]] if table is None else table}


def _star(lam_order, k_order):
    return {"groups": {"G": G2_DOC,
                       "L": {"kind": "cyclic", "order": lam_order, "prefix": "h"},
                       "K": {"kind": "cyclic", "order": k_order, "prefix": "k"}},
            "checks": [{"name": "star-action"}]}


# groups that a free product gamma * lam, a table document, a cyclic prefix or a
# star-action twist cannot take
GROUP_CLASHES = [
    ({"groups": {"G": Z2_DOC, "L": Z2_DOC, "K": Z2_DOC},
      "checks": [{"name": "lemma-factor"}]},
     "checks[0].params.lam", "element name '1' is also in group 'G'"),
    ({"groups": {"G": G2_DOC, "K": Z2_DOC},
      "checks": [{"name": "star-action", "params": {"lam": "G"}}]},
     "checks[0].params.lam", "element name 'g1' is also in group 'G'"),
    ({"groups": {"G": G2_DOC, "L": _table("1", "e"), "K": Z2_DOC},
      "checks": [{"name": "lemma-factor"}]},
     "groups.L", "element name 'e' is reserved for the identity"),
    ({"groups": {"G": G2_DOC, "L": _table("x", "x"), "K": Z2_DOC},
      "checks": [{"name": "lemma-factor"}]},
     "groups.L", "element name 'x' is repeated"),
    ({"groups": {"G": _table("1", "p"), "L": _table("1", "q"), "K": Z2_DOC},
      "checks": [{"name": "star-action"}]},
     "checks[0].params.lam", "group 'G' has the same label 'T'"),
    ({"groups": {"K": dict(_table(), elements=5)}},
     "groups.K", "elements must be a nonempty array of names"),
    ({"groups": {"K": _table()}},
     "groups.K", "elements must be a nonempty array of names"),
    ({"groups": {"K": dict(_table("0"), table=3)}},
     "groups.K", "table must be an array of 1 arrays of 1 entries"),
    ({"groups": {"K": _table("0", "1", table=[[0, 1], 3])}},
     "groups.K", "table must be an array of 2 arrays of 2 entries"),
    ({"groups": {"K": _table("0", table=[["a"]])}},
     "groups.K", "table entry 'a' is not an integer in 0..0"),
    ({"groups": {"K": _table("0", "1", table=[[0, 1], [True, 0]])}},
     "groups.K", "table entry True is not an integer in 0..1"),
    ({"groups": {"K": _table("0", "1", table=[[0, 1], [1.0, 0]])}},
     "groups.K", "table entry 1.0 is not an integer in 0..1"),
    (_star(3, 2), "checks[0].params.twist",
     "sending every non-identity element of group 'L' to 'k1' is not a "
     "homomorphism into group 'K'"),
    (_star(2, 3), "checks[0].params.twist",
     "sending every non-identity element of group 'L' to 'k1' is not a "
     "homomorphism into group 'K'"),
    ({"groups": {"K": _table(1, True)}},
     "groups.K", "element name 1 is not a string"),
    ({"groups": {"K": dict(_table("0", "1"), name=5)}},
     "groups.K", "group name 5 is not a string"),
    ({"groups": {"K": {"kind": "cyclic", "order": 2, "prefix": 5}}},
     "groups.K.prefix", "a cyclic prefix must be a string, got 5"),
]


@pytest.mark.parametrize("overrides, field", [
    ({"checks": ["lemma-indep"]}, "checks[0]"),
    ({"checks": [{"name": "lemma-indep", "params": [1]}]}, "checks[0].params"),
    ({"samples": "many"}, "samples"),
    ({"groups": {"K": "cyclic"}}, "groups.K"),
    ({"groups": ["K"]}, "groups"),
    ({"checks": [{"name": ["lemma-indep"]}]}, "checks[0].name"),
    ({"budget": 1e400}, "budget"),
    ({"checks": [{"name": "lemma-indep", "params": {"x_size": "two"}}]},
     "checks[0].params.x_size"),
    ({"checks": [{"name": "lemma-2", "params": {"determinacy": 1}}]},
     "checks[0].params.determinacy"),
    ({"checks": [{"name": "lemma-indep", "params": {"x_size": True}}]},
     "checks[0].params.x_size"),
    ({"groups": {"K": {"kind": "cyclic", "order": "two"}}}, "groups.K.order"),
    ({"groups": {"K": {"kind": "cyclic", "order": 0}}}, "groups.K.order"),
    ({"checks": [{"name": "appendix-section", "params": {"cases": [["cyclic", 2]]}}]},
     "checks[0].params.cases"),
    ({"checks": [{"name": "theorem-b", "params": {"mode": "bogus"}}]},
     "checks[0].params.mode"),
    ({"checks": [{"name": "lemma-factor", "params": {"gamma": "NOPE"}}]},
     "checks[0].params.gamma"),
    ({"checks": [{"name": "lemma-indep", "params": {"value_size": 0}}]},
     "checks[0].params.value_size"),
    ({"checks": [{"name": "lemma-indep", "params": {"index_size": 0}}]},
     "checks[0].params.index_size"),
    ({"checks": [{"name": "theorem-b", "params": {"rank": 0}}]}, "checks[0].params.rank"),
    ({"checks": [{"name": "lemma-2", "params": {"kappa": 1}}]}, "checks[0].params.kappa"),
    ({"checks": [{"name": "lemma-factor", "params": {"radius": -1}}]},
     "checks[0].params.radius"),
    ({"checks": [{"name": "theorem-b", "params": {"window_radius": 0}}]},
     "checks[0].params.window_radius"),
    ({"samples": 2.7}, "samples"),
    ({"samples": True}, "samples"),
    ({"samples": 0}, "samples"),
    ({"samples": -3}, "samples"),
    ({"budget": 1.5}, "budget"),
    ({"scan_radius": False}, "scan_radius"),
    ({"quantile": 2}, "quantile"),              # an unknown suite setting
    ({"quantile": True}, "quantile"),
    *[(overrides, field) for overrides, field, _ in GROUP_CLASHES],
    ({"sampels": 1}, "sampels"),
    ({"seed": True}, "seed"),
    ({"schema_version": True}, "schema_version"),
    ({"schema_version": 1.0}, "schema_version"),
    ({"suite": 5}, "suite"),
    ({"suite": None}, "suite"),
    ({"seed": -1}, "seed"),
    ({"seed": 2 ** 64}, "seed"),
    # a misspelt key is refused, not ignored
    ({"checks": [{"name": "coinduction-characterization",
                  "parms": {"instance": "bogus"}}]}, "checks[0].parms"),
    ({"checks": [{"params": {}, "name": "lemma-indep", "only": True}]}, "checks[0].only"),
    ({"groups": {"K": {"kind": "cyclic", "order": 2, "prefx": "k"}}}, "groups.K.prefx"),
    ({"groups": {"K": {"kind": "klein", "order": 4}}}, "groups.K.order"),
    ({"groups": {"K": {"kind": "s3", "prefix": "s"}}}, "groups.K.prefix"),
    ({"groups": {"K": dict(_table("0", "1"), label="T")}}, "groups.K.label"),
    ({"groups": {"K": {"kind": ["cyclic"], "order": 2}}}, "groups.K.kind"),
])
def test_malformed_config_exits_3(tmp_path, overrides, field):
    path = write_config(tmp_path, minimal_config(**overrides))
    stream = io.StringIO()
    assert run_suite(path, tmp_path / "out", stream=stream) == 3
    assert stream.getvalue().startswith(f"config error at {field}: ")


@pytest.mark.parametrize("budget", [0, -5])
def test_non_positive_budget_override_exits_3(tmp_path, budget):
    stream = io.StringIO()
    code = run_suite(SUITES / "standard.cfg", tmp_path / "out", only="appendix-section",
                     budget_override=budget, stream=stream)
    assert code == 3
    assert stream.getvalue() == (f"config error at --budget: "
                                 f"expected a positive integer, got {budget}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seed", [True, "7", 2.5])
def test_non_integer_seed_override_exits_3(tmp_path, seed):
    stream = io.StringIO()
    code = run_suite(SUITES / "standard.cfg", tmp_path / "out",
                     only="coinduction-characterization", seed_override=seed, stream=stream)
    assert code == 3
    assert stream.getvalue() == (f"config error at --seed-override: "
                                 f"expected an integer, got {seed!r}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 64 + 7])
def test_out_of_range_seed_override_exits_3(tmp_path, seed):
    stream = io.StringIO()
    code = run_suite(SUITES / "standard.cfg", tmp_path / "out",
                     only="coinduction-characterization", seed_override=seed, stream=stream)
    assert code == 3
    assert stream.getvalue() == (f"config error at --seed-override: "
                                 f"expected a seed in [0, 2**64), got {seed}\n")
    assert not (tmp_path / "out").exists()


def test_the_extreme_seeds_are_accepted():
    for seed in (0, 2 ** 64 - 1):
        ctx, _ = parse_config(minimal_config(seed=seed))
        assert ctx.seed == seed


@pytest.fixture
def collector_state():
    """Restore the collector state after the test, whatever it did."""
    saved = gc.isenabled(), gc.get_threshold()
    yield
    gc.set_threshold(*saved[1])
    (gc.enable if saved[0] else gc.disable)()


def spy_on_runner(monkeypatch, check, error=None):
    """Replace `check`'s runner by one that records whether the collector is
    on and leaves a reference cycle behind, then raises `error` or runs the
    real check; returns the records and weak references to the cycles."""
    spec = REGISTRY[check]
    seen, cycles = [], []

    class Node:
        pass

    def runner(ctx, params):
        seen.append(gc.isenabled())
        node = Node()
        node.self = node             # garbage only the collector frees
        cycles.append(weakref.ref(node))
        if error is not None:
            raise error
        return spec.runner(ctx, params)

    monkeypatch.setitem(REGISTRY, check, dataclasses.replace(spec, runner=runner))
    return seen, cycles


# exit path -> (check, --budget, error its runner raises, exit code or None
# when the error propagates)
COLLECTOR_PATHS = {
    "pass": ("lemma-indep", None, None, 0),
    "fail": ("negative-control", None, None, 1),
    "budget": ("theorem-b", 10, None, 3),
    "config-error": ("lemma-indep", None, ConfigError("x_size", "refused"), 3),
    "propagates": ("lemma-indep", None, RuntimeError("runner crashed"), None),
}


@pytest.mark.parametrize("caller_enabled", [True, False])
@pytest.mark.parametrize("path", sorted(COLLECTOR_PATHS))
def test_run_suite_pauses_the_collector_and_restores_it(tmp_path, monkeypatch,
                                                         collector_state, path,
                                                         caller_enabled):
    check, budget, error, exit_code = COLLECTOR_PATHS[path]
    seen, cycles = spy_on_runner(monkeypatch, check, error)
    collect, collections = gc.collect, []

    def spy_collect(*args):
        collections.append(args)
        return collect(*args)

    monkeypatch.setattr(gc, "collect", spy_collect)
    config = write_config(tmp_path, minimal_config(checks=[{"name": check}]))
    (gc.enable if caller_enabled else gc.disable)()
    caller = gc.isenabled(), gc.get_threshold()
    if exit_code is None:
        with pytest.raises(type(error)):
            run_suite(config, tmp_path / "out", budget_override=budget,
                      stream=io.StringIO())
    else:
        assert run_suite(config, tmp_path / "out", budget_override=budget,
                         stream=io.StringIO()) == exit_code
    assert seen == [False]
    assert (gc.isenabled(), gc.get_threshold()) == caller
    reports = list((tmp_path / "out").glob("00-*.json"))
    assert len(reports) == (exit_code in (0, 1))
    # one young-generation collection per returned check, none after a raise
    assert collections == [(0,)] * len(reports)
    for report in reports:
        # the young-generation collection after the check freed its cycle;
        # on the other paths the exception in flight still holds the frame
        assert cycles[0]() is None
        timing = json.loads(report.read_text())["timing"]
        assert type(timing["gc_collected"]) is int and timing["gc_collected"] >= 1
        assert type(timing["gc_collect_s"]) is float and timing["gc_collect_s"] >= 0


def test_shipped_suites_equal_their_benchmark_copies():
    for suite, copy in [("theorem-b-z2.cfg", "exact-z2.json"),
                        ("theorem-b-s3.cfg", "mc-s3.json"),
                        ("standard.cfg", "cylinder-standard.json")]:
        assert (SUITES / suite).read_bytes() == (ROOT / "bench" / "suites" / copy).read_bytes()


def test_no_check_parameter_is_named_like_a_suite_setting():
    # a suite-level setting reaches every check through its context
    settings = {"seed", "samples", "budget", "scan_radius"}
    for entry in list_checks():
        assert not settings & set(entry["params"]), entry["name"]


def test_every_check_parameter_is_set_by_a_shipped_suite():
    # a parameter that no shipped suite sets has one value in use, its
    # default, and belongs in its runner as a constant
    shipped = set()
    for path in SUITES.glob("*.cfg"):
        for entry in json.loads(path.read_text())["checks"]:
            shipped.update((entry["name"], key) for key in entry.get("params", {}))
    unset = sorted(f"{name}.{key}" for name, spec in REGISTRY.items()
                   for key in spec.params if (name, key) not in shipped)
    assert unset == []


@pytest.mark.parametrize("overrides, field, message", GROUP_CLASHES)
def test_group_clash_message_names_the_token(tmp_path, overrides, field, message):
    path = write_config(tmp_path, minimal_config(**overrides))
    stream = io.StringIO()
    run_suite(path, tmp_path / "out", stream=stream)
    assert stream.getvalue() == f"config error at {field}: {message}\n"


def _report_nodes(report):
    yield report
    for sub in report.subreports:
        yield from _report_nodes(sub)


def test_every_report_node_carries_its_runtime():
    groups = {name: {"kind": "cyclic", "order": 2, "prefix": name.lower()}
              for name in ("K", "G", "L")}
    ctx, checks = parse_config(minimal_config(
        samples=3, groups=groups,
        checks=[{"name": name} for name in ("appendix-section", "lemma-indep",
                                            "star-action")]))
    wrappers = 0
    for spec, params in checks:
        for node in _report_nodes(spec.runner(ctx, params)):
            assert isinstance(node.runtime_s, float) and node.runtime_s >= 0
            if node.notes == ("negative control: inner check must fail",):
                wrappers += 1
                assert node.runtime_s >= node.subreports[0].runtime_s
    assert wrappers == 2


def test_only_filter_and_overrides(tmp_path):
    doc = minimal_config(checks=[{"name": "lemma-indep"},
                                 {"name": "negative-control"}])
    path = write_config(tmp_path, doc)
    code = run_suite(path, tmp_path / "out", only="lemma-indep",
                     seed_override=99, stream=io.StringIO())
    assert code == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["seed"] == 99
    assert [c["name"] for c in summary["checks"]] == ["lemma-indep"]


def test_structured_format_prints_summary(tmp_path):
    path = write_config(tmp_path, minimal_config())
    stream = io.StringIO()
    run_suite(path, tmp_path / "out", fmt="structured", stream=stream)
    printed = json.loads(stream.getvalue())
    assert printed["verdict"] == "pass"


def strip_timing(path: Path) -> bytes:
    doc = json.loads(path.read_text())
    doc.pop("timing", None)
    return json.dumps(doc, indent=2, sort_keys=True).encode()


def test_reports_reproduce_byte_identically(tmp_path):
    doc = minimal_config(checks=[{"name": "lemma-indep"},
                                 {"name": "appendix-section"}])
    path = write_config(tmp_path, doc)
    for run in ("a", "b"):
        assert run_suite(path, tmp_path / run, stream=io.StringIO()) == 0
    for name in ("00-lemma-indep.json", "01-appendix-section.json", "summary.json"):
        assert strip_timing(tmp_path / "a" / name) == strip_timing(tmp_path / "b" / name)


def run_cli_under_hash_seed(config: Path, out: Path, hash_seed: str):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed)
    return subprocess.run([sys.executable, "-m", "orbitlab.cli", "--config", str(config),
                           "--out", str(out)], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=300)


def test_reports_reproduce_across_hash_seeds(tmp_path):
    # sets of words and cosets iterate in an order that changes between
    # processes; no report body may depend on it
    doc = minimal_config(samples=5, scan_radius=64, groups={
        "K": {"kind": "cyclic", "order": 2},
        "G": {"kind": "cyclic", "order": 2, "prefix": "g"},
        "L": {"kind": "cyclic", "order": 2, "prefix": "h"}}, checks=[
        {"name": "lemma-factor"},
        {"name": "star-action"},
        {"name": "coinduction-characterization",
         "params": {"instance": "twisted-shift", "radius": 2}},
        {"name": "lemma-3"},
        {"name": "lemma-2", "params": {
            "identity_length": 2, "inverse_length": 2, "determinacy": False,
            "measure_samples": 50}}])
    path = write_config(tmp_path, doc)
    runs = [run_cli_under_hash_seed(path, tmp_path / seed, seed) for seed in ("0", "1")]
    assert runs[0].returncode in (0, 2), runs[0].stderr[-2000:]
    assert (runs[1].returncode, runs[1].stdout) == (runs[0].returncode, runs[0].stdout)
    names = sorted(p.name for p in (tmp_path / "0").glob("*.json"))
    assert len(names) == 6
    for name in names:
        assert strip_timing(tmp_path / "0" / name) == strip_timing(tmp_path / "1" / name)


def test_cli_import_does_not_load_scipy_stats():
    # the chi-square quantile comes from scipy.special; scipy.stats costs
    # about 0.6 s and 45 MB per process
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = "import sys, orbitlab.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.strip() == "False"


def test_main_list_checks(capsys):
    assert main(["--list-checks"]) == 0
    out = capsys.readouterr().out
    catalog = json.loads(out)
    assert any(entry["name"] == "theorem-b" for entry in catalog)


def pinned_reports(out_dir) -> list[dict]:
    """Check, verdict and sha256 of each report body without its `timing`,
    hashed as canonical JSON, in suite order: the benchmark's pinned form."""
    out = []
    for path in sorted(Path(out_dir).glob("[0-9][0-9]-*.json")):
        body = {k: v for k, v in json.loads(path.read_text()).items() if k != "timing"}
        text = json.dumps(body, sort_keys=True, separators=(",", ":"))
        out.append({"check": body["check"], "verdict": body["report"]["verdict"],
                    "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()})
    return out


def test_main_runs_shipped_config(tmp_path):
    code = main(["--config", str(SUITES / "theorem-b-z2.cfg"),
                 "--out", str(tmp_path / "out"), "--only", "theorem-b"])
    assert code == PINNED["exact-z2"]["exit_code"] == 0
    assert pinned_reports(tmp_path / "out") == PINNED["exact-z2"]["checks"]


def test_s3_suite_reports_match_the_pinned_hashes(tmp_path):
    # the shipped theorem-b-s3 suite is the benchmark's mc-s3 document
    path = SUITES / "theorem-b-s3.cfg"
    assert json.loads(path.read_text())["seed"] == PINNED["mc-s3"]["seed"] == 20240602
    code = run_suite(path, tmp_path / "out", stream=io.StringIO())
    assert code == PINNED["mc-s3"]["exit_code"] == 0
    assert pinned_reports(tmp_path / "out") == PINNED["mc-s3"]["checks"]


def test_standard_suite_reports_match_the_pinned_hashes(tmp_path):
    # the shipped standard suite is the benchmark's cylinder-standard document
    path = SUITES / "standard.cfg"
    assert json.loads(path.read_text())["seed"] == PINNED["cylinder-standard"]["seed"]
    code = run_suite(path, tmp_path / "out", stream=io.StringIO())
    assert code == PINNED["cylinder-standard"]["exit_code"] == 2
    assert pinned_reports(tmp_path / "out") == PINNED["cylinder-standard"]["checks"]
    # lemma-2's point loops forget each point's memo entries and tapes, the
    # fresh-coset check places its cosets without interning a^m * wit, and
    # the tapes read a recording point by key, so the collection after the
    # check frees 70,537 objects, not 449,356
    timing = json.loads((tmp_path / "out" / "06-lemma-2.json").read_text())["timing"]
    assert timing["gc_collected"] < 80_000
