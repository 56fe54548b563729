"""orbitlab benchmark: the three shipped suites, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --pin      # re-record bench/expected.json

Run from the root of a source checkout.  Each measured unit is a fresh
child process (bench/child.py) that imports `orbitlab` from `src/` and
calls `orbitlab.cli.run_suite` on the benchmark's own copy of the suite
document, with the document's seed set from `--seed`.  Children run one
after another: a closed loop with one client and no threads.

Untraced (`--trace 0`): the first suite run uses the suite's own seed,
whose per-check report hashes are pinned in bench/expected.json; further
runs use seed N until S seconds have passed.  Each run also times its own
set-up; set-up-only children then bring the set-up samples to at least
MIN_SETUP_SAMPLES.  Prints the
end-to-end metrics as medians over the runs.

Traced (`--trace 1`): one untraced and one traced suite run at seed N, and
one `-X importtime` child.  Prints the per-layer metrics.  The tracer is
imported only by the traced child.

Every run is gated: each check's verdict and the exit code must be the
pinned ones, each report body (without `timing`) must hash to the pinned
value at the suite's own seed and to the same value in every run of the
invocation at any other seed.  The last line of output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`; a full record goes to
`.bench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected.json"

WORKLOADS = {  # name -> expected exit code of the suite
    "exact-z2": 0,
    "mc-s3": 0,
    "cylinder-standard": 2,   # lemma-2 and lemma-3 are undetermined by design
}

END_TO_END = {"verdict_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "check_pass_ratio": "ratio"}

# Import order of the package: each module's import time is what it adds on
# top of the modules before it.  "init" is the package's __init__.
MODULES = ("init", "groups", "words", "spaces", "verify", "actions", "cocycles",
           "constructions", "cli")
LAYERS = MODULES[1:]

PER_LAYER = {
    "groups.mul.calls": "count",
    "groups.self_s": "s",
    "words.word_mul.calls": "count",
    "words.word_mul.self_s": "s",
    "words.coset.calls": "count",
    "words.coset_translate.calls": "count",
    "words.coset_translate.self_share": "ratio",
    "words.ball.self_s": "s",
    "words.self_s": "s",
    "spaces.prf.calls": "count",
    "spaces.prf.self_s": "s",
    "spaces.seeded_read.calls": "count",
    "spaces.explicit_read.calls": "count",
    "spaces.seeded_read.prf_ratio": "ratio",
    "spaces.enumerated_states": "count",
    "spaces.exact_distribution.self_s": "s",
    "spaces.enumerate.states_per_s": "1/s",
    "spaces.self_s": "s",
    "actions.apply.calls": "count",
    "actions.view_read.calls": "count",
    "actions.view_read.self_s": "s",
    "actions.first_return.calls": "count",
    "actions.first_return.self_share": "ratio",
    "actions.self_s": "s",
    "cocycles.evaluate.calls": "count",
    "cocycles.evaluate.self_share": "ratio",
    "cocycles.identities_checked": "count",
    "cocycles.undetermined": "count",
    "cocycles.self_share": "ratio",
    "constructions.parenthesis_match.calls": "count",
    "constructions.parenthesis_match.self_share": "ratio",
    "constructions.parenthesis_match.scan_len_mean": "coords",
    "constructions.parenthesis_match.unresolved": "count",
    "constructions.matcher.hit_ratio": "ratio",
    "constructions.cylinder_apply.calls": "count",
    "constructions.increment_read.calls": "count",
    "constructions.self_s": "s",
    "verify.independence_exact.s": "s",
    "verify.independence_mc.share": "ratio",
    "verify.to_payload.self_s": "s",
    "verify.self_s": "s",
    "cli.parse_config_s": "s",
    "cli.self_s": "s",
    **{f"{m}.import_s": "s" for m in MODULES},
    "total.import_s": "s",
    **{f"{m}.src_lines": "lines" for m in MODULES},
    "total.src_lines": "lines",
    "trace.verdict_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.self_coverage": "ratio",
    "trace.spans": "count",
}

MIN_SETUP_SAMPLES = 5
DEADLINE_S = 170          # the whole invocation must end within 180 s


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


# -- environment ------------------------------------------------------------------


def loadavg() -> list[float] | None:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def env_stamp() -> dict:
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {"commit": git_commit(ROOT), "nproc": os.cpu_count(),
            "python": platform.python_version(), "scipy": scipy_version,
            "loadavg": loadavg()}


# -- children ----------------------------------------------------------------------


class Session:
    """Runs the children of one invocation inside a scratch directory."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.count = 0

    def _spawn(self, argv: list[str]) -> subprocess.CompletedProcess:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise ChildFailed("out of time")
        try:
            return subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise ChildFailed("timed out") from None

    def child(self, mode: str, doc: Path, trace: bool = False) -> dict:
        self.count += 1
        argv = [sys.executable, str(BENCH / "child.py"), mode, "--doc", str(doc)]
        if mode == "run":
            out = self.workdir / f"reports-{self.count}"
            argv += ["--out", str(out)]
            if trace:
                argv += ["--trace", "--spans", str(self.workdir / "spans.json")]
        before = loadavg()
        proc = self._spawn(argv)
        if proc.returncode != 0:
            lines = proc.stderr.strip().splitlines()
            raise ChildFailed(lines[-1] if lines else f"exit code {proc.returncode}")
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        record["loadavg_before"], record["loadavg_after"] = before, loadavg()
        if mode == "run":
            shutil.rmtree(out, ignore_errors=True)
        return record

    def import_times(self) -> dict:
        """Per-module import seconds from a fresh `-X importtime` process."""
        proc = self._spawn([sys.executable, "-X", "importtime", "-c",
                            "import orbitlab.cli"])
        if proc.returncode != 0:
            raise ChildFailed("import of orbitlab.cli failed")
        return parse_importtime(proc.stderr)


def parse_importtime(text: str) -> dict:
    """Seconds each orbitlab module adds: its cumulative import time minus
    that of the orbitlab modules it imported first (lines come in post-order,
    nesting shown by indentation)."""
    out: dict = {}
    pending: list[tuple[int, int]] = []   # (depth, orbitlab cumulative us below)
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        name = name.strip()
        nested = 0
        while pending and pending[-1][0] > depth:
            nested += pending.pop()[1]
        if name == "orbitlab" or name.startswith("orbitlab."):
            module = "init" if name == "orbitlab" else name.split(".", 1)[1]
            out[module] = (int(cumulative) - nested) / 1e6
            pending.append((depth, int(cumulative)))
        else:
            pending.append((depth, nested))
    return out


def source_lines() -> dict:
    out = {}
    for module in MODULES:
        path = SRC / "orbitlab" / ("__init__.py" if module == "init" else f"{module}.py")
        out[module] = path.read_text().count("\n")
    out["total"] = sum(p.read_text().count("\n") for p in SRC.rglob("*.py"))
    return out


# -- the correctness gate ----------------------------------------------------------


class Gate:
    """Counts checks attempted and failed over the runs of one invocation."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.seen: dict = {}          # (seed, check index) -> first body hash
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, seed: int, record: dict | None, label: str) -> int:
        """Gate one suite run (None: the run crashed); returns its failures."""
        checks = self.expected["checks"]
        self.attempted += len(checks)
        if record is None:
            self.problems.append(f"{label}: crashed")
            self.failed += len(checks)
            return len(checks)
        if record["exit_code"] != self.expected["exit_code"]:
            self.problems.append(f"{label}: exit code {record['exit_code']}")
            self.failed += len(checks)
            return len(checks)
        reports = record["reports"]
        failures = 0
        for i, want in enumerate(checks):
            got = reports[i] if i < len(reports) else None
            problem = None
            if got is None or got["check"] != want["check"]:
                problem = "missing report"
            elif got["verdict"] != want["verdict"]:
                problem = f"verdict {got['verdict']}"
            elif seed == self.expected["seed"]:
                if got["sha256"] != want["sha256"]:
                    problem = "body differs from the pinned hash"
            elif self.seen.setdefault((seed, i), got["sha256"]) != got["sha256"]:
                problem = "body differs between runs at the same seed"
            if problem:
                self.problems.append(f"{label}: check {i} {want['check']}: {problem}")
                failures += 1
        if len(reports) > len(checks):
            self.problems.append(f"{label}: {len(reports) - len(checks)} extra reports")
            self.attempted += 1
            failures += 1
        self.failed += failures
        return failures


# -- metrics ------------------------------------------------------------------------


def per_layer_metrics(trace: dict, untraced: dict, traced: dict,
                      imports: dict, lines: dict) -> dict:
    fns = trace["functions"]
    extra = trace["extra"]
    verdict = traced["verdict_s"]

    def calls(*keys):
        return sum(fns.get(k, {}).get("calls", 0) for k in keys)

    def self_s(*keys):
        return sum(fns.get(k, {}).get("self_s", 0.0) for k in keys)

    def matching(prefix, suffix=""):
        return [k for k in fns if k.startswith(prefix) and k.endswith(suffix)]

    def layer_self(layer):
        return self_s(*matching(layer + "."))

    def ratio(a, b):
        return a / b if b else 0.0

    views = [f"actions.{c}.value" for c in
             ("_RelocView", "_TwistedView", "_CoinducedView", "_ValueTwistView")]
    match = "constructions.parenthesis_match"
    match_calls = calls(match)
    states = extra.get("exact_distribution.states", 0)
    m = {
        "groups.mul.calls": calls("groups.FiniteGroup.mul"),
        "groups.self_s": layer_self("groups"),
        "words.word_mul.calls": calls("words.Word.__mul__"),
        "words.word_mul.self_s": self_s("words.Word.__mul__"),
        "words.coset.calls": calls("words.coset"),
        "words.coset_translate.calls": calls("words.Coset.translate"),
        "words.coset_translate.self_share": ratio(self_s("words.Coset.translate"), verdict),
        "words.ball.self_s": self_s("words.ball"),
        "words.self_s": layer_self("words"),
        "spaces.prf.calls": calls("spaces.prf_value"),
        "spaces.prf.self_s": self_s("spaces.prf_value"),
        "spaces.seeded_read.calls": calls("spaces.SeededConfiguration.value"),
        "spaces.explicit_read.calls": calls("spaces.ExplicitConfiguration.value"),
        "spaces.seeded_read.prf_ratio": ratio(calls("spaces.prf_value"),
                                              calls("spaces.SeededConfiguration.value")),
        "spaces.enumerated_states": trace["items"].get("spaces.enumerate_window", 0),
        "spaces.exact_distribution.self_s": self_s("spaces.exact_distribution"),
        "spaces.enumerate.states_per_s": ratio(
            states, fns.get("spaces.exact_distribution", {}).get("outer_s", 0.0)),
        "spaces.self_s": layer_self("spaces"),
        "actions.apply.calls": calls(*matching("actions.", ".apply")),
        "actions.view_read.calls": calls(*views),
        "actions.view_read.self_s": self_s(*views),
        "actions.first_return.calls": calls("actions.FirstReturnOracle.first_return"),
        "actions.first_return.self_share": ratio(
            self_s("actions.FirstReturnOracle.first_return"), verdict),
        "actions.self_s": layer_self("actions"),
        "cocycles.evaluate.calls": calls("cocycles.Cocycle.evaluate"),
        "cocycles.evaluate.self_share": ratio(self_s("cocycles.Cocycle.evaluate"), verdict),
        "cocycles.identities_checked": extra.get("cocycles.identities_checked", 0),
        "cocycles.undetermined": extra.get("cocycles.undetermined", 0),
        "cocycles.self_share": ratio(layer_self("cocycles"), verdict),
        f"{match}.calls": match_calls,
        f"{match}.self_share": ratio(self_s(match), verdict),
        f"{match}.scan_len_mean": ratio(extra.get("parenthesis_match.scan_len", 0),
                                        match_calls),
        f"{match}.unresolved": extra.get("parenthesis_match.unresolved", 0),
        "constructions.matcher.hit_ratio": ratio(extra.get("matcher.hits", 0),
                                                 extra.get("matcher.lookups", 0)),
        "constructions.cylinder_apply.calls": calls("constructions.CylinderAction.apply"),
        "constructions.increment_read.calls": calls("constructions.increment_variable",
                                                    "constructions.IncrementView.value"),
        "constructions.self_s": layer_self("constructions"),
        "verify.independence_exact.s":
            fns.get("verify.independence_exact", {}).get("outer_s", 0.0),
        "verify.independence_mc.share": ratio(
            fns.get("verify.independence_mc", {}).get("outer_s", 0.0), verdict),
        "verify.to_payload.self_s": self_s("verify.VerificationReport.to_payload"),
        "verify.self_s": layer_self("verify"),
        "cli.parse_config_s": traced["parse_config_s"],
        "cli.self_s": layer_self("cli"),
    }
    for module in MODULES:
        m[f"{module}.import_s"] = imports.get(module, 0.0)
    m["total.import_s"] = sum(imports.values())
    for module in (*MODULES, "total"):
        m[f"{module}.src_lines"] = lines[module]
    m["trace.verdict_s"] = verdict
    m["trace.overhead_ratio"] = verdict / untraced["verdict_s"]
    m["trace.self_coverage"] = sum(layer_self(l) for l in LAYERS if l != "cli") / verdict
    m["trace.spans"] = trace["spans"]
    return m


def labelled(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


# -- the invocation -----------------------------------------------------------------


def write_doc(path: Path, document: dict, seed: int) -> Path:
    path.write_text(json.dumps(dict(document, seed=seed), indent=2) + "\n")
    return path


def emit(tag: str, obj) -> None:
    print(f"{tag} {json.dumps(obj, sort_keys=True)}", flush=True)


def run_untraced(session, gate, docs, default_seed, seed, seconds) -> tuple[dict, list]:
    setups, runs = [], []
    began = time.monotonic()
    i = 0
    while i < 2 or time.monotonic() - began < seconds:
        if time.monotonic() + 5 > session.deadline:
            break
        run_seed = default_seed if i == 0 else seed
        try:
            record = session.child("run", docs[run_seed])
        except ChildFailed as err:
            emit("crash", {"seed": run_seed, "error": str(err)})
            record = None
        gate.check(run_seed, record, f"run {i} seed {run_seed}")
        if record is not None:
            setups.append(record["setup_s"])
            runs.append(record)
            emit("run", {k: v for k, v in record.items() if k != "reports"})
        i += 1
    if not runs:
        return {}, runs
    while len(setups) < MIN_SETUP_SAMPLES and time.monotonic() + 5 < session.deadline:
        try:
            setups.append(session.child("setup", docs[default_seed])["setup_s"])
        except ChildFailed as err:
            emit("crash", {"setup": True, "error": str(err)})
            break
    values = {
        "verdict_s": statistics.median(r["verdict_s"] for r in runs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "check_pass_ratio": (gate.attempted - gate.failed) / gate.attempted,
    }
    return values, runs


def run_traced(session, gate, docs, seed, out_dir, stem) -> tuple[dict, list]:
    imports = session.import_times()
    records = []
    for trace in (False, True):
        try:
            record = session.child("run", docs[seed], trace=trace)
        except ChildFailed as err:
            emit("crash", {"seed": seed, "trace": trace, "error": str(err)})
            record = None
        gate.check(seed, record, f"{'traced' if trace else 'untraced'} seed {seed}")
        records.append(record)
    untraced, traced = records
    if untraced is None or traced is None:
        return {}, records
    if not traced["trace"]["restored"]:
        gate.problems.append("tracer left a wrapped name behind")
    spans = session.workdir / "spans.json"
    shutil.copyfile(spans, out_dir / f"{stem}.spans.json")
    values = per_layer_metrics(traced["trace"], untraced, traced, imports, source_lines())
    emit("trace", {k: v for k, v in traced["trace"].items() if k != "functions"})
    return values, records


@contextlib.contextmanager
def scratch_dir(name: str):
    """A scratch directory under .bench_work/, removed on the way out."""
    parent = ROOT / ".bench_work"
    path = parent / f"{name}-{os.getpid()}"
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            parent.rmdir()


def pin() -> int:
    """Record verdicts, exit codes and body hashes at each suite's own seed."""
    expected = {}
    with scratch_dir("pin") as workdir:
        session = Session(workdir, time.monotonic() + 600)
        for name, exit_code in WORKLOADS.items():
            document = json.loads((BENCH / "suites" / f"{name}.json").read_text())
            doc = write_doc(workdir / f"{name}.json", document, document["seed"])
            record = session.child("run", doc)
            if record["exit_code"] != exit_code:
                raise SystemExit(f"{name}: exit code {record['exit_code']}, "
                                 f"expected {exit_code}")
            expected[name] = {
                "seed": document["seed"], "exit_code": exit_code,
                "checks": [{k: r[k] for k in ("check", "verdict", "sha256")}
                           for r in record["reports"]]}
    EXPECTED.write_text(json.dumps(expected, indent=2) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="orbitlab benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--pin", action="store_true",
                        help="re-record bench/expected.json from this checkout")
    args = parser.parse_args(argv)
    if not (SRC / "orbitlab" / "cli.py").is_file():
        print(f"no orbitlab sources under {SRC}", file=sys.stderr)
        return 2
    if args.pin:
        return pin()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    started = time.monotonic()
    compileall.compile_dir(str(SRC), quiet=1)
    expected = json.loads(EXPECTED.read_text())[args.workload]
    document = json.loads((BENCH / "suites" / f"{args.workload}.json").read_text())
    default_seed = expected["seed"]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    env = env_stamp()
    emit("env", env)
    gate = Gate(expected)
    values, records = {}, []
    with scratch_dir(stem) as workdir:
        docs = {s: write_doc(workdir / f"seed{s}.json", document, s)
                for s in {default_seed, args.seed}}
        session = Session(workdir, started + DEADLINE_S)
        try:
            if args.trace:
                values, records = run_traced(session, gate, docs, args.seed,
                                             out_dir, stem)
            else:
                values, records = run_untraced(session, gate, docs, default_seed,
                                               args.seed, args.seconds)
        except ChildFailed as err:
            gate.check(args.seed, None, f"child failed ({err})")
    units = PER_LAYER if args.trace else END_TO_END
    env["loadavg_end"] = loadavg()
    for problem in gate.problems:
        emit("gate", problem)
    result = {"correct": not gate.problems and bool(values),
              "attempted": gate.attempted, "failed": gate.failed,
              "metrics": labelled(values, units) if values else {}}
    (out_dir / f"{stem}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "env": env, "problems": gate.problems, "runs": records, "result": result},
        indent=1, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
