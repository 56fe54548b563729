"""One measured orbitlab process, started fresh by bench/run.py.

    python3 bench/child.py setup --doc DOC
    python3 bench/child.py run --doc DOC --out DIR [--trace --spans FILE]

`setup` times the cold `import orbitlab.cli` plus `parse_config` of the
document.  `run` does the same, then calls `orbitlab.cli.run_suite` on the
document and times it to its exit code; with `--trace` the tracer wraps the
package between the two, and its spans are written to FILE.  The process
prints one JSON object on its last line of output.  `orbitlab` must be
importable (the caller puts `src/` on PYTHONPATH).
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def body_sha256(body: dict) -> str:
    """sha256 of a report body without its wall-clock `timing` field."""
    body = {k: v for k, v in body.items() if k != "timing"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_hashes(out_dir) -> list[dict]:
    """Check name, verdict and body hash of each report file, in suite order."""
    out = []
    for path in sorted(Path(out_dir).glob("[0-9][0-9]-*.json")):
        body = json.loads(path.read_text())
        out.append({"file": path.name, "check": body["check"],
                    "verdict": body["report"]["verdict"], "sha256": body_sha256(body)})
    return out


def measure_setup(doc_path: str) -> dict:
    started = time.perf_counter()
    import orbitlab.cli
    imported = time.perf_counter()
    orbitlab.cli.parse_config(json.loads(Path(doc_path).read_text()))
    done = time.perf_counter()
    return {"setup_s": done - started, "parse_config_s": done - imported}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "run"])
    parser.add_argument("--doc", required=True)
    parser.add_argument("--out")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    result = measure_setup(args.doc)
    if args.mode == "run":
        from orbitlab.cli import run_suite
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer().install()
        try:
            started = time.perf_counter()
            code = run_suite(args.doc, args.out, stream=io.StringIO())
            result["verdict_s"] = time.perf_counter() - started
        finally:
            if tracer is not None:
                tracer.uninstall()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["exit_code"] = code
        result["reports"] = report_hashes(args.out)
        if tracer is not None:
            result["trace"] = tracer.summary()
            result["trace"]["restored"] = tracer.restored()
            Path(args.spans).write_text(json.dumps(tracer.span_records()) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
