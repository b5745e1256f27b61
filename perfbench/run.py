"""ugmt benchmark: verification-suite workloads, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pathwise --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all                  # every workload, table
    python3 perfbench/run.py --workload all --trace 1 --out results.jsonl

A workload is a list of ``ugmt run`` suites.  Each pass runs them in a fresh
worker process by calling ``ugmt.cli.main(["run", suite, "--seed", S, ...])``
in-process against the checkout's ``src/``, with ``UGMT_WORKERS`` unset (the
sequential default) and the default 20,000 samples.  The suite seed ``S`` is
``--suite-seed`` (default 20240901, the seed every suite passes at); the
benchmark ``--seed`` fixes the order in which the workload's suites run, so
each run sees another interpreter state, while the numeric reports (checked by
digest) must not change.

``--trace 0`` measures passes while ``--seconds`` allows (at least one) and
reports the end-to-end metrics; ``--trace 1`` runs one untraced and one traced
pass and reports the per-layer metrics (see tracer.py).  Every pass is gated:
each report passes ``cli.validate_report_schema``, the exit code agrees with
``all_pass``, and each suite's report digest equals the one recorded for the
same source tree, suite seed and sample count by earlier runs in this checkout
(``perfbench/.work/digests.json``) and by the other passes of this run.

The last stdout line is the JSON result ``{"correct", "attempted", "failed",
"metrics"}``; ``--out FILE`` also appends a full record (fingerprint, digests,
per-suite times) for compare.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

WORKLOADS = {
    "pathwise": ("campbell", "bakry-emery", "capacity"),
    "variational": ("tv-equivalence", "intertwine"),
    "level-sheets": ("monotonicity", "coarea", "de-giorgi", "gauss-green"),
}
ALL_SUITES = tuple(s for suites in WORKLOADS.values() for s in suites)

SAMPLES = 20_000           # the ugmt default, as users run it
SETUP_PROBES = 3          # import-only processes per run, besides each pass
PASS_TIMEOUT_S = 150      # one worker process; a run must end within 180 s


def _spec_metrics(kind: str) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench[kind]}


def check_predictions(workload: str, metrics: dict) -> list[dict]:
    """Test predictions.json's home/bypass claims for one workload's trace."""
    with open(HERE / "predictions.json") as fh:
        preds = json.load(fh)["predictions"]
    out = []
    for p in preds:
        if p["workload"] != workload:
            continue
        value = metrics[p["metric"]]
        if "per" in p:
            den = metrics[p["per"]]
            value = value / den if den else 0.0
        held = p.get("min", -math.inf) <= value <= p.get("max", math.inf)
        out.append({"metric": p["metric"], "per": p.get("per"), "value": value,
                    "min": p.get("min"), "max": p.get("max"), "held": held,
                    "claim": p["claim"]})
    return out


def src_digest() -> str:
    """sha256 over the package sources; identifies the code under test."""
    h = hashlib.sha256()
    for path in sorted((SRC / "ugmt").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def commit_id() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def fingerprint(blas: dict, ugmt_workers: str | None) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "blas": blas,
            "ugmt_workers_env": ugmt_workers, "commit": commit_id(),
            "src_sha256": src_digest()}


def spawn(spec: dict, timeout: float) -> tuple[dict, float]:
    """Run worker.py on spec; returns (its result, wall-clock spawn time)."""
    env = {k: v for k, v in os.environ.items() if k != "UGMT_WORKERS"}
    spawned = time.time()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                          cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned


class Ledger:
    """Report digests per (source, suite seed, samples), kept across runs."""

    def __init__(self, key: str):
        self.path = WORK / "digests.json"
        self.key = key
        try:
            with open(self.path) as fh:
                self.data = json.load(fh)
        except (OSError, ValueError):
            self.data = {}

    def check(self, suite: str, digest: str) -> str | None:
        known = self.data.setdefault(self.key, {})
        if known.setdefault(suite, digest) != digest:
            return f"{suite}: report digest {digest[:12]} differs from {known[suite][:12]}"
        return None

    def save(self) -> None:
        WORK.mkdir(exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def run_workload(name: str, args, deadline: float) -> dict:
    order = list(WORKLOADS[name])
    random.Random(args.seed).shuffle(order)
    out_root = WORK / f"reports-{os.getpid()}"
    base = {"src": str(SRC), "seed": args.suite_seed, "samples": SAMPLES,
            "all_suites": ALL_SUITES}
    ledger = Ledger(f"{src_digest()}:{args.suite_seed}:{SAMPLES}")
    setup, passes, problems = [], [], []

    def one_pass(trace: bool) -> dict:
        out = str(out_root / f"pass{len(passes)}")
        remaining = deadline - time.monotonic()
        res, spawned = spawn(dict(base, suites=order, out=out, trace=trace),
                             min(PASS_TIMEOUT_S, max(remaining, 1.0)))
        shutil.rmtree(out, ignore_errors=True)
        res["trace"] = trace
        res["setup_s"] = res["ready"] - spawned
        for s in res["suites"]:
            if s["error"]:
                problems.append(f"{s['suite']} raised: {s['error']}")
            problems.extend(f"{s['suite']}: {p}" for p in s.get("problems", []))
            if "digest" in s:
                bad = ledger.check(s["suite"], s["digest"])
                if bad:
                    problems.append(bad + (" (traced)" if trace else ""))
        passes.append(res)
        return res

    try:
        if args.trace:
            untraced = one_pass(False)
            traced = one_pass(True)
        else:
            for _ in range(SETUP_PROBES):
                res, spawned = spawn(dict(base, probe=True), 60)
                setup.append(res["ready"] - spawned)
            start = time.monotonic()
            while True:
                res = one_pass(False)
                spent = time.monotonic() - start
                if spent + spent / len(passes) > args.seconds:
                    break
            setup.extend(p["setup_s"] for p in passes)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    ledger.save()

    attempted = failed = 0
    for p in passes:
        for s in p["suites"]:
            n = s.get("records", 0)
            bad = s.get("failed", 0)
            if s["error"] or s["rc"] == 2:
                n, bad = n + 1, bad + 1
            attempted += n
            failed += bad
    first = passes[0]
    walls = [sum(s["wall_s"] for s in p["suites"]) for p in passes if not p["trace"]]
    record = {"workload": name, "seed": args.seed, "suite_seed": args.suite_seed,
              "samples": SAMPLES, "trace": bool(args.trace), "order": order,
              "passes": len(passes), "problems": problems,
              "attempted": attempted, "failed": failed,
              "digests": {s["suite"]: s.get("digest") for s in first["suites"]},
              "blas": first["blas"],
              "suite_wall_s": {s["suite"]: s["wall_s"] for s in first["suites"]},
              "suite_cpu_s": {s["suite"]: s["cpu_s"] for s in first["suites"]}}
    if args.trace:
        layers = traced["layers"]
        traced_wall = sum(s["wall_s"] for s in traced["suites"])
        layers["trace.wall_s"] = traced_wall
        layers["trace_overhead_s"] = traced_wall - walls[0]
        record["metrics"] = layers
        record["predictions"] = check_predictions(name, layers)
        # the layer self times and other.self_s must account for the traced wall
        layer_sum = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        record["layer_sum_s"] = layer_sum
        if abs(layer_sum - traced_wall) > 0.02 * traced_wall:
            problems.append(f"layer self times sum to {layer_sum:.3f} s, "
                            f"traced wall is {traced_wall:.3f} s")
    else:
        sigmas = [x for s in first["suites"] for x in s.get("sigmas", [])]
        gmean = math.exp(statistics.fmean(math.log(x) for x in sigmas)) if sigmas else 0.0
        record["metrics"] = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "sigma_gmean": gmean,
            "pass_frac": 1.0 - failed / attempted if attempted else 0.0,
        }
        record["setup_samples_s"] = setup
        record["wall_samples_s"] = walls
    record["correct"] = not problems
    return record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0,
                   help="benchmark seed: the order of the workload's suites")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="measurement budget; untraced passes repeat while it allows")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--suite-seed", type=int, default=20240901)
    p.add_argument("--out", default=None, help="append full result records (JSON lines)")
    args = p.parse_args(argv)
    if not (SRC / "ugmt" / "cli.py").is_file():
        print(f"no ugmt sources under {SRC}", file=sys.stderr)
        return 2

    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    kind = "per_layer" if args.trace else "end_to_end"
    units = _spec_metrics(kind)
    # recorded, then cleared for the workers: runs are sequential, as by default
    ugmt_workers = os.environ.get("UGMT_WORKERS")
    deadline = time.monotonic() + 170.0 * len(workloads)
    records = []
    for name in workloads:
        rec = run_workload(name, args, deadline)
        rec["fingerprint"] = fingerprint(rec.pop("blas"), ugmt_workers)
        records.append(rec)
        if args.out:
            with open(args.out, "a") as fh:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
        for problem in rec["problems"]:
            print(f"{name}: PROBLEM {problem}")
        for p in rec.get("predictions", []):
            what = p["metric"] + (f" / {p['per']}" if p["per"] else "")
            verdict = "held" if p["held"] else "CONTRADICTED"
            print(f"{name}: prediction {verdict}: {what} = {p['value']:.4g} "
                  f"(min {p['min']}, max {p['max']}): {p['claim']}")
        shown = dict(rec["metrics"])
        if not args.trace:
            shown["fail_frac"] = rec["failed"] / rec["attempted"] if rec["attempted"] else 0.0
        for metric, value in shown.items():
            print(f"{name:13s} {metric:34s} {value:14.6g} {units.get(metric, 'fraction')}")
    print(json.dumps({"fingerprint": records[0]["fingerprint"]}))

    metrics = {}
    for rec in records:
        prefix = "" if len(records) == 1 else rec["workload"] + "."
        for metric, unit in units.items():
            metrics[prefix + metric] = {"value": rec["metrics"][metric], "unit": unit}
    print(json.dumps({"correct": all(r["correct"] for r in records),
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
