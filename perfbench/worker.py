"""One workload pass in a fresh process: import ugmt, run suites, check reports.

Invoked by run.py as ``python3 perfbench/worker.py '<json spec>'``; prints one
JSON object on its last stdout line.  Spec keys: ``src`` (the checkout's
``src`` directory), ``suites``, ``seed``, ``samples``, ``out`` (report
directory), ``trace`` (wrap the layers), ``probe`` (import only, then exit).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import sys
import time
import traceback


def report_digest(payload: dict) -> str:
    """sha256 of a report's numeric payload: everything except the timestamp."""
    body = {k: v for k, v in payload.items() if k != "timestamp"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_report(cli, path: str, rc) -> dict:
    """Correctness gate for one saved report, given the suite's exit code."""
    with open(path) as fh:
        payload = json.load(fh)
    problems = list(cli.validate_report_schema(payload))
    records = payload.get("records", [])
    failed = 0
    sigmas = []
    for rec in records:
        value, sigma = rec.get("value"), rec.get("sigma")
        finite = all(isinstance(x, (int, float)) and math.isfinite(x) for x in (value, sigma))
        if not rec.get("pass") or not finite:
            failed += 1
        if finite and sigma > 0:
            sigmas.append(sigma)
    if rc != (0 if payload.get("all_pass") else 1):
        problems.append(f"exit code {rc} disagrees with all_pass={payload.get('all_pass')}")
    return {"records": len(records), "failed": failed, "sigmas": sigmas,
            "problems": problems, "digest": report_digest(payload)}


def blas_info() -> dict:
    """BLAS library and the thread count it uses in this process."""
    import ctypes
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "blas" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                threads = fn()
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def main(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    from ugmt import cli
    ready = time.time()
    if spec.get("probe"):
        return {"ready": ready}
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    suites = []
    for suite in spec["suites"]:
        out_dir = os.path.join(spec["out"], suite)
        argv = ["run", suite, "--seed", str(spec["seed"]), "--samples", str(spec["samples"]),
                "--out", out_dir]
        error = None

        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv)

        cpu0 = time.process_time()
        start = time.perf_counter()
        try:
            rc = tracer.suite(suite, call) if tracer else call()
        except Exception:
            rc, error = None, traceback.format_exc(limit=3)
        wall = time.perf_counter() - start
        entry = {"suite": suite, "rc": rc, "wall_s": wall,
                 "cpu_s": time.process_time() - cpu0, "error": error}
        if error is None and rc != 2:
            entry.update(check_report(cli, os.path.join(out_dir, f"{suite}.json"), rc))
        suites.append(entry)
    result = {"ready": ready, "suites": suites,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "blas": blas_info()}
    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.metrics(spec["all_suites"])
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
