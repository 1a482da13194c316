"""In-process parts of the sacloc benchmark, run as child processes of run.py.

    worker.py provenance
        Interpreter, numpy and BLAS versions, and where sacloc was imported from.
    worker.py warm --config CFG [--spans OUT]
        Loads the checkpoint, calibration and inventory once and prints a
        ready line. Then, for each stdin line `N`, walks the next N test
        scans in order (cycling) through graphbuild.build_sample_graph and
        conformal.predict_set, the calls `sacloc predict` makes after
        loading, and prints that block's latencies and results as one JSON
        line. Ends at end of input.
    worker.py stage --spans OUT -- <sacloc CLI arguments>
        One CLI stage in process under the span tracer.
    worker.py roundtrip --config CFG
        load_checkpoint -> save_checkpoint must reproduce the file byte for byte.

Each ends by printing one JSON object on stdout. sacloc must be importable (run.py
puts the checkout's src/ on PYTHONPATH).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time


def cmd_provenance(args) -> dict:
    import numpy as np
    import sacloc

    blas: dict = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "sacloc_file": os.path.abspath(sacloc.__file__),
    }


def _fmt_prediction(ps) -> str:
    radius = "inf" if not math.isfinite(ps.radius) else f"{ps.radius:.6f}"
    return f"({ps.center[0]:.6f}, {ps.center[1]:.6f}, {ps.region}, {radius})"


def cmd_warm(args) -> dict:
    tracer = None
    if args.spans:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    from sacloc import conformal, dataset, graphbuild, gtmodel
    from sacloc.cli import CALIBRATION_NAME, CHECKPOINT_NAME, load_config

    cfg = load_config(args.config)
    model = gtmodel.load_model(cfg.output_dir / CHECKPOINT_NAME)
    calibration = conformal.load_calibration(cfg.output_dir / CALIBRATION_NAME)
    inventory = dataset.load_inventory(cfg.inventory)
    scans = dataset.load_fingerprints(cfg.test, inventory)
    ap_adj = graphbuild.build_ap_adjacency(inventory, cfg.graph)
    print(json.dumps({"ready": True}), flush=True)

    clock = time.perf_counter
    i = 0  # scan counter across blocks: the walk continues where it stopped
    blocks = 0
    for request in sys.stdin:
        scans_in_block = int(request)
        block = {"latencies_ms": [], "first_pass": [], "errors_m": [], "failures": []}
        done = 0
        while done < scans_in_block:
            sample = scans[i % len(scans)]
            if tracer is not None:
                tracer.current_tag = i
            t0 = clock()
            try:
                graph = graphbuild.build_sample_graph(sample, inventory, ap_adj, cfg.graph)
                ps = conformal.predict_set(model, calibration, graph)
            except Exception as exc:  # counted as a failed operation, the walk goes on
                block["latencies_ms"].append((clock() - t0) * 1e3)
                block["failures"].append(f"scan {i}: {exc!r}")
                i, done = i + 1, done + 1
                continue
            block["latencies_ms"].append((clock() - t0) * 1e3)
            ok = (all(math.isfinite(v) for v in ps.center)
                  and 0 <= ps.region < calibration.k and ps.radius > 0)
            if not ok:
                block["failures"].append(f"scan {i}: bad prediction set {ps}")
            if i < len(scans):
                block["first_pass"].append(_fmt_prediction(ps))
                block["errors_m"].append(math.dist(ps.center, sample.truth))
            i, done = i + 1, done + 1
        blocks += 1
        print(json.dumps(block), flush=True)
    if tracer is not None:
        tracer.dump(args.spans)
    return {"blocks": blocks}


def cmd_roundtrip(args) -> dict:
    from sacloc import autodiff
    from sacloc.cli import CHECKPOINT_NAME, load_config

    path = load_config(args.config).output_dir / CHECKPOINT_NAME
    copy = f"{path}.roundtrip"
    try:
        params, adam, step, extra = autodiff.load_checkpoint(path)
        autodiff.save_checkpoint(copy, params, adam=adam, step=step, extra=extra)
        with open(path, "rb") as a, open(copy, "rb") as b:
            same = hashlib.sha256(a.read()).digest() == hashlib.sha256(b.read()).digest()
        return {"ok": same, "detail": "" if same else "round trip changed the bytes"}
    except Exception as exc:  # reported as a failed check
        return {"ok": False, "detail": repr(exc)}
    finally:
        if os.path.exists(copy):
            os.remove(copy)


def cmd_stage(args) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    import sacloc.cli

    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    rc = 1
    try:
        with tracer.span(f"cli.{argv[0]}"):
            rc = sacloc.cli.main(argv)
    finally:
        tracer.dump(args.spans)
    return {"rc": rc, "spans": len(tracer.start)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    sub.add_parser("provenance")
    p = sub.add_parser("warm")
    p.add_argument("--config", required=True)
    p.add_argument("--spans")
    sub.add_parser("roundtrip").add_argument("--config", required=True)
    p = sub.add_parser("stage")
    p.add_argument("--spans", required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    handler = {"provenance": cmd_provenance, "warm": cmd_warm, "stage": cmd_stage,
               "roundtrip": cmd_roundtrip}[args.cmd]
    result = handler(args)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0 if result.get("rc", 0) == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
