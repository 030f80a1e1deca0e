"""One fresh worker process of the benchmark; started by run.py.

The worker times `import qhb` before it loads numpy or any benchmark
module, so the import time includes numpy as a user pays it.  It then
runs the workload's cold request, and in the loop modes sends requests
one at a time (a closed loop with one caller).  The probe mode sends the
workload's known-defect probe requests instead.  Its result is one JSON
line on stdout.

    python3 bench/worker.py --workload W --seed S --mode setup|loop|traced|probe
                            [--seconds T] [--requests K] [--spans FILE]
"""

import argparse
import json
import resource
import time
from contextlib import nullcontext


def _null_span(name):
    return nullcontext()


def _serve(qhb, workloads, req, span):
    t0 = time.perf_counter()
    try:
        result = workloads.execute(qhb, req, span)
    except Exception as exc:  # a raising request is a failed request
        result = exc
    return time.perf_counter() - t0, result


def _record(qhb, workloads, req, seconds, result) -> list:
    out = workloads.check(qhb, req, result)
    return [seconds, out.reason, out.wrong, out.items, out.err]


def main(argv=None) -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "loop", "traced", "probe"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0, help="loop: measuring time")
    ap.add_argument("--requests", type=int, default=0, help="traced: request count")
    ap.add_argument("--spans", help="traced: write the spans to this .npz file")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import qhb
    import_s = time.perf_counter() - t0

    import workloads

    cold = workloads.cold_request(args.workload, args.seed)
    cold_s, result = _serve(qhb, workloads, cold, _null_span)
    report = {
        "import_s": import_s,
        "cold_s": cold_s,
        "cold": _record(qhb, workloads, cold, cold_s, result),
        "qhb_file": qhb.__file__,
    }
    if args.mode == "setup":
        print(json.dumps(report))
        return

    stream = workloads.requests(args.workload, args.seed)
    records = []
    if args.mode == "probe":
        for req in workloads.probe_requests(args.workload):
            seconds, result = _serve(qhb, workloads, req, _null_span)
            records.append(_record(qhb, workloads, req, seconds, result))
    elif args.mode == "loop":
        # measure for --seconds, then finish the current block of the mix
        end = time.perf_counter() + args.seconds
        block = workloads.block_size(args.workload)
        while not records or time.perf_counter() < end or len(records) % block:
            req = next(stream)
            seconds, result = _serve(qhb, workloads, req, _null_span)
            records.append(_record(qhb, workloads, req, seconds, result))
    else:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        for i in range(args.requests):
            req = next(stream)
            tracer.current_request = i
            seconds, result = _serve(qhb, workloads, req, tracer.span)
            tracer.current_request = -1
            records.append(_record(qhb, workloads, req, seconds, result))
        spans = tracer.arrays()
        report["layers"] = tracing.layer_metrics(spans, args.requests)
        report["self_sums"] = tracing.request_self_sums(spans, args.requests).tolist()
        report["spans"] = len(tracer.t0)
        if args.spans:
            tracer.save(args.spans)

    import numpy

    report["records"] = records
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["numpy"] = numpy.__version__
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    report["blas"] = f"{blas.get('name')} {blas.get('version')}"
    print(json.dumps(report))


if __name__ == "__main__":
    main()
