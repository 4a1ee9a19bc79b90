"""One benchmark run of one workload, in a fresh process.

    python3 perfbench/child.py SUBCOMMAND CONFIG OUT_CSV RESULT_JSON
        [--trace SPANS_JSON] [--setup-only]

Times the import of ``stokesproj.cli`` plus parsing and validating the
config (``setup_s``), then ``cli.main`` until the CSV is written
(``wall_s``), and writes those with the process's peak RSS and its
environment to RESULT_JSON.  With ``--trace`` the tracer is installed
before ``cli.main`` and removed after it; the spans go to SPANS_JSON and
the per-layer metrics, with the estimated cost of the wrappers, to
RESULT_JSON.  Run from the repository root.
"""

import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))


def _blas():
    import numpy

    info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": info.get("name"), "version": info.get("version")}


def main(argv):
    subcommand, config_path, out_csv, result_path = argv[:4]
    spans_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None

    start = time.perf_counter()
    from stokesproj import cli

    cli.parse_config(config_path)
    setup_s = time.perf_counter() - start

    result = {"setup_s": setup_s}
    if "--setup-only" not in argv:
        import tracer

        trace = tracer.Tracer() if spans_path else None
        if trace:
            trace.install()
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            rc = cli.main([subcommand, "--config", config_path, "--out", out_csv])
        finally:
            wall_s = time.perf_counter() - start
            cpu_s = time.process_time() - cpu_start
            if trace:
                trace.uninstall()
        result.update(rc=rc, wall_s=wall_s, cpu_s=cpu_s, wrappers_left=tracer.installed_wrappers())
        if trace:
            import layers

            result["layers"] = layers.layer_metrics(trace.spans, trace.counters)
            result["layers"]["trace.overhead_s"] = trace.overhead_s()
            with open(spans_path, "w") as fh:
                json.dump({"counters": trace.counters, "spans": trace.spans}, fh)

    import numpy
    import scipy

    result.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        numpy=numpy.__version__,
        scipy=scipy.__version__,
        blas=_blas(),
    )
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
