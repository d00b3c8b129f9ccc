"""One cold ellgen CLI command, timed by its own clock.

    python3 perfbench/child.py [--trace SPANS.json] -- <ellgen CLI args>

This does what `python -m ellgen.cli <args>` does, with the checkout's
`src` on PYTHONPATH.  The clock starts just before `import ellgen.cli` and
stops once the command's output has been flushed, so the op includes the
package's import cost but not interpreter start-up.  The times go to
stderr as the last line, prefixed by `perfbench-timing `.

After the clock stops the child times the reference loop of
calibration.py twice and reports those times with its own.  With
`--trace`, the wrappers of `tracing.py` are installed after the import and
the spans, counters and cache totals are written to SPANS.json after the
clock stops.
"""

import sys
import time


def main() -> int:
    args = sys.argv[1:]
    spans_path = None
    if args[:1] == ["--trace"]:
        spans_path, args = args[1], args[2:]
    if args[:1] == ["--"]:
        args = args[1:]

    t0 = time.perf_counter()
    import ellgen.cli

    t1 = time.perf_counter()
    tracer = caches = None
    if spans_path:
        import tracing

        caches = tracing.find_caches()
        tracer = tracing.Tracer()
        tracer.install()
    t2 = time.perf_counter()
    rc = ellgen.cli.main(args)
    sys.stdout.flush()
    t3 = time.perf_counter()

    import json

    from calibration import reference_pair

    times = {"op_s": t3 - t0, "import_s": t1 - t0, "main_s": t3 - t2}
    if tracer:
        tracer.uninstall()
        tracer.write(spans_path, {"times": times, "cache": tracing.cache_snapshot(caches)})
    times["refs"] = reference_pair()
    sys.stderr.write("perfbench-timing " + json.dumps(times) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
