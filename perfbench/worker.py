"""The process that runs the program: it imports only ``mellinops``.

    python3 perfbench/worker.py <src directory>

``run.py`` starts one worker per workload and sends it pickled requests on
standard input; each reply is pickled to the original standard output,
which is moved off fd 1 so that nothing the program prints can corrupt it.
The output checks, with sympy and mpmath, stay in the parent, so the
worker's peak resident memory is the program's own.

Requests, as tuples:

- ``("run", argv, op_id)``: one ``cli.main(argv, stream)`` call, with the
  reference kernel timed right before and right after it.  Reply ``(exit
  code or None if an exception escaped, stdout text, process seconds,
  (clock, reference seconds) before, (clock, reference seconds) after)``.
- ``("reset",)``: empty the monomial-product cache and freeze the objects
  alive so far out of the garbage collector.
- ``("trace_on",)`` / ``("trace_off", spans_path)``: install or remove the
  tracer; ``trace_off`` replies with its totals (see ``tracing.py``).
- ``("peak_rss_kb",)``: this process's peak resident memory.
"""

from __future__ import annotations

import os
import sys


def main():
    replies = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    sys.path.insert(0, sys.argv[1])

    import gc
    import io
    import pickle
    import resource
    import time

    from mellinops import cli
    from mellinops.ore import _mono_mul
    from reference import reference_seconds

    requests = sys.stdin.buffer
    tracer = None
    cache_before = None
    while True:
        try:
            kind, *args = pickle.load(requests)
        except EOFError:
            return 0
        if kind == "run":
            argv, op_id = args
            before = (time.perf_counter(), reference_seconds())
            if tracer is not None:
                tracer.op_id = op_id
            buf = io.StringIO()
            t0 = time.process_time()
            try:
                rc = cli.main(argv, buf)
            except (Exception, SystemExit) as exc:  # noqa: BLE001 - a failed operation
                rc = None
                print(f"operation raised {type(exc).__name__}: {exc} :: {argv}", file=sys.stderr)
            cpu_s = time.process_time() - t0
            after = (time.perf_counter(), reference_seconds())
            reply = (rc, buf.getvalue(), cpu_s, before, after)
        elif kind == "reset":
            _mono_mul.cache_clear()
            gc.collect()
            gc.freeze()
            reply = None
        elif kind == "trace_on":
            from tracing import Tracer

            _mono_mul.cache_clear()
            cache_before = _mono_mul.cache_info()
            tracer = Tracer()
            tracer.install()
            reply = None
        elif kind == "trace_off":
            tracer.uninstall()
            after = _mono_mul.cache_info()
            tracer.save(args[0])
            reply = tracer.summary(after.hits - cache_before.hits,
                                   after.misses - cache_before.misses)
            tracer = None
        elif kind == "peak_rss_kb":
            reply = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            raise ValueError(f"unknown request {kind!r}")
        pickle.dump(reply, replies)
        replies.flush()


if __name__ == "__main__":
    sys.exit(main())
