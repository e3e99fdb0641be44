"""Run the cncflsa CLI in this process, as ``python -m cncflsa.cli`` does,
and report what the benchmark cannot see from outside.

    python3 perfbench/clichild.py <report.json> <trace 0|1> denoise in.txt out.txt ...

The report holds the import time of ``cncflsa.cli``, the process's peak
resident set and, with trace 1, the span of every public function.  The
peak is VmHWM from /proc/self/status: it belongs to this process alone,
whereas ru_maxrss also counts the memory of the process that spawned it.
"""

import json
import sys
import time


def main(report, trace, argv):
    t0 = time.perf_counter_ns()
    from cncflsa import cli
    import_ns = time.perf_counter_ns() - t0
    spans = []
    if trace == "1":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        spans = tracer.spans
    code = cli.main(argv)
    with open("/proc/self/status", encoding="ascii") as fh:
        hwm_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    with open(report, "w", encoding="ascii") as fh:
        json.dump({"import_ns": import_ns, "hwm_kb": hwm_kb, "spans": spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3:]))
