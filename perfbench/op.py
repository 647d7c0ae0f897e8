"""Run one masim CLI invocation in this (fresh) process and record its cost.

Usage:
    python3 perfbench/op.py --result R.json [--spans S.csv]
        [--wrap module:attr=span ...] -- <masim argv>

The import of ``masim.cli`` is timed on its own (set-up), then
``masim.cli.main(argv)`` is timed (the operation). With ``--spans`` the
operation is traced: every ``--wrap`` target is replaced, where its caller
looks it up, by a wrapper that records a span (name, start, end, parent)
in memory. The spans are written to the CSV when the operation ends, and
per-span self times, call counts and the simulated counts of every
returned ``SimReport`` go into the result JSON. A target that no longer
exists is listed under ``missing`` and yields zero calls.

Every child also times ``calibrate()``, a fixed kernel that runs no masim
code, so run.py can take the drift in a shared host's speed out of its
host times. With no masim argv the process only imports ``masim.cli`` and
calibrates (a set-up probe).

The CLI's own exit status, or the exception it raised, is written to the
result; this process itself exits 0 whenever it could write the result.
"""

from __future__ import annotations

import functools
import heapq
import importlib
import json
import resource
import sys
import time
import traceback

ROOT_SPAN = "cli.main"


class Tracer:
    """In-memory span recorder for wrapped functions of one process."""

    def __init__(self):
        self.spans: list = []          # (name, start_ns, end_ns, parent index)
        self._stack: list[int] = []
        self.missing: list[str] = []
        self.sim = {"runs": 0, "events": 0, "steals": 0, "cycles": 0,
                    "compute_cycles": 0, "stall_cycles": 0,
                    "prefetch_cycles": 0, "array_cycles": 0, "bytes": 0}

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)

    def wrap(self, target: str, name: str):
        """Replace module attribute ``target`` ("module:attr") by a traced wrapper."""
        module_name, _, attr = target.partition(":")
        try:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
        except (ImportError, AttributeError):
            self.missing.append(name)
            return
        on_result = self.count_sim if name == "simulator.run_mpe" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        setattr(module, attr, traced)

    def count_sim(self, report):
        """Add the simulated counts of one returned SimReport."""
        arrays = getattr(report, "arrays", [])
        cycles = getattr(report, "total_cycles", 0)
        s = self.sim
        s["runs"] += 1
        s["events"] += len(getattr(report, "trace", ()))
        s["steals"] += len(getattr(report, "steal_events", ()))
        s["cycles"] += cycles
        s["array_cycles"] += len(arrays) * cycles
        for a in arrays:
            for key in ("compute_cycles", "stall_cycles", "prefetch_cycles"):
                s[key] += getattr(a, key, 0)
            s["bytes"] += getattr(a, "bytes_in", 0) + getattr(a, "bytes_out", 0)

    def layers(self) -> dict:
        """Self seconds (duration minus direct children) and calls per span name."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict = {}
        for (name, start, end, _), inner in zip(self.spans, child_ns):
            rec = out.setdefault(name, {"self_s": 0.0, "calls": 0})
            rec["self_s"] += (end - start - inner) / 1e9
            rec["calls"] += 1
        return out

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("name,start_ns,end_ns,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start},{end},{parent}\n")


def calibrate() -> float:
    """Host seconds for a fixed mix of interpreter, small-array and large-array work.

    The three parts mirror the event loop, the per-block numerics and the
    float64 oracle; it runs no masim code, so no change to masim moves it.
    Call it after numpy is imported.
    """
    np = sys.modules["numpy"]
    start = time.perf_counter()
    heap: list = []
    seen: dict = {}
    for i in range(30000):
        key = (i * 7919) % 10007
        seen[key] = seen.get(key, 0) + len(str(key))
        heapq.heappush(heap, (key, i))
    while heap:
        heapq.heappop(heap)
    col = np.arange(128, dtype=np.float32)
    acc = np.zeros((128, 128), np.float32)
    tmp = np.empty_like(acc)
    for _ in range(3000):
        np.multiply.outer(col, col, out=tmp)
        np.add(acc, tmp, out=acc)
    col, row = col.astype(np.float64), np.arange(4096, dtype=np.float64)
    big = np.zeros((128, 4096))
    tmp = np.empty_like(big)
    for _ in range(60):
        np.multiply.outer(col, row, out=tmp)
        np.add(big, tmp, out=big)
    return time.perf_counter() - start


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    own, cli_argv = argv[:split], argv[split + 1:]
    opts = {"--result": None, "--spans": None}
    wraps = []
    for flag, value in zip(own[::2], own[1::2]):
        if flag == "--wrap":
            wraps.append(value.split("=", 1))
        elif flag in opts:
            opts[flag] = value
        else:
            raise SystemExit(f"op.py: unknown option {flag}")
    if opts["--result"] is None:
        raise SystemExit("op.py: --result is required")

    t0 = time.perf_counter()
    cli = importlib.import_module("masim.cli")
    result = {"setup_s": time.perf_counter() - t0, "module_file": cli.__file__,
              "numpy": sys.modules["numpy"].__version__}
    if cli_argv:
        tracer = Tracer() if opts["--spans"] else None
        if tracer is not None:
            for target, name in wraps:
                tracer.wrap(target, name)
        code, error = None, None
        t1 = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(cli_argv)
            else:
                code = tracer.call(ROOT_SPAN, cli.main, cli_argv)
        except SystemExit as exc:        # argparse rejects the argv
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:         # noqa: BLE001 - reported as a failed op
            traceback.print_exc()
            error = f"{type(exc).__name__}: {exc}"
        result["wall_s"] = time.perf_counter() - t1
        result["exit"] = code
        result["error"] = error
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            result["layers"] = tracer.layers()
            result["missing"] = tracer.missing
            result["sim"] = tracer.sim
            tracer.write_csv(opts["--spans"])
    result["calib_s"] = calibrate()    # after the operation, so it cannot raise its peak RSS
    with open(opts["--result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
