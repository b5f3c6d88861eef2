"""Traced run of the sso-auditor CLI: spans and counts at each layer.

    PYTHONPATH=src python3 perfbench/tracer.py --out RESULT.json -- analyze DIR

Imports the analyzer, wraps the public functions of each layer module
(``cli``, ``trace``, ``spar``, ``classify``, ``security``, ``privacy``,
``report``) and the CLI's bundle-reading and per-unit helpers, then runs
``cli.main`` in this process.  The report goes to standard output exactly
as in an untraced run.

A wrapper is installed under every module attribute that held the original
function, so names bound by ``from ... import`` (``cli`` binds
``parse_trace_bundle`` at import) are traced as well.  Each span records
wall time and thread CPU time.  Spans nest through a per-thread stack, so a
span's parent is the innermost open span of its own thread, also under the
CLI's thread pool.  A layer's self time is its spans' time minus the time of
their child spans; its busy time is self CPU time and its wait time is self
wall time minus self CPU time.  A layer's import is counted as one span of
that layer.

When the run ends, the spans are written to ``RESULT.json`` with ``.spans``
appended (one tab-separated line per span) and the per-layer totals and
counts to ``RESULT.json``.
"""

from __future__ import annotations

import argparse
import collections
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time

LAYERS = ("cli", "trace", "spar", "classify", "security", "privacy", "report")
# imported leaves first, so that each import runs only its own module body
IMPORT_ORDER = ("spar", "trace", "classify", "security", "privacy", "report",
                "cli")
CLI_HELPERS = ("_read_bundle", "_analyze_unit", "_cmd_analyze", "_cmd_privacy")

perf_counter = time.perf_counter
thread_time = time.thread_time


class _ThreadState:
    __slots__ = ("stack", "spans", "counts")

    def __init__(self):
        # open spans: [span id, child wall, child cpu]
        self.stack: list[list] = []
        # closed spans: (id, parent id, name, start, end, cpu, self wall, self cpu)
        self.spans: list[tuple] = []
        self.counts: collections.Counter = collections.Counter()


class Recorder:
    """Per-thread span stacks and counters, merged when the run ends."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.threads: list[_ThreadState] = []

    def state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self.threads.append(state)
        return state

    def open(self) -> tuple[_ThreadState, list, list | None]:
        state = self.state()
        parent = state.stack[-1] if state.stack else None
        frame = [next(self._ids), 0.0, 0.0]
        state.stack.append(frame)
        return state, frame, parent

    def close(self, state: _ThreadState, frame: list, parent: list | None,
              name: str, t0: float, t1: float, cpu: float) -> None:
        state.stack.pop()
        wall = t1 - t0
        if parent is not None:
            parent[1] += wall
            parent[2] += cpu
        state.spans.append((frame[0], parent[0] if parent else 0, name, t0, t1,
                            cpu, wall - frame[1], cpu - frame[2]))

    def hide(self, parent: list | None, t0: float, c0: float) -> None:
        """Charge tracer bookkeeping to no layer: it counts as child time."""
        if parent is not None:
            parent[1] += perf_counter() - t0
            parent[2] += thread_time() - c0

    def counts(self) -> collections.Counter:
        total = collections.Counter()
        for state in self.threads:
            total.update(state.counts)
        return total

    def spans(self):
        for index, state in enumerate(self.threads):
            for span in state.spans:
                yield index, span


def span(recorder: Recorder, name: str, fn, after=None):
    """Wrap ``fn`` in a span; ``after(counts, args, kwargs, result)`` counts."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state, frame, parent = recorder.open()
        # both clocks are read in the same order at both ends, so the cost
        # of reading them falls into neither the wall nor the CPU gap
        t0 = perf_counter()
        c0 = thread_time()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            c1 = thread_time()
            recorder.close(state, frame, parent, name, t0, t1, c1 - c0)
        if after is not None:
            h0, hc0 = perf_counter(), thread_time()
            after(state.counts, args, kwargs, result)
            recorder.hide(parent, h0, hc0)
        return result
    return wrapper


# ---------------------------------------------------------------------------
# counts taken at layer boundaries

def _count_bundle(counts, args, kwargs, trace):
    counts["trace.entries"] += len(trace.entries)
    counts["trace.ibc_events"] += len(trace.ibc_events)


def _count_metadata(counts, args, kwargs, result):
    counts["trace.metadata_parses"] += 1


def _decode_counter(spar):
    def count(counts, args, kwargs, tree):
        max_depth = args[1] if len(args) > 1 else kwargs.get(
            "max_depth", spar.DEFAULT_MAX_DEPTH)
        max_nodes = args[2] if len(args) > 2 else kwargs.get(
            "max_nodes", spar.DEFAULT_MAX_NODES)
        nodes = deep_leaves = 0
        stack = [tree]
        while stack:
            node = stack.pop()
            nodes += 1
            if node.children:
                stack.extend(node.children.values())
            elif node.depth >= max_depth:
                deep_leaves += 1
        counts["spar.decode.calls"] += 1
        counts["spar.nodes_built"] += nodes
        counts["spar.leaves_at_depth_limit"] += deep_leaves
        if nodes >= max_nodes:
            counts["spar.trees_at_node_budget"] += 1
    return count


def _count_call(name):
    def count(counts, args, kwargs, result):
        counts[name] += 1
    return count


def _count_len(name):
    def count(counts, args, kwargs, result):
        counts[name] += len(result)
    return count


def _count_match(counts, args, kwargs, response):
    counts["classify.match.calls"] += 1
    if response is not None:
        counts["classify.responses_matched"] += 1


def _count_analysis(counts, args, kwargs, analysis):
    counts["security.findings"] += len(analysis.findings)
    counts["security.analyzer_errors"] += sum(
        1 for f in analysis.findings if f.rule_id == "analyzer.error")


def _count_report(counts, args, kwargs, text):
    counts["report.bytes"] += len(text.encode("utf-8"))


def _counting_walk(recorder: Recorder, walk):
    """``spar.walk`` yields lazily inside its callers' spans; count only."""
    @functools.wraps(walk)
    def wrapper(tree):
        walked = 0
        try:
            for item in walk(tree):
                walked += 1
                yield item
        finally:
            recorder.state().counts["spar.nodes_walked"] += walked
    return wrapper


def _counters(modules) -> dict[str, object]:
    return {
        "trace.parse_trace_bundle": _count_bundle,
        "trace.parse_metadata": _count_metadata,
        "spar.decode": _decode_counter(modules["spar"]),
        "spar.decode_query_string": _decode_counter(modules["spar"]),
        "spar.search": _count_call("spar.search.calls"),
        "classify.detect_login_requests": _count_len("classify.login_requests"),
        "classify.dedupe_login_requests": _count_len(
            "classify.login_requests_kept"),
        "classify.match_login_response": _count_match,
        "security.run_all": _count_analysis,
        "privacy.detect_lal": _count_len("privacy.lal_findings"),
        "privacy.detect_tel": _count_len("privacy.tel_findings"),
        "report.render_report": _count_report,
        "cli._read_bundle": _count_call("cli.bundles_read"),
    }


# ---------------------------------------------------------------------------
# installing the wrappers

def import_layers(recorder: Recorder) -> dict:
    """Import each layer module inside a span of its own layer."""
    modules = {}
    for layer in IMPORT_ORDER:
        modules[layer] = span(recorder, layer + ".import",
                              importlib.import_module)("sso_auditor." + layer)
    return modules


def install(recorder: Recorder, modules: dict) -> int:
    """Wrap every traced function under every name it is bound to.

    Returns how many module attributes now hold a wrapper.
    """
    counters = _counters(modules)
    wrappers = {}
    for layer, module in modules.items():
        for name, value in vars(module).items():
            if not inspect.isfunction(value) or value.__module__ != module.__name__:
                continue
            if name.startswith("_") and not (layer == "cli" and name in CLI_HELPERS):
                continue
            qualified = f"{layer}.{name}"
            if qualified == "spar.walk":
                wrappers[value] = _counting_walk(recorder, value)
            else:
                wrappers[value] = span(recorder, qualified, value,
                                       counters.get(qualified))
    bound = 0
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("sso_auditor"):
            continue
        for name, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(module, name, wrappers[value])
                bound += 1
    return bound


def summarize(recorder: Recorder, wall: float, exit_code: int,
              bound: int) -> dict:
    layers = {layer: {"busy_s": 0.0, "wait_s": 0.0, "spans": 0}
              for layer in LAYERS}
    for _, (_, _, name, _, _, _, self_wall, self_cpu) in recorder.spans():
        totals = layers[name.split(".", 1)[0]]
        totals["busy_s"] += self_cpu
        totals["wait_s"] += self_wall - self_cpu
        totals["spans"] += 1
    return {"exit_code": exit_code, "wall_s": wall, "wrapped_names": bound,
            "threads": len(recorder.threads), "layers": layers,
            "counts": dict(sorted(recorder.counts().items()))}


def write_spans(recorder: Recorder, path: str) -> None:
    with open(path, "w", encoding="utf-8") as out:
        out.write("thread\tid\tparent\tname\tstart\tend\tcpu\tself_wall\tself_cpu\n")
        for thread, (sid, parent, name, t0, t1, cpu, self_wall, self_cpu) \
                in recorder.spans():
            out.write(f"{thread}\t{sid}\t{parent}\t{name}\t{t0:.9f}\t{t1:.9f}"
                      f"\t{cpu:.9f}\t{self_wall:.9f}\t{self_cpu:.9f}\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    recorder = Recorder()
    started = perf_counter()
    modules = import_layers(recorder)
    bound = install(recorder, modules)
    exit_code = modules["cli"].main(cli_args)
    sys.stdout.flush()
    wall = perf_counter() - started

    write_spans(recorder, args.out + ".spans")
    with open(args.out, "w", encoding="utf-8") as out:
        json.dump(summarize(recorder, wall, exit_code, bound), out, indent=1)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
