"""Whole-corpus benchmark of the sso-auditor command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The run builds a seeded corpus for
the workload (outside the timed region), then launches the real CLI with its
default flags on that corpus, one process at a time, until ``--seconds``
have passed.  Every report is checked against the generator's ground truth
and against the other reports of the run, which are produced under
different ``PYTHONHASHSEED`` values and must be byte-identical.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced runs with runs under ``perfbench/tracer.py`` and prints the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

# the CLI exactly as the ``sso-auditor`` entry point runs it
CLI_CODE = ("import sys; from sso_auditor.cli import main; "
            "sys.exit(main(sys.argv[1:]))")
# start-up cost: import the CLI, build the default rule config and registry
SETUP_CODE = ("import sso_auditor.cli; "
              "from sso_auditor.security import RuleConfig; "
              "from sso_auditor.classify import default_registry; "
              "RuleConfig(); default_registry()")
# a bare interpreter start, the reference the set-up launches are scaled by
BARE_CODE = "pass"
MIN_CLI_RUNS = 5
SETUPS_PER_CLI_RUN = 2
MIN_TRACED_PAIRS = 2
# a hung child must not keep the run past its limit
RUN_LIMIT_S = 170

KNOWN_FAULT_RULE = "flow.mixup"

# The speed of the shared VMs this benchmark runs on drifts by tens of
# percent within seconds to minutes, in CPU time as much as in wall time.
# The timed figures are therefore scaled to a reference machine speed,
# measured beside them: the CLI runs by a fixed pure-Python loop timed in
# this process before and after each of them, a set-up launch by a bare
# interpreter start launched just before it.  The references are what the
# loop and the bare start take at that speed.
CALIBRATION_LOOPS = 1_000_000
CALIBRATION_REF_S = 0.1
BARE_REF_S = 0.05

COUNTS = (
    "trace.entries", "trace.ibc_events", "trace.metadata_parses",
    "spar.decode.calls", "spar.nodes_built", "spar.search.calls",
    "spar.nodes_walked", "spar.trees_at_node_budget",
    "spar.leaves_at_depth_limit",
    "classify.login_requests", "classify.login_requests_kept",
    "classify.match.calls", "classify.responses_matched",
    "security.findings", "security.analyzer_errors",
    "privacy.lal_findings", "privacy.tel_findings",
    "report.bytes", "cli.bundles_read",
)


class RunTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise RunTimeout(f"run exceeded {RUN_LIMIT_S} s")


# ---------------------------------------------------------------------------
# launching one process

def launch(argv: list[str], stdout_path: Path, env: dict) -> tuple[float, int, float]:
    """Run ``argv`` to completion: (wall seconds, exit code, peak RSS in MB).

    The wall time spans launch to exit.  The peak RSS is the child's
    ``ru_maxrss``, which covers its largest waited-for descendant too.
    """
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(stdout_path),
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stdout_path) + ".err",
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    started = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    wall = time.perf_counter() - started
    return wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0


def child_env(hash_seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env.pop("SSO_AUDITOR_CONFIG", None)
    return env


# ---------------------------------------------------------------------------
# checking reports against the generator's ground truth

class Checker:
    """Checks each distinct report once; identical bytes give equal verdicts."""

    def __init__(self, corpus):
        self.corpus = corpus
        self.verdicts: dict[str, tuple[int, list[str]]] = {}
        self.digests: list[str] = []
        # run-level problems: exit codes, traced counts
        self.problems: list[str] = []

    def add(self, report: bytes, exit_code: int) -> None:
        digest = hashlib.sha256(report).hexdigest()
        self.digests.append(digest)
        if digest not in self.verdicts:
            self.verdicts[digest] = self._check(report)
        if exit_code != self.corpus.expected_exit:
            self.problems.append(
                f"exit code {exit_code}, expected {self.corpus.expected_exit}")

    def result(self) -> tuple[bool, int, int, list[str]]:
        ops = self.corpus.operations
        failed = sum(self.verdicts[d][0] for d in self.digests)
        problems = list(self.problems)
        for digest in dict.fromkeys(self.digests):
            problems.extend(self.verdicts[digest][1])
        if len(set(self.digests)) > 1:
            problems.append(f"{len(set(self.digests))} different reports from "
                            "the same corpus under different PYTHONHASHSEED")
        return not problems, ops * len(self.digests), failed, problems

    def _check(self, report: bytes) -> tuple[int, list[str]]:
        try:
            doc = json.loads(report)
        except ValueError as exc:
            return self.corpus.operations, [f"report is not JSON: {exc}"]
        if self.corpus.visits:
            return self._check_privacy(doc)
        return self._check_analyze(doc)

    def _check_analyze(self, doc: dict) -> tuple[int, list[str]]:
        fragments = {frag["domain"]: frag for frag in doc.get("security", [])}
        failed, problems = 0, []
        if len(fragments) != len(self.corpus.units):
            problems.append(f"{len(fragments)} report units for "
                            f"{len(self.corpus.units)} corpus units")
        for unit in self.corpus.units:
            diffs = _unit_diffs(unit, fragments.get(unit.domain))
            if not diffs:
                continue
            failed += 1
            known = unit.cross_idp and diffs == [
                f"rules +{KNOWN_FAULT_RULE}"]
            if not known:
                problems.append(f"{unit.domain}: {'; '.join(diffs)}")
        return failed, problems

    def _check_privacy(self, doc: dict) -> tuple[int, list[str]]:
        findings = (doc.get("privacy") or {}).get("findings", [])
        visits = {(v.domain, v.profile_kind): v for v in self.corpus.visits}
        counts = collections.Counter()
        problems = []
        for finding in findings:
            key = (finding["domain"], finding["profile_kind"])
            visit = visits.get(key)
            if visit is None:
                problems.append(f"finding for unknown visit {key}")
                continue
            counts[key + (finding["kind"],)] += 1
            evidence = finding["evidence"]
            limit = (visit.entry_count if evidence["ref_kind"] == "entry"
                     else visit.ibc_count)
            if not 0 <= evidence["index"] < limit:
                counts[key + ("bad-index",)] += 1
        failed = 0
        for key, visit in visits.items():
            got = (counts[key + ("LAL",)], counts[key + ("TEL",)],
                   counts[key + ("bad-index",)])
            if got != (visit.lal, visit.tel, 0):
                failed += 1
                problems.append(f"{key}: LAL/TEL/bad-index {got}, expected "
                                f"{(visit.lal, visit.tel, 0)}")
        return failed, problems


def _unit_diffs(unit, fragment: dict | None) -> list[str]:
    if fragment is None:
        return ["missing from the report"]
    diffs = []
    rules = {f["rule_id"] for f in fragment["findings"]}
    expected = set(unit.rules)
    if rules != expected:
        extra = "".join(f" +{r}" for r in sorted(rules - expected))
        missing = "".join(f" -{r}" for r in sorted(expected - rules))
        diffs.append(f"rules{extra}{missing}")
    logins = fragment["logins"]
    if len(logins) != unit.logins:
        diffs.append(f"{len(logins)} logins, expected {unit.logins}")
    else:
        login = logins[0]
        for key in ("protocol", "requested_flow", "returned_flow",
                    "response_ref"):
            if login[key] != getattr(unit, key):
                diffs.append(f"{key} {login[key]!r}, expected "
                             f"{getattr(unit, key)!r}")
    for finding in fragment["findings"]:
        for evidence in finding["evidence"]:
            if not 0 <= evidence["entry_index"] < unit.entry_count:
                diffs.append(f"{finding['rule_id']} evidence index "
                             f"{evidence['entry_index']} outside the trace")
    return diffs


# ---------------------------------------------------------------------------
# the two kinds of run

def calibrate() -> float:
    """Seconds this process takes for a fixed pure-Python loop."""
    started = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i % 7
    return time.perf_counter() - started


def measure_setup(out_dir: Path, index: int) -> tuple[float, float]:
    """One cold set-up launch: (wall seconds, wall of a bare start before it)."""
    walls = []
    for code in (BARE_CODE, SETUP_CODE):
        wall, exit_code, _ = launch([sys.executable, "-c", code],
                                    out_dir / "setup.out", child_env(index))
        if exit_code != 0:
            raise RuntimeError("set-up launch failed: " +
                               (out_dir / "setup.out.err").read_text())
        walls.append(wall)
    return walls[1], walls[0]


def cli_argv(corpus) -> list[str]:
    return [sys.executable, "-c", CLI_CODE, corpus.subcommand, str(corpus.root)]


def run_cli(corpus, checker: Checker, out_dir: Path, index: int,
            traced_out: Path | None = None) -> tuple[float, float]:
    report = out_dir / f"report-{index % 2}.json"
    argv = cli_argv(corpus)
    if traced_out is not None:
        argv = [sys.executable, str(HERE / "tracer.py"), "--out",
                str(traced_out), "--"] + argv[3:]
    wall, code, rss = launch(argv, report, child_env(index + 1))
    checker.add(report.read_bytes(), code)
    return wall, rss


def timed_runs(corpus, checker: Checker, out_dir: Path,
               seconds: float) -> dict:
    work = corpus.entries + corpus.ibc_events
    walls, loops, rss, setups, raw_setups = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_CLI_RUNS or time.perf_counter() < deadline:
        index = len(walls)
        for launch_index in range(SETUPS_PER_CLI_RUN):
            setup, bare = measure_setup(
                out_dir, SETUPS_PER_CLI_RUN * index + launch_index)
            setups.append(setup * BARE_REF_S / bare)
            raw_setups.append(setup)
        loops.append(calibrate())
        wall, peak = run_cli(corpus, checker, out_dir, index)
        loops.append(calibrate())
        walls.append(wall)
        rss.append(peak)
    # the rate over all CLI runs, at the mean machine speed of the run: the
    # speed swings within a second, so a mean over many loops estimates it
    # better than the loops next to a single CLI run do
    rate = work * len(walls) / sum(walls)
    print(f"{len(walls)} CLI runs; unscaled {rate:.1f} entries/s, CLI runs "
          f"{[round(w, 3) for w in walls]} s, loops "
          f"{[round(t, 3) for t in loops]} s, set-up launches "
          f"{[round(t, 3) for t in raw_setups]} s", file=sys.stderr)
    return {
        "entries_per_s": {
            "value": rate * statistics.fmean(loops) / CALIBRATION_REF_S,
            "unit": "entries/s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }


def traced_runs(corpus, checker: Checker, out_dir: Path,
                seconds: float) -> dict:
    plain, traced, results = [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_TRACED_PAIRS or time.perf_counter() < deadline:
        index = 2 * len(traced)
        plain.append(run_cli(corpus, checker, out_dir, index)[0])
        result_path = out_dir / "traced.json"
        traced.append(run_cli(corpus, checker, out_dir, index + 1,
                              traced_out=result_path)[0])
        results.append(json.loads(result_path.read_text()))

    problems = checker.problems
    counts = results[0]["counts"]
    for other in results[1:]:
        if other["counts"] != counts:
            problems.append("traced counts differ between runs of one corpus")
    for name, expected in (("trace.entries", corpus.entries),
                           ("trace.ibc_events", corpus.ibc_events),
                           ("cli.bundles_read", corpus.bundles)):
        if counts.get(name) != expected:
            problems.append(f"{name} is {counts.get(name)}, the generator "
                            f"wrote {expected}")

    metrics = {}
    for layer in tracer.LAYERS:
        for kind in ("busy_s", "wait_s"):
            value = statistics.median(r["layers"][layer][kind] for r in results)
            metrics[f"{layer}.{kind}"] = {"value": value, "unit": "s"}
    for name in COUNTS:
        metrics[name] = {"value": counts.get(name, 0), "unit": "count"}
    work = counts.get("trace.entries", 0) + counts.get("trace.ibc_events", 0)
    decodes = counts.get("spar.decode.calls", 0)
    matches = counts.get("classify.match.calls", 0)
    metrics["spar.decodes_per_entry"] = {
        "value": decodes / work if work else 0.0, "unit": "ratio"}
    metrics["classify.match_ratio"] = {
        "value": (counts.get("classify.responses_matched", 0) / matches
                  if matches else 0.0), "unit": "ratio"}
    metrics["tracing.overhead_ratio"] = {
        "value": statistics.median(traced) / statistics.median(plain),
        "unit": "ratio"}
    print(f"{len(traced)} traced pairs, untraced {[round(w, 3) for w in plain]} s,"
          f" traced {[round(w, 3) for w in traced]} s", file=sys.stderr)
    # keep the last traced run's spans and totals once the run's files go
    kept = WORK / f"trace-{corpus.workload}-{corpus.seed}.json"
    shutil.move(str(result_path) + ".spans", str(kept) + ".spans")
    shutil.move(result_path, kept)
    print(f"{results[-1]['wrapped_names']} names wrapped, "
          f"{results[-1]['threads']} threads traced; spans in {kept}.spans",
          file=sys.stderr)
    return metrics


# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="sso-auditor benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sso_auditor" / "cli.py").is_file():
        print(f"error: no sso_auditor sources under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import corpus as corpus_mod
    if args.workload not in corpus_mod.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(corpus_mod.WORKLOADS)}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(RUN_LIMIT_S)
    out_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        out_dir.mkdir(parents=True)
        corpus = corpus_mod.build(args.workload, args.seed, out_dir / "corpus")
        print(f"corpus: {corpus.operations} operations, {corpus.bundles} "
              f"bundles, {corpus.entries} entries, {corpus.ibc_events} IBC "
              f"events, {corpus.bytes} bytes", file=sys.stderr)
        checker = Checker(corpus)
        if args.trace:
            metrics = traced_runs(corpus, checker, out_dir, args.seconds)
        else:
            metrics = timed_runs(corpus, checker, out_dir, args.seconds)
        correct, attempted, failed, problems = checker.result()
    except RunTimeout as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        shutil.rmtree(out_dir, ignore_errors=True)

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
