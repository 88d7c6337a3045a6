#!/usr/bin/env python3
"""The verdict benchmark: time from submission to a checked verdict.

    python3 verdictbench/run.py --workload <check-files|stream-large|daemon-mix>
                                --seed <n> --seconds <s> --trace <0|1> [--smoke]

Builds the release `satverify` binary and the `vbench` helper from
source, generates the workload's inputs from the seed (SETUPS times,
to time set-up and to prove the inputs repeat), establishes every job's
known answer, then runs the workload as a closed loop for `--seconds`
and prints one JSON object as the last line of standard output.
`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
metrics of a separate traced run. Everything is read and written inside
the checkout; per-run details (every job, input fingerprints, spans) go
to `.bench_work/results/`. See README.md in this directory.
"""

import argparse
import hashlib
import json
import math
import os
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("check-files", "stream-large", "daemon-mix")
# set-ups per run; `setup_s` is their median
SETUPS = 5
# in-process replays per job in the traced run
TRACE_REPEATS = {"check-files": 3, "stream-large": 1, "daemon-mix": 5}
# rounds the traced run spawns or drives (untimed, for per-job walls)
TRACE_ROUNDS = {"check-files": 1, "stream-large": 1, "daemon-mix": 2}
# daemon-mix: the daemon's worker count; the load is sized for two cores
DAEMON_WORKERS = 2
# a helper step that runs longer than this has hung: the run fails
STEP_TIMEOUT_S = 150


class BenchError(Exception):
    """A failure that prevents a result: the run exits non-zero."""


def log(msg):
    print(f"verdictbench: {msg}", file=sys.stderr, flush=True)


def run_tool(argv, timeout=None, **kw):
    """Runs a build or helper step in its own process group; its stdout
    is returned, its stderr passes through to ours. On timeout the whole
    group (the helper and any checker it spawned) is killed."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                            start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{' '.join(map(str, argv[:3]))} ... timed out after {timeout} s")
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(map(str, argv[:3]))} ... exited {proc.returncode}")
    return out


def build():
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        raise BenchError(f"{ROOT} holds no satverify sources to build")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cargo = ["cargo", "build", "--release", "--offline", "--quiet"]
    run_tool(cargo + ["-p", "satverify"], cwd=ROOT, env=env)
    run_tool(cargo + ["--manifest-path", str(BENCH / "Cargo.toml")], cwd=ROOT, env=env)
    return target / "release" / "satverify", target / "release" / "vbench"


# ---------------------------------------------------------------------------
# Set-up: inputs, fingerprints, known answers


def fingerprints(work, manifest):
    """sha256 of every generated input, plus the job list itself."""
    prints = {name: hashlib.sha256((work / name).read_bytes()).hexdigest()
              for name in manifest["files"]}
    plan = {k: manifest[k] for k in ("round", "bases", "twins", "nonce") if k in manifest}
    prints["jobs"] = hashlib.sha256(json.dumps(plan, sort_keys=True).encode()).hexdigest()
    return prints


def dimacs_clauses(path):
    clauses, current = [], []
    for line in path.read_text().splitlines():
        if not line.strip() or line[0] in "cp%":
            continue
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                clauses.append(current)
                current = []
            else:
                current.append(lit)
    return clauses


def twin_models_hold(work, manifest):
    """Each satisfiable twin is proved satisfiable here, by evaluating
    the model the generator built against the twin's own DIMACS text:
    the checker under test never supplies the rejected class's answer."""
    problems = []
    for twin in manifest["twins"]:
        model = set(twin["model"])
        if any(-lit in model for lit in model):
            problems.append(f"{twin['cnf']}: model assigns a variable both ways")
        unsat = [c for c in dimacs_clauses(work / twin["cnf"]) if not model.intersection(c)]
        if unsat:
            problems.append(f"{twin['cnf']}: model falsifies {len(unsat)} clauses, e.g. {unsat[0]}")
        parent = len(dimacs_clauses(work / twin["parent"]))
        if parent != len(dimacs_clauses(work / twin["cnf"])) + 1:
            problems.append(f"{twin['cnf']}: not its parent minus one clause")
    return problems


class Daemon:
    """A spawned `satverify serve`; started and drained by the benchmark."""

    def __init__(self, satverify, work, event_log):
        argv = [str(satverify), "serve", "--listen", "tcp:127.0.0.1:0",
                "--workers", str(DAEMON_WORKERS)]
        if event_log:
            argv += ["--event-log", str(work / "events.jsonl")]
        self.proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [], 30)
        line = self.proc.stdout.readline() if ready else ""
        if "listening on " not in line:
            self.stop()
            raise BenchError(f"daemon did not start: {line!r}")
        self.endpoint = line.split("listening on ", 1)[1].split()[0]

    def stop(self):
        """Drains the daemon with a `shutdown` request; kills it if it
        has not exited within 30 s."""
        if self.proc.poll() is None and getattr(self, "endpoint", None):
            host, port = self.endpoint.removeprefix("tcp:").rsplit(":", 1)
            try:
                with socket.create_connection((host, int(port)), timeout=5) as s:
                    s.sendall(b'{"op":"shutdown"}\n')
                    s.recv(4096)
            except OSError:
                pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.send_signal(signal.SIGKILL)
            self.proc.wait()
        self.proc.stdout.close()


def setup(args, satverify, vbench, work_root):
    """Generates the inputs SETUPS times (plus the daemon start, on
    daemon-mix) and returns (work dir, manifest, set-up times, daemon,
    fingerprints, problems). Only the last daemon is left running; each
    earlier one is drained before the next set-up's clock starts."""
    times, prints, daemon, problems = [], [], None, []
    for i in range(SETUPS):
        work = work_root / f"setup-{i}"
        shutil.rmtree(work, ignore_errors=True)
        gen = [str(vbench), "gen", args.workload, str(args.seed), str(work)]
        if daemon:
            daemon.stop()
        started = time.perf_counter()
        run_tool(gen + (["--smoke"] if args.smoke else []), timeout=STEP_TIMEOUT_S)
        if args.workload == "daemon-mix":
            daemon = Daemon(satverify, work, event_log=args.trace == 1)
        times.append(time.perf_counter() - started)
        manifest = json.loads((work / "manifest.json").read_text())
        prints.append(fingerprints(work, manifest))
    if any(p != prints[0] for p in prints):
        problems.append("the same seed generated different inputs across set-ups")
    problems += twin_models_hold(work, manifest)
    try:
        run_tool([str(vbench), "oracle", str(work)], timeout=STEP_TIMEOUT_S)
    except BenchError as e:
        problems.append(f"known-answer oracle failed: {e}")
    return work, manifest, times, daemon, prints[0], problems


# ---------------------------------------------------------------------------
# Metrics


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def check_verdicts(jobs):
    """Every job whose verdict differs from its known answer, or that
    got no verdict at all (malformed, exhausted, refused, overloaded)."""
    failed = [j for j in jobs if j["got"] != j["expect"]]
    for j in failed:
        log(f"MISMATCH {j['id']}: expected {j['expect']}, got {j['got']}")
    return failed


def reported(kind, values):
    """The `kind` metrics BENCHMARK.json names, with its units; per-layer
    metrics a workload never enters read 0."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    default = {"end_to_end": None, "per_layer": 0}[kind]
    return {m["name"]: {"value": values.get(m["name"], default), "unit": m["unit"]}
            for m in spec[kind]}


def end_to_end(loop, setup_times):
    jobs = [j for j in loop["jobs"] if j.get("timed", True)]
    ms = [j["us"] / 1000 for j in jobs]
    hits = [j["us"] / 1000 for j in jobs if j.get("hit")]
    p50 = statistics.median(ms)
    # the daemon's VmHWM at its fixed probe point, or the largest child
    rss_kb = loop["probe"]["vm_hwm_kb"] if "probe" in loop else max(j["rss_kb"] for j in jobs)
    values = {
        "verdict_geomean_ms": math.exp(statistics.fmean(math.log(t) for t in ms)),
        "verdict_p50_ms": p50,
        "verdict_p90_ms": nearest_rank(ms, 0.9),
        "verdicts_per_s": len(ms) / (loop["wall_us"] / 1e6),
        # no cache on the spawned paths: the fastest verdict is a full
        # check, so there hit_p50_ms reads as verdict_p50_ms
        "hit_p50_ms": statistics.median(hits) if hits else p50,
        "peak_rss_mb": rss_kb / 1024,
        "setup_s": statistics.median(setup_times),
    }
    beyond_p90 = len(ms) - math.ceil(0.9 * len(ms))
    log(f"{len(ms)} timed jobs ({len(hits)} cache hits); {beyond_p90} samples beyond p90"
        + ("" if beyond_p90 >= 10 else " (too few for a p90: read it as a near-max)"))
    return reported("end_to_end", values)


def host_reference(vbench):
    """A host-speed figure from code outside the program under test
    (`vbench hostref`): ns per step of a memory-bound pointer chase and
    of a register-only loop. Taken before and after the timed loop."""
    ref = json.loads(run_tool([str(vbench), "hostref"], timeout=STEP_TIMEOUT_S))
    log(f"host reference: chase {ref['chase_ns']:.2f} ns/step, spin {ref['spin_ns']:.3f} ns/step")
    return ref


def event_log_times(path):
    """Per job id: the daemon's own admission-to-terminal time (e2e_us);
    and every started job's queue wait, from the lifecycle event log."""
    e2e, waits = {}, []
    for line in path.read_text().splitlines():
        event = json.loads(line)
        if "queue_wait_us" in event:
            waits.append(event["queue_wait_us"])
        if "e2e_us" in event and "id" in event:
            e2e[event["id"]] = event["e2e_us"]
    return e2e, waits


def per_layer(args, vbench, work, manifest, loop, daemon):
    trace = json.loads(run_tool([str(vbench), "trace", str(work),
                                 str(TRACE_REPEATS[args.workload])], timeout=STEP_TIMEOUT_S))
    layers = dict(trace["layers"])
    # the CLI as a spawned process vs the same layer calls in-process
    walls = {}
    for j in loop["jobs"]:
        walls.setdefault(j["id"], []).append(j["us"])
    overheads = [statistics.median(walls[t["id"]]) - t["untraced_us"]
                 for t in trace["jobs"] if t["id"] in walls]
    layers["satverify.process_overhead_us"] = statistics.median(overheads) if overheads else 0
    layers["cdcl.solve_us"] = manifest["cdcl_solve_us"]
    layers["bench.trace_overhead_pct"] = trace["trace_overhead_pct"]
    if args.workload == "daemon-mix":
        daemon.stop()
        e2e, waits = event_log_times(work / "events.jsonl")
        timed = [j for j in loop["jobs"] if j.get("timed", True)]
        layers["satverifyd.server.wire_us"] = statistics.median(
            j["us"] - e2e[j["id"]] for j in timed if j["id"] in e2e)
        layers["satverifyd.server.queue_wait_us"] = statistics.median(waits)
        c = loop["counters"]
        layers["satverifyd.cache.hit_ratio"] = c["cache_hits"] / max(
            1, c["cache_hits"] + c["cache_misses"] + c["cache_coalesced"])
        # the mid-size pigeonhole base: php7 at full size
        php7 = manifest["bases"][1]["class"]
        spans = next(t["self_us"] for t in trace["jobs"] if t["id"] == php7)
        layers["satverifyd.hit_php7.client_encode_us"] = spans["satverifyd.protocol.encode.request"]
        layers["satverifyd.hit_php7.server_parse_us"] = spans["satverifyd.protocol.parse.request"]
        layers["satverifyd.hit_php7.cache_key_us"] = spans["satverifyd.cache.key"]
        layers["satverifyd.hit_php7.response_us"] = (spans["satverifyd.protocol.encode.response"]
                                                     + spans["satverifyd.protocol.parse.response"])
        layers["satverifyd.hit_php7.observed_us"] = statistics.median(
            j["us"] for j in timed if j["hit"] and j["class"] == php7)
    in_process = [{"id": t["id"], "expect": t["expect"], "got": t["verdict"]}
                  for t in trace["jobs"]]
    return reported("per_layer", layers), in_process, trace


# ---------------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="small instances, for the benchmark's own tests")
    args = parser.parse_args()

    satverify, vbench = build()
    work_root = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-t{args.trace}"
    results = ROOT / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    daemon = None
    try:
        work, manifest, setup_times, daemon, prints, problems = setup(
            args, satverify, vbench, work_root)
        for p in problems:
            log(f"PROBLEM {p}")
        if args.trace == 0:
            stop = ["--seconds", str(args.seconds)]
        else:
            stop = ["--rounds", str(TRACE_ROUNDS[args.workload])]
        if args.workload == "daemon-mix":
            argv = [str(vbench), "drive", daemon.endpoint, str(work)]
            if args.trace == 0:
                stop += ["--probe-pid", str(daemon.proc.pid)]
        else:
            argv = [str(vbench), "spawn", str(satverify), str(work)]
        host = [host_reference(vbench)]
        loop = json.loads(run_tool(argv + stop, timeout=STEP_TIMEOUT_S))
        host.append(host_reference(vbench))
        if args.trace == 0:
            metrics = end_to_end(loop, setup_times)
            extra = []
        else:
            metrics, extra, trace = per_layer(args, vbench, work, manifest, loop, daemon)
            shutil.copy(work / "spans.jsonl", results / f"{work_root.name}-spans.jsonl")
            (results / f"{work_root.name}-trace.json").write_text(json.dumps(trace))
        # warm-up submissions are untimed but their verdicts count too
        checked = loop["jobs"] + extra
        failed = check_verdicts(checked)
        error_rate = len(failed) / len(checked)
        log(f"error_rate {error_rate:.4f} ({len(failed)} of {len(checked)} jobs)")
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "smoke": args.smoke, "fingerprints": prints,
                  "setup_s": setup_times, "host_reference": host, "error_rate": error_rate,
                  "problems": problems, "metrics": metrics, "jobs": checked}
        if "probe" in loop:
            record["daemon_probe"] = probe = loop["probe"]
            log(f"daemon after {probe['rounds']} rounds a connection: VmHWM "
                f"{probe['vm_hwm_kb']} kB, cache_misses {probe['counters']['cache_misses']}, "
                f"cache_evictions {probe['counters']['cache_evictions']}")
        (results / f"{work_root.name}.json").write_text(json.dumps(record, indent=1))
        result = {"correct": not failed and not problems, "attempted": len(checked),
                  "failed": len(failed), "metrics": metrics}
    finally:
        if daemon:
            daemon.stop()
    shutil.rmtree(work_root, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except BenchError as e:
        log(f"error: {e}")
        sys.exit(1)
