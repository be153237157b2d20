#!/usr/bin/env python3
"""The learnq benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a learnq checkout.  It builds `learnq` and the
benchmark's own OCaml half (perfbench/lqbench.ml) with dune, runs the
workload, checks the outputs against references, prints one line per
metric with its unit and sample count, and prints as its last line one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the same
workload runs again traced and the metrics are the per-layer ones.

Workloads, constants and what each metric should move are in
perfbench/spec.json.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import http.client

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = json.load(open(os.path.join(HERE, "spec.json")))
ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".perfbench-work")
LEARNQ = os.path.join(ROOT, "_build", "default", "bin", "learnq_cli.exe")
LQBENCH = os.path.join(ROOT, "_build", "default", "perfbench", "lqbench.exe")
SETUP_REPS = 7
POOL = 2  # `learnq serve` default --pool
FLIGHT_EVENTS = 4_000_000  # total flight-recorder capacity for traced runs


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def pct(values, p):
    """Nearest-rank percentile, the same rule lqbench uses."""
    v = sorted(values)
    if not v:
        raise BenchError("no samples")
    return v[min(len(v) - 1, int(p * len(v)))]


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("bin") and os.path.isdir("lib")):
        raise BenchError("run from the root of a learnq checkout (no dune-project/bin/lib here)")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/learnq_cli.exe", "./perfbench/lqbench.exe"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=850)
    if r.returncode != 0:
        raise BenchError("build failed:\n" + r.stdout[-4000:])


def vm_hwm_kb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise BenchError("no VmHWM")


def stop(proc, sig=signal.SIGTERM, grace=30):
    if proc.poll() is None:
        proc.send_signal(sig)
        try:
            proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            log(f"  pid {proc.pid} ignored signal {sig} for {grace} s; killed")
            proc.kill()
            proc.wait()


# ---------------------------------------------------------------------------
# serve workloads
# ---------------------------------------------------------------------------

class Daemon:
    """`learnq serve` as a child; ready at its first 200 from /healthz."""

    def __init__(self, wl, state, extra):
        if os.path.exists(state):
            shutil.rmtree(state)
        os.makedirs(state)
        tenants = os.path.join(WORK, "tenants")
        with open(tenants, "w") as f:
            for i in range(wl["tenants"]):
                f.write(f"t{i} max_sessions={wl['tenant_max_sessions']}\n")
        self.state = state
        t0 = time.monotonic()
        self.proc = subprocess.Popen(
            [LEARNQ, "serve", "--port", "0", "--state-dir", state, "--tenants", tenants]
            + wl["serve_flags"] + extra,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("listening on "):
            stop(self.proc)
            raise BenchError("daemon did not start: " + line)
        self.port = int(line.rsplit(":", 1)[1])
        while True:
            try:
                c = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
                c.request("GET", "/healthz")
                status = c.getresponse().status
                c.close()
                if status == 200:
                    break
            except OSError:
                pass
            if time.monotonic() - t0 > 30:
                stop(self.proc)
                raise BenchError("daemon never became healthy")
            time.sleep(0.001)
        self.setup_s = time.monotonic() - t0

    def finish(self):
        """Peak RSS, then drain (SIGTERM: journals flushed, exit 0)."""
        rss = vm_hwm_kb(self.proc.pid) / 1024.0
        stop(self.proc)
        if self.proc.returncode not in (0, -signal.SIGKILL):
            raise BenchError(f"daemon exited {self.proc.returncode}")
        return rss


def journal_bytes(state):
    return sum(os.path.getsize(os.path.join(state, f))
               for f in os.listdir(state) if f.endswith(".journal"))


def serve_once(name, wl, seed, seconds, traced, tag, setups):
    """Start the daemon `setups` times (median = setup_s), load the last."""
    state = os.path.join(WORK, tag + "-state")
    times = []
    for i in range(setups):
        d = Daemon(wl, state, ["--flight-recorder-size", str(FLIGHT_EVENTS)] if traced else [])
        times.append(d.setup_s)
        if i < setups - 1:
            stop(d.proc, signal.SIGKILL)
    out = os.path.join(WORK, tag + "-load.json")
    files = {"flight": os.path.join(WORK, tag + "-flight.json"),
             "wire": os.path.join(WORK, tag + "-wire.json")}
    try:
        r = subprocess.run(
            [LQBENCH, "load", "--spec", os.path.join(HERE, "spec.json"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "1" if traced else "0",
             "--port", str(d.port), "--out", out, "--flight", files["flight"], "--wire", files["wire"]],
            timeout=seconds + SPEC["serve"]["drain_limit_s"] + 60)
        if r.returncode != 0:
            raise BenchError(f"load generator exited {r.returncode}")
        rss = d.finish()
    finally:
        stop(d.proc, signal.SIGKILL)
    run = json.load(open(out))
    for o in run["ops"]:
        o[2:6] = [t / 1e6 for t in o[2:6]]
    for s in run["sessions"]:
        s["arrive"] /= 1e6
        if s["finish"] is not None:
            s["finish"] /= 1e6
    run["sched_late_max_ms"] = run["sched_late_max_us"] / 1e3
    run["setup_s"] = statistics.median(times)
    run["rss_mb"] = rss
    run["journal_bytes"] = journal_bytes(state)
    run["state"] = state
    run.update(files)
    return run


def replay(name, seed, seconds, traced, state=None, wire=None):
    out = os.path.join(WORK, "replay.json")
    cmd = [LQBENCH, "replay", "--spec", os.path.join(HERE, "spec.json"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1" if traced else "0",
           "--out", out]
    if traced:
        cmd += ["--state-dir", state, "--wire", wire, "--scratch", os.path.join(WORK, "replay-scratch")]
    r = subprocess.run(cmd, timeout=150)
    if r.returncode != 0:
        raise BenchError(f"replay exited {r.returncode}")
    return json.load(open(out))


def check_sessions(run, refs):
    """Lost sessions and learned queries that differ from the reference.

    Returns (lost, mismatched, same_sequences): a session matches when it
    learned its reference's query; its question sequence matches when the
    qids and question keys are the reference's, in order."""
    by_spec = {(r["engine"], r["spec_seed"]): r for r in refs["references"]}
    lost = mismatched = same = 0
    for s in run["sessions"]:
        ref = by_spec[(s["engine"], s["spec_seed"])]
        if not s["done"]:
            lost += 1
        elif s["query"] != ref["query"]:
            mismatched += 1
        if s["questions"] == ref["questions"]:
            same += 1
    return lost, mismatched, same


def answers_in(run, step):
    start, dur, _ = run["steps"][step]
    return [o for o in run["ops"] if o[1] == "a" and start <= o[2] < start + dur]


def live_mean(run, t0, t1, samples=50):
    """Mean number of sessions arrived but not finished over [t0, t1)."""
    ts = [t0 + (t1 - t0) * i / samples for i in range(samples)]
    return statistics.mean(
        sum(1 for s in run["sessions"]
            if s["arrive"] <= t and (s["finish"] is None or s["finish"] > t))
        for t in ts)


def windowed_p99(ops):
    """Median of the p99s of consecutive windows of at least 1000 requests
    (by due time), so each p99 has ten samples beyond it and one bad second
    of the host does not decide the run."""
    ops = sorted(ops, key=lambda o: o[2])
    k = max(1, len(ops) // 1000)
    size = len(ops) // k
    return statistics.median(
        pct([(o[5] - o[2]) * 1e3 for o in ops[i * size:(i + 1) * size if i < k - 1 else None]], 0.99)
        for i in range(k))


def serve_metrics(run, spec_serve):
    """End-to-end metrics of one untraced serve run (step 0 is nominal)."""
    ops = run["ops"]
    nominal = answers_in(run, 0)
    lat = [(o[5] - o[2]) * 1e3 for o in nominal]
    s0, d0, _ = run["steps"][0]
    creates = [(o[5] - o[2]) * 1e3 for o in ops if o[1] == "c" and s0 <= o[2] < s0 + d0]
    limit = spec_serve["latency_limit_ms"]
    max_rate = 0.0
    for k, (start, dur, rate) in enumerate(run["steps"]):
        step_lat = [(o[5] - o[2]) * 1e3 for o in ops
                    if o[1] in "ac" and start <= o[2] < start + dur]
        arrivals = sum(1 for s in run["sessions"] if s["step"] == k)
        growth = (live_mean(run, start + 0.75 * dur, start + dur)
                  - live_mean(run, start + 0.25 * dur, start + 0.5 * dur))
        ok = (pct(step_lat, 0.99) <= limit
              and growth <= spec_serve["growth_slack"] * arrivals + spec_serve["growth_floor"])
        log(f"  step {k}: offered {rate:g}/s, {arrivals} sessions, {len(step_lat)} requests, "
            f"p99 {pct(step_lat, 0.99):.1f} ms, live-session growth {growth:.1f} -> "
            f"{'meets' if ok else 'misses'} the limit")
        if not ok:
            break
        max_rate = float(rate)
    nom = [s for s in run["sessions"] if s["step"] == 0 and s["finish"] is not None]
    answers = sum(1 for o in ops if o[1] == "a" and o[6] == 200)
    return {
        "setup_s": (run["setup_s"], "s", SETUP_REPS),
        "answer_p50_ms": (pct(lat, 0.5), "ms", len(lat)),
        "answer_p99_ms": (windowed_p99(nominal), "ms", len(lat)),
        "create_p50_ms": (pct(creates, 0.5), "ms", len(creates)),
        "max_rate_sps": (max_rate, "1/s", len(run["steps"])),
        "questions_per_session": (statistics.mean(len(s["questions"]) for s in run["sessions"]),
                                  "count", len(run["sessions"])),
        "rss_mb": (run["rss_mb"], "MB", 1),
        "store_bytes_per_answer": (run["journal_bytes"] / max(1, answers), "B", answers),
        "learn_s": (statistics.mean(s["finish"] - s["arrive"] for s in nom), "s", len(nom)),
    }


def failures(run, lost, mismatched):
    attempted = len(run["ops"]) + len(run["sessions"])
    failed = sum(1 for o in run["ops"] if o[6] != 200) + lost + mismatched
    return attempted, failed


def flight_spans(path):
    """(trace -> {name: [durations_ms]}, all fsync durations, job durations)."""
    events = json.load(open(path))["traceEvents"]
    open_ = {}
    per_trace = {}
    fsyncs, jobs = [], []
    for e in events:
        if e["ph"] not in ("B", "E"):
            continue
        tr = e["args"].get("trace")
        key = (e["name"], e["tid"], tr)
        if e["ph"] == "B":
            open_.setdefault(key, []).append(e["ts"])
        elif open_.get(key):
            dur = (e["ts"] - open_[key].pop()) / 1e3
            if e["name"] == "journal.fsync":
                fsyncs.append(dur)
            elif e["name"] == "serve.job":
                jobs.append(dur)
            if tr is not None:
                per_trace.setdefault(tr, {}).setdefault(e["name"], []).append(dur)
    return per_trace, fsyncs, jobs


def serve_layers(traced, untraced, replayed):
    """Per-layer metrics of one traced serve run, joined to its client records."""
    spans, fsyncs, jobs = flight_spans(traced["flight"])
    engine_of = {i: s["engine"] for i, s in enumerate(traced["sessions"])}
    rows = []
    for o in traced["ops"]:
        if o[1] != "a":
            continue
        sp = spans.get(o[7], {})
        if len(sp.get("http.request", [])) != 1 or len(sp.get("serve.job", [])) != 1:
            raise BenchError(f"flight recorder lost the spans of request {o[7]}")
        lat = (o[5] - o[2]) * 1e3
        http_ms, job_ms = sp["http.request"][0], sp["serve.job"][0]
        fs = sum(sp.get("journal.fsync", []))
        stages = {
            "gen": (o[4] - o[2]) * 1e3,
            "wire": (o[5] - o[4]) * 1e3 - http_ms,
            "queue": http_ms - job_ms,
            "compute": job_ms - fs,
            "fsync": fs,
        }
        covered = sum(max(0.0, v) for v in stages.values())
        rows.append((engine_of[o[0]], lat, stages, abs(lat - covered)))
    if not rows:
        raise BenchError("no traced answers")
    unattributed = sum(r[3] for r in rows) / sum(r[1] for r in rows)
    bad = [r for r in rows if r[3] > max(0.05, 0.01 * r[1])]
    if bad:
        raise BenchError(f"{len(bad)} answers' stages do not add up to their latency")
    col = lambda k, rs=rows: [r[2][k] for r in rs]
    fast = [r for r in rows if r[0] != "twig"]
    window = max(o[5] for o in traced["ops"]) - min(o[4] for o in traced["ops"])
    answers = len(rows)
    st = traced["stats"]
    nominal = answers_in(traced, 0)
    m = {
        "gen.send_wait_p99_ms": (pct([(o[4] - o[2]) * 1e3 for o in nominal], 0.99), "ms"),
        "gen.sched_late_max_ms": (traced["sched_late_max_ms"], "ms"),
        "wire.p50_ms": (pct(col("wire"), 0.5), "ms"),
        "wire.p99_ms": (pct(col("wire"), 0.99), "ms"),
        "queue.wait_p50_ms": (pct(col("queue"), 0.5), "ms"),
        "queue.wait_p99_ms": (pct(col("queue"), 0.99), "ms"),
        "queue.wait_fast_p99_ms": (pct(col("queue", fast), 0.99) if fast else 0.0, "ms"),
        "dispatch.lane_busy_frac": (sum(jobs) / 1e3 / (window * POOL), "fraction"),
        "admission.shed": (st["shed"], "count"),
        "admission.tripped": (st["tripped"], "count"),
        "job.compute_p99_ms": (pct(col("compute"), 0.99), "ms"),
        "journal.fsync_p50_ms": (pct(fsyncs, 0.5) if fsyncs else 0.0, "ms"),
        "journal.fsync_p99_ms": (pct(fsyncs, 0.99) if fsyncs else 0.0, "ms"),
        "journal.fsyncs_per_answer": (len(fsyncs) / answers, "count"),
        "registry.evicted_per_answer": (st["evicted"] / answers, "count"),
        "registry.resumed_per_answer": (st["resumed"] / answers, "count"),
        "create_p50_ms": (pct([(o[5] - o[2]) * 1e3 for o in traced["ops"]
                               if o[1] == "c" and o[2] < traced["steps"][0][1]], 0.5), "ms"),
        "trace.unattributed_frac": (unattributed, "fraction"),
        "trace.overhead_frac": (pct([(o[5] - o[2]) for o in nominal], 0.5)
                                / pct([(o[5] - o[2]) for o in answers_in(untraced, 0)], 0.5) - 1.0,
                                "fraction"),
    }
    for k, v in replayed["layers"].items():
        m[k] = (v["value"], v["unit"])
    log(f"  traced: {answers} answers joined to their spans; stage means (ms): " + ", ".join(
        f"{k} {statistics.mean(col(k)):.3f}" for k in ("gen", "wire", "queue", "compute", "fsync")))
    return m


def run_serve(name, seed, seconds, traced):
    wl = SPEC["workloads"][name]
    sv = SPEC["serve"]
    untraced = serve_once(name, wl, seed, seconds, False, "untraced", SETUP_REPS if not traced else 1)
    check_late(untraced)
    if traced:
        tr = serve_once(name, wl, seed, seconds, True, "traced", 1)
        check_late(tr)
        refs = replay(name, seed, seconds, True, state=tr["state"], wire=tr["wire"])
        runs = [untraced, tr]
    else:
        refs = replay(name, seed, seconds, False)
        runs = [untraced]
    attempted = failed = 0
    for run in runs:
        lost, mismatched, same = check_sessions(run, refs)
        a, f = failures(run, lost, mismatched)
        attempted += a
        failed += f
        log(f"  {len(run['sessions'])} sessions: {lost} lost, {mismatched} learned a query other "
            f"than the reference's, {same} asked exactly the reference's questions; "
            f"{f} of {a} operations failed (error_rate {f / a:.4f})")
    if traced:
        # The replay's timings count only if it asked every session's
        # questions exactly as the untraced run did.
        lost, mismatched, same = check_sessions(untraced, refs)
        if same != len(untraced["sessions"]):
            raise BenchError(f"the replay reproduced {same} of {len(untraced['sessions'])} "
                             "sessions' question sequences")
        layer = serve_layers(tr, untraced, refs)
        return failed == 0, attempted, failed, layer
    return failed == 0, attempted, failed, serve_metrics(untraced, sv)


def check_late(run):
    late = run["sched_late_max_ms"]
    bound = SPEC["serve"]["sched_late_bound_ms"]
    if late > bound:
        raise BenchError(f"generator ran {late:.1f} ms late (bound {bound} ms): run rejected")
    if run["gen_threads"] > 2 or run["gen_connections"] > 2:
        raise BenchError("generator exceeded 2 threads / 2 connections")


# ---------------------------------------------------------------------------
# learn-twig
# ---------------------------------------------------------------------------

def open_session_s(lt, doc):
    """Wall time of a learn-twig session that --fuel 1 stops right after it
    opens: parse, index, enumerate the items, create the journal."""
    journal = os.path.join(WORK, "open.journal")
    for f in (journal, journal + ".lock"):
        if os.path.exists(f):
            os.remove(f)
    t0 = time.monotonic()
    r = subprocess.run([LEARNQ, "learn-twig", doc, "--goal", lt["goal"], "--interactive",
                        "--journal", journal, "--journal-sync", "batch", "--fuel", "1"],
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    wall = time.monotonic() - t0
    if r.returncode not in (0, 2, 3):
        raise BenchError(f"learn-twig --fuel 1 exited {r.returncode}")
    return wall


def learn_twig_once(lt, doc, trace_file, metrics_file=None):
    journal = os.path.join(WORK, "learn.journal")
    for f in (journal, journal + ".lock"):
        if os.path.exists(f):
            os.remove(f)
    cmd = [LEARNQ, "learn-twig", doc, "--goal", lt["goal"], "--interactive",
           "--journal", journal, "--journal-sync", "batch", "--trace", trace_file]
    if metrics_file:
        cmd += ["--metrics", metrics_file]
    t0 = time.monotonic()
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    out = p.stdout.read()
    _, status, ru = os.wait4(p.pid, 0)
    wall = time.monotonic() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    if p.returncode != 0:
        raise BenchError(f"learn-twig exited {p.returncode}")
    questions = int(out.split("questions: ", 1)[1].split(",", 1)[0])
    learned = out.split("learned: ", 1)[1].strip()
    events = json.load(open(trace_file))["traceEvents"]
    asks = sorted(e["ts"] for e in events if e["name"] == "interact.ask")
    return {
        "learn_s": wall,
        "questions": questions,
        "learned": learned,
        "correct": questions == lt["expect_questions"] and learned == lt["expect_query"],
        "rss_mb": ru.ru_maxrss / 1024.0,
        "journal_bytes": os.path.getsize(journal),
        "gaps_ms": [(b - a) / 1e3 for a, b in zip(asks, asks[1:])],
    }


def run_learn_twig(seconds, traced):
    lt = SPEC["workloads"]["learn-twig"]
    doc = os.path.join(WORK, "doc.xml")
    trace_file = os.path.join(WORK, "learn-trace.json")
    gen, opens, runs = [], [], []
    t0 = time.monotonic()
    # The short set-up and open timings are spread over the window, between
    # the sessions, so a slow spell of the host does not take all of them.
    while not runs or time.monotonic() - t0 < seconds:
        for _ in range(3):
            t = time.monotonic()
            with open(doc, "w") as f:
                subprocess.run([LEARNQ, "xmark", "--scale", str(lt["scale"]),
                                "--seed", str(lt["doc_seed"])], stdout=f, check=True)
            gen.append(time.monotonic() - t)
            opens.append(open_session_s(lt, doc))
        runs.append(learn_twig_once(lt, doc, trace_file))
    ok = all(r["correct"] for r in runs)
    for r in runs:
        if not r["correct"]:
            log(f"  learn-twig asked {r['questions']} questions and learned {r['learned']}; "
                f"expected {lt['expect_questions']} and {lt['expect_query']}")
    failed = sum(1 for r in runs if not r["correct"])
    log(f"  {len(runs)} learn-twig runs, {failed} wrong")
    med = lambda k: statistics.median(r[k] for r in runs)
    if traced:
        mfile = os.path.join(WORK, "learn-metrics.json")
        tr = learn_twig_once(lt, doc, trace_file, mfile)
        ok = ok and tr["correct"]
        m = json.load(open(mfile))
        c, spans = m["counters"], m["spans"]
        q = tr["questions"]
        contain = sum(c[k] for k in ("learnq.twig.contain_calls", "learnq.twig.filter_contain_calls",
                                     "learnq.twig.semantic_contain_calls"))
        ratio = lambda h, mi: c[h] / max(1, c[h] + c[mi])
        layer = {
            "interact.session_self_s": (spans["interact.session"]["self_s"], "s"),
            "learn.startup_s": (tr["learn_s"] - spans["interact.session"]["total_s"], "s"),
            "twig.contain.calls_per_question": (contain / q, "count"),
            "twig.contain.cache_hit_ratio": (ratio("learnq.twig.contain_cache_hits",
                                                   "learnq.twig.contain_cache_misses"), "fraction"),
            "twig.eval.cache_hit_ratio": (ratio("learnq.twig.eval_cache_hits",
                                                "learnq.twig.eval_cache_misses"), "fraction"),
            "interact.pruned_per_question": (c["learnq.interact.pruned"] / q, "count"),
            "trace.overhead_frac": (tr["learn_s"] / med("learn_s") - 1.0, "fraction"),
            "create_p50_ms": (statistics.median(opens) * 1e3, "ms"),
        }
        return ok, len(runs) + 1, failed + (0 if tr["correct"] else 1), layer
    # One session has one slow determined-scan and hundreds of sub-ms
    # steps, so its percentiles sit in timer noise: report the mean and the
    # longest delay between consecutive questions instead.
    metrics = {
        "setup_s": (statistics.median(gen), "s", len(gen)),
        "answer_p50_ms": (statistics.median(statistics.mean(r["gaps_ms"]) for r in runs), "ms", len(runs)),
        "answer_p99_ms": (statistics.median(max(r["gaps_ms"]) for r in runs), "ms", len(runs)),
        "create_p50_ms": (statistics.median(opens) * 1e3, "ms", len(opens)),
        "max_rate_sps": (1.0 / med("learn_s"), "1/s", len(runs)),
        "questions_per_session": (med("questions"), "count", len(runs)),
        "rss_mb": (med("rss_mb"), "MB", len(runs)),
        "store_bytes_per_answer": (med("journal_bytes") / med("questions"), "B", len(runs)),
        "learn_s": (med("learn_s"), "s", len(runs)),
    }
    return ok, len(runs), failed, metrics


# ---------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    build()
    if os.path.exists(WORK):
        shutil.rmtree(WORK)
    os.makedirs(WORK)
    log(f"{a.workload}: seed {a.seed}, {a.seconds} s, trace {a.trace}")
    if a.workload == "learn-twig":
        ok, attempted, failed, metrics = run_learn_twig(a.seconds, a.trace == 1)
    else:
        ok, attempted, failed, metrics = run_serve(a.workload, a.seed, a.seconds, a.trace == 1)

    def line(name, m, note=""):
        n = f" (n={m[2]})" if len(m) > 2 else ""
        print(f"{name} {m[0]:.6g} {m[1]}{n}{note}")

    out = {}
    for meta in SPEC["metrics"]["per_layer" if a.trace else "end_to_end"]:
        # a layer this workload does not exercise reads 0
        m = metrics.pop(meta["name"], (0.0, meta["unit"]))
        out[meta["name"]] = {"value": m[0], "unit": m[1]}
        line(meta["name"], m)
    for name, m in metrics.items():
        line(name, m, " (not in the result line)")
    shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": out}))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, subprocess.SubprocessError, OSError, KeyError, ValueError) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
