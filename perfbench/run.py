#!/usr/bin/env python3
"""Benchmark of the RLA/TCP simulator: builds perfbench/bench.exe from
source, runs one workload, checks every simulated output against the
values recorded for its seeds, and prints one JSON result as the last
line of standard output.

    python3 perfbench/run.py --workload fig6_red_case3 --seed 0 \
        --seconds 50 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
--held-out runs the held-out seed ensemble instead of the one --seed
picks.  --record rewrites expected.json from the current code (only
when the simulated outputs are meant to change).  See README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from statistics import mean, median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
EXPECTED = os.path.join(HERE, "expected.json")
OUT = os.path.join(ROOT, ".bench_out")

WORKLOADS = ["fig6_droptail_case5", "fig6_red_case3"]
ENSEMBLE = 8  # simulated seeds per benchmark run
PROCESS_TIMEOUT_S = 150
# Processor time of the calibration kernel (calib.ml) at the reference
# speed; setup_s and run_s are reported at that speed.
CALIB_REF_S = 0.15
WORD_BYTES = 8


def build():
    """Build the measured executable; exit 1 when the tree cannot."""
    dune = shutil.which("dune")
    if dune is None:
        sys.exit("perfbench: dune not found on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        [dune, "build", "--root", ".", "./perfbench/bench.exe"],
        cwd=ROOT, env=env, capture_output=True, text=True)
    if r.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(r.stdout + r.stderr)
        sys.exit("perfbench: build failed")


def bench(*args, deadline):
    """Run bench.exe in a fresh process; its last stdout line as JSON,
    or None when it failed."""
    timeout = max(1.0, min(PROCESS_TIMEOUT_S, deadline - time.time()))
    try:
        r = subprocess.run([EXE, *map(str, args)], cwd=ROOT,
                           capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: {args} timed out\n")
        return None
    if r.returncode != 0:
        sys.stderr.write(f"perfbench: {args} exited {r.returncode}\n"
                         + r.stderr[-2000:])
        return None
    try:
        return json.loads(r.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        sys.stderr.write(f"perfbench: {args} printed no result\n")
        return None


def load_expected():
    with open(EXPECTED) as f:
        return json.load(f)


def ensemble(expected, workload, seed, held_out):
    """The simulated seeds one benchmark run covers: the workload's
    recorded ensemble chosen by --seed, or the held-out block."""
    if held_out:
        return expected["held_out"]
    blocks = expected["ensembles"][workload]
    return blocks[seed % len(blocks)]


def balanced_ensembles(alloc_words):
    """Split the seed table into blocks of ENSEMBLE seeds whose words
    allocated at recording time have nearly equal sums: each seed, the
    largest first, joins the block with the smallest sum that still has
    room.  Per-seed work differs by up to 1.9x on drop-tail, and any
    difference in total work between ensembles would read as spread
    between --seed values."""
    seeds = sorted(alloc_words, key=lambda s: (-alloc_words[s], s))
    n = len(seeds) // ENSEMBLE
    blocks, sums = [[] for _ in range(n)], [0.0] * n
    for s in seeds:
        i = min((i for i in range(n) if len(blocks[i]) < ENSEMBLE),
                key=lambda i: (sums[i], i))
        blocks[i].append(s)
        sums[i] += alloc_words[s]
    return [sorted(b) for b in blocks]


def matches(expected, workload, sim_seed, record):
    """Does a measured process's simulated output equal the recorded
    one for its seed?  Event counts are reported, never compared."""
    want = expected["workloads"][workload].get(str(sim_seed))
    return record is not None and want is not None and \
        record["outputs"] == want


def host_facts(deadline):
    facts = {"nproc": len(os.sched_getaffinity(0))}
    measured = bench("host", deadline=deadline)
    if measured:
        facts.update(measured)
    return facts


def untraced(workload, seeds, expected, seconds, start, deadline, tally):
    """Repeat the ensemble in fresh processes until the next full cycle
    would overrun --seconds (at least one cycle)."""
    reps = {s: [] for s in seeds}
    setups = []
    while True:
        t0 = time.time()
        for s in seeds:
            r = bench("rep", workload, s, deadline=deadline)
            tally["attempted"] += 1
            if not matches(expected, workload, s, r):
                tally["failed"] += 1
            if r is not None:
                reps[s].append(r)
                setups.extend(at_reference(r, t) for t in r["setup_s"])
        cycle = time.time() - t0
        if time.time() + cycle > start + seconds:
            return reps, setups


def per_seed(reps, key):
    """Median over a seed's repetitions, for every seed that has any."""
    return [median([r[key] for r in rs]) for rs in reps.values() if rs]


def at_reference(r, t):
    """Processor time t of measured process r at the reference speed:
    scaled by the calibration kernel r timed right after its
    simulation."""
    return t * CALIB_REF_S / r["calib_s"]


def end_to_end(reps, setups):
    if not setups or not all(reps.values()):
        return None
    return {
        "setup_s": (median(setups), "s"),
        "run_s": (sum(median([at_reference(r, r["run_s"]) for r in rs])
                      for rs in reps.values()), "s"),
        "alloc_mwords": (sum(per_seed(reps, "alloc_words")) / 1e6, "Mwords"),
        "peak_heap_mb": (mean(per_seed(reps, "top_heap_words"))
                         * WORD_BYTES / 1e6, "MB"),
    }


def gc_sum(reps, key):
    return sum(median([r["gc"][key] for r in rs]) for rs in reps.values())


def per_layer(reps, traced, micro, par):
    """Layer counts from the traced processes, per-call costs from the
    microbenches, GC counters from the untraced processes."""
    def tot(key):
        return sum(t[key] for t in traced)

    events, offered = tot("events"), tot("link_offered")
    run_s = sum(per_seed(reps, "run_s"))
    tcp_sent = tot("tcp_sent_new") + tot("tcp_retransmits")
    rla_ack = micro["rla_ack_ns"]
    # Wall time the layers' counts x per-call costs account for.  Link
    # hops include their two scheduler events; acks are approximated by
    # transmissions (TCP) and receptions (RLA).
    explained_ns = ((events - 2 * offered) * micro["heap_add_pop_ns"]
                    + offered * micro["link_hop_ns"]
                    + tcp_sent * micro["process_ack_ns"]
                    + tot("rla_acks") * rla_ack["27"])
    return {
        "sim.events": (events, "count"),
        "sim.skipped": (tot("skipped"), "count"),
        "sim.ns_per_event": (run_s * 1e9 / events, "ns"),
        "sim.pending_mean": (mean(t["pending_mean"] for t in traced),
                             "count"),
        "sim.heap_add_pop_ns": (micro["heap_add_pop_ns"], "ns"),
        "net.link_offered": (offered, "count"),
        "net.link_dropped": (tot("link_dropped"), "count"),
        "net.link_marked": (tot("link_marked"), "count"),
        "net.drop_ratio": (tot("link_dropped") / offered, "ratio"),
        "net.link_hop_ns": (micro["link_hop_ns"], "ns"),
        "net.words_per_hop": (micro["words_per_hop"], "words"),
        "net.pool_recycle_ratio": (
            tot("pool_recycled") / (tot("pool_recycled") + tot("pool_allocated")),
            "ratio"),
        "net.droptail_arrival_ns": (micro["droptail_arrival_ns"], "ns"),
        "net.red_arrival_ns": (micro["red_arrival_ns"], "ns"),
        "tcp.sent_new": (tot("tcp_sent_new"), "count"),
        "tcp.retransmits": (tot("tcp_retransmits"), "count"),
        "tcp.rexmit_ratio": (tot("tcp_retransmits") / tcp_sent, "ratio"),
        "tcp.window_cuts": (tot("tcp_window_cuts"), "count"),
        "tcp.timeouts": (tot("tcp_timeouts"), "count"),
        "tcp.process_ack_ns": (micro["process_ack_ns"], "ns"),
        "tcp.process_ack_sack_ns": (micro["process_ack_sack_ns"], "ns"),
        "rla.congestion_signals": (tot("rla_signals"), "count"),
        "rla.window_cuts": (tot("rla_window_cuts"), "count"),
        "rla.forced_cuts": (tot("rla_forced_cuts"), "count"),
        "rla.rexmits": (tot("rla_rexmits"), "count"),
        "rla.cut_per_signal": (tot("rla_window_cuts") / max(1, tot("rla_signals")),
                               "ratio"),
        "rla.ack_ns.n27": (rla_ack["27"], "ns"),
        "rla.ack_ns.n1024": (rla_ack["1024"], "ns"),
        "rla.ack_ns.n4096": (rla_ack["4096"], "ns"),
        "par.shards": (par["shards"], "count"),
        "par.rounds": (par["rounds"], "count"),
        "par.cut_edges": (par["cut_edges"], "count"),
        "par.max_shard_event_share": (par["max_shard_event_share"], "ratio"),
        "par.partition_s": (median(par["partition_s"]), "s"),
        "gc.minor_collections": (gc_sum(reps, "minor_collections"), "count"),
        "gc.major_collections": (gc_sum(reps, "major_collections"), "count"),
        "gc.promoted_mwords": (gc_sum(reps, "promoted_words") / 1e6, "Mwords"),
        "trace.overhead_ratio": (tot("run_s") / run_s, "ratio"),
        "trace.unattributed_share": (1.0 - explained_ns / (run_s * 1e9), "ratio"),
    }


def traced_run(workload, seeds, expected, reps, deadline, tally, tag):
    """One traced process per seed, the microbenches and the k-ary
    probe.  Traced outputs must equal the recorded ones and the
    untraced ones."""
    traced = []
    spans_dir = os.path.join(OUT, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    for s in seeds:
        spans = os.path.join(spans_dir, f"{tag}-sim{s}.json")
        t = bench("traced", workload, s, spans, deadline=deadline)
        tally["attempted"] += 1
        ok = matches(expected, workload, s, t) and all(
            r["outputs"] == t["outputs"] for r in reps[s]) and \
            t["events"] == t["loop_fired"] == t["registry_events"]
        if not ok:
            tally["failed"] += 1
        if t is not None:
            traced.append(t)
    if len(traced) != len(seeds):
        return traced, None, None
    pending = round(mean(t["pending_mean"] for t in traced))
    micro = bench("micro", pending, deadline=deadline)
    par = bench("par", deadline=deadline)
    tally["attempted"] += 1
    if par is None or par["table"] != par["traced_table"] or \
            par["table"] != expected["par_probe"]["table"]:
        tally["failed"] += 1
    return traced, micro, par


def record():
    """Rewrite expected.json from the current code: the outputs of
    the seed table and the held-out block, each workload's balanced
    ensembles and the k-ary probe's table."""
    deadline = time.time() + 3600
    seeds = list(range(1, 8 * ENSEMBLE + 1))
    held_out = list(range(1001, 1001 + ENSEMBLE))
    doc = {"held_out": held_out, "ensembles": {}, "workloads": {}}
    for w in WORKLOADS:
        doc["workloads"][w] = {}
        alloc = {}
        for s in seeds + held_out:
            r = bench("rep", w, s, deadline=deadline)
            if r is None:
                sys.exit(f"perfbench: recording {w} seed {s} failed")
            doc["workloads"][w][str(s)] = r["outputs"]
            if s in seeds:
                alloc[s] = r["alloc_words"]
        doc["ensembles"][w] = balanced_ensembles(alloc)
    par = bench("par", deadline=deadline)
    if par is None or par["table"] != par["traced_table"]:
        sys.exit("perfbench: recording the k-ary probe failed")
    doc["par_probe"] = {"table": par["table"]}
    write_expected(doc)


def write_expected(doc):
    """One line per recorded seed, so a re-recording diffs by seed."""
    def dumps(v):
        return json.dumps(v, sort_keys=True, separators=(",", ":"))

    with open(EXPECTED, "w") as f:
        f.write("{\n")
        f.write(' "ensembles": {\n')
        f.write(",\n".join(f'  "{w}": {dumps(b)}'
                           for w, b in doc["ensembles"].items()))
        f.write("\n },\n")
        for k in ("held_out", "par_probe"):
            f.write(f' "{k}": {dumps(doc[k])},\n')
        f.write(' "workloads": {\n')
        for i, (w, outs) in enumerate(doc["workloads"].items()):
            f.write(f'  "{w}": {{\n')
            f.write(",\n".join(f'   "{s}": {dumps(o)}' for s, o in outs.items()))
            f.write("\n  }" + ("," if i + 1 < len(doc["workloads"]) else "") + "\n")
        f.write(" }\n}\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--held-out", action="store_true")
    ap.add_argument("--record", action="store_true")
    a = ap.parse_args()
    build()
    start = time.time()
    deadline = start + 170
    if a.record:
        record()
        return
    if a.workload is None:
        ap.error("--workload is required")
    expected = load_expected()
    seeds = ensemble(expected, a.workload, a.seed, a.held_out)
    tally = {"attempted": 0, "failed": 0}
    host = host_facts(deadline)
    print("host: " + json.dumps(host), flush=True)
    tag = f"{a.workload}-seed{a.seed}{'-heldout' if a.held_out else ''}-trace{a.trace}"
    if a.trace == 0:
        reps, setups = untraced(a.workload, seeds, expected, a.seconds,
                                start, deadline, tally)
        metrics = end_to_end(reps, setups)
        detail = {}
    else:
        reps, setups = untraced(a.workload, seeds, expected, 0,
                                start, deadline, tally)
        traced, micro, par = traced_run(a.workload, seeds, expected, reps,
                                        deadline, tally, tag)
        metrics = None
        if micro is not None and par is not None and all(reps.values()):
            metrics = per_layer(reps, traced, micro, par)
        detail = {"traced": [{k: v for k, v in t.items() if k != "outputs"}
                             for t in traced],
                  "micro": micro, "par": par}
    if metrics is None:
        tally["failed"] = max(1, tally["failed"])
        metrics = {}
    result = {
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, tag + ".json"), "w") as f:
        json.dump({"host": host, "sim_seeds": seeds, "result": result,
                   "reps": {str(s): [{k: v for k, v in r.items() if k != "outputs"}
                                     for r in rs] for s, rs in reps.items()},
                   **detail}, f, indent=1)
    for k, (v, u) in metrics.items():
        print(f"{k:28s} {v:14.6g} {u}")
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
