#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise how steady it is.

Run from the repository root; the command and run length come from
BENCHMARK.json.

    python3 perfbench/steadiness.py run --set A --seeds 1-10 [--workloads sim-fresh,...]
        [--trace 0|1] [--seconds S] [--log FILE]
    python3 perfbench/steadiness.py summary [--log FILE]

`run` interleaves workloads seed by seed and appends one JSON line per run
(exit code, elapsed wall, provenance, exact counts, setup samples and the
result line) to the log. `summary` prints, per set, workload and end-to-end
metric of the untraced runs, the median, quartiles and quartile spread as a
share of the median (the spread `statistics.quantiles(values, n=4)` gives),
and whether each set's median is worse than the first set's by more than
the metric's bound. It then compares, for `setup_s`, the spread of the first
setup alone (process start to first op) with that of the reported median;
prints the per-layer metrics of the traced runs; and checks that every run
of a workload, traced or not, printed the same seed-independent exact
counts, and every run on one seed the same seeded ones.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

LOG = "perfbench/runs/runs.jsonl"


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(args, bench):
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    os.makedirs(os.path.dirname(args.log) or ".", exist_ok=True)
    with open(args.log, "a") as log:
        for seed in seeds(args.seeds):
            for w in workloads:
                cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                          "--seconds", str(args.seconds or bench["run_seconds"]),
                                          "--trace", str(args.trace)]
                t0 = time.time()
                p = subprocess.run(cmd, capture_output=True, text=True)
                elapsed = time.time() - t0
                lines = p.stdout.strip().splitlines()
                rec = {"set": args.set, "workload": w, "seed": seed, "trace": args.trace,
                       "seconds": args.seconds or bench["run_seconds"],
                       "exit": p.returncode, "elapsed_s": round(elapsed, 3)}
                try:
                    rec["result"] = json.loads(lines[-1])
                except (IndexError, json.JSONDecodeError):
                    rec["stderr"] = p.stderr[-2000:]
                rec["provenance"] = next((json.loads(l[len("provenance "):]) for l in lines
                                          if l.startswith("provenance ")), None)
                rec["exact"] = [l[len("exact "):] for l in lines if l.startswith("exact ")]
                rec["setup_samples"] = next((json.loads(l[len("setup_samples "):]) for l in lines
                                             if l.startswith("setup_samples ")), None)
                log.write(json.dumps(rec) + "\n")
                log.flush()
                m = rec.get("result", {}).get("metrics", {})
                brief = " ".join(f"{k}={v['value']:.4g}" for k, v in m.items()) if "result" in rec else "NO RESULT"
                print(f"[{args.set}] {w} seed {seed} exit {p.returncode} {elapsed:.1f}s {brief}", flush=True)


def spread(vals):
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / med if med else float("inf")


def summary(args, bench):
    everything = [json.loads(l) for l in open(args.log) if l.strip()]
    bad = end_to_end(everything, bench)
    setups(everything, bench)
    layers(everything, bench)
    return bad + exact_counts(everything)


def end_to_end(recs, bench):
    recs = [r for r in recs if r["trace"] == 0]
    sets = list(dict.fromkeys(r["set"] for r in recs))
    workloads = [w["name"] for w in bench["workloads"]]
    print("| set | workload | metric | runs | median | q1 | q3 | spread | bound | spread ok | vs first set |")
    print("|---|---|---|---|---|---|---|---|---|---|---|")
    bad = 0
    for w in workloads:
        first = {}
        for s in sets:
            rs = [r for r in recs if r["set"] == s and r["workload"] == w]
            if not rs:
                continue
            failed = [r for r in rs if r["exit"] != 0 or not r.get("result", {}).get("correct")]
            for m in bench["end_to_end"]:
                vals = [r["result"]["metrics"][m["name"]]["value"] for r in rs if "result" in r]
                if len(vals) < 2:
                    continue
                q1, med, q3 = statistics.quantiles(vals, n=4)
                sp = spread(vals)
                ok = "yes" if sp <= m["bound"] / 3 else ("within bound" if sp <= m["bound"] else "NO")
                bad += sp > m["bound"]
                cmp = ""
                if m["name"] in first:
                    base = first[m["name"]]
                    worse = (med - base) / base if m["better"] == "lower" else (base - med) / base
                    cmp = f"{worse:+.1%} worse" + (" NO" if worse > m["bound"] else "")
                    bad += worse > m["bound"]
                else:
                    first[m["name"]] = med
                print(f"| {s} | {w} | {m['name']} | {len(vals)} | {med:.6g} | {q1:.6g} | {q3:.6g} "
                      f"| {sp:.1%} | {m['bound']} | {ok} | {cmp} |")
            if failed:
                print(f"| {s} | {w} | failed runs | {len(failed)} | | | | | | NO | |")
                bad += len(failed)
    return bad


def setups(recs, bench):
    """setup_s spread: the first setup alone against the median of all."""
    recs = [r for r in recs if r["trace"] == 0 and r.get("setup_samples")]
    print()
    print("| set | workload | setups per run | spread of first setup | spread of median (setup_s) |")
    print("|---|---|---|---|---|")
    for w in [w["name"] for w in bench["workloads"]]:
        for s in dict.fromkeys(r["set"] for r in recs):
            rs = [r["setup_samples"] for r in recs if r["set"] == s and r["workload"] == w]
            if len(rs) < 2:
                continue
            first = spread([x[0] for x in rs])
            med = spread([statistics.median(x) for x in rs])
            print(f"| {s} | {w} | {len(rs[0])} | {first:.1%} | {med:.1%} |")


def layers(recs, bench):
    """Per-layer metrics of the traced runs: median, quartiles, spread."""
    recs = [r for r in recs if r["trace"] == 1 and "result" in r]
    if not recs:
        return
    print()
    print("| set | workload | per-layer metric | unit | runs | median | q1 | q3 | spread |")
    print("|---|---|---|---|---|---|---|---|---|")
    for s in dict.fromkeys(r["set"] for r in recs):
        for w in [w["name"] for w in bench["workloads"]]:
            rs = [r["result"]["metrics"] for r in recs if r["set"] == s and r["workload"] == w]
            for m in bench["per_layer"]:
                vals = [x[m["name"]]["value"] for x in rs if m["name"] in x]
                if len(vals) < 2 or not any(vals):
                    continue
                q1, med, q3 = statistics.quantiles(vals, n=4)
                sp = f"{(q3 - q1) / med:.1%}" if med else "-"
                print(f"| {s} | {w} | {m['name']} | {m['unit']} | {len(vals)} | {med:.6g} "
                      f"| {q1:.6g} | {q3:.6g} | {sp} |")


def exact_counts(recs):
    """Every run of one build, workload and run length, traced or not, printed
    the same seed-independent (`fixed`) counts, and every such run on one seed
    the same seeded ones."""
    bad = 0
    groups = {}
    for r in recs:
        if r.get("exact") and r.get("provenance"):
            key = (r["workload"], r.get("seconds"), r["provenance"]["build"])
            groups.setdefault(key, []).append(r)
    print()
    print("| workload | seconds | build | runs (traced) | seeds | fixed counts | seeded counts |")
    print("|---|---|---|---|---|---|---|")
    for (w, secs, build), rs in groups.items():
        fixed = {tuple(l for l in r["exact"] if l.startswith("fixed ")) for r in rs}
        per_seed = {}
        for r in rs:
            per_seed.setdefault(r["seed"], set()).add(tuple(r["exact"]))
        fixed_ok = len(fixed) == 1
        seeded_ok = all(len(v) == 1 for v in per_seed.values())
        bad += (not fixed_ok) + (not seeded_ok)
        traced = sum(r["trace"] for r in rs)
        print(f"| {w} | {secs} | {build} | {len(rs)} ({traced}) | {len(per_seed)} "
              f"| {'identical' if fixed_ok else 'DIFFER'} "
              f"| {'identical per seed' if seeded_ok else 'DIFFER'} |")
    return bad


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("mode", choices=["run", "summary"])
    ap.add_argument("--set", default="A")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=0, help="run length (default: BENCHMARK.json)")
    ap.add_argument("--log", default=LOG)
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    if args.mode == "run":
        run(args, bench)
    else:
        sys.exit(1 if summary(args, bench) else 0)


if __name__ == "__main__":
    main()
