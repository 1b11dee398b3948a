#!/usr/bin/env python3
"""Result sets of the repository benchmark, and the two-set agreement check.

    python3 perfbench/sets.py run --out A.json [--seeds 1-10] [--workloads W,...]
    python3 perfbench/sets.py compare A.json B.json
    python3 perfbench/sets.py agree [--seeds 1-10] [--workloads W,...] [--dir DIR]
    python3 perfbench/sets.py shares _perfbench/spans/WORKLOAD-seedN-trace1.jsonl

`run` runs perfbench/run.py untraced (--trace 0) once per workload and
seed and writes one machine-readable result set of the end-to-end
metrics: per workload and metric, every per-run
value with its median, quartiles (statistics.quantiles, n=4) and spread
(interquartile distance over the median), plus the commit, core count
and OCaml version the runs reported.  `compare` checks two sets against
the bounds in BENCHMARK.json: for each workload and end-to-end metric,
whether the medians agree within the bound, and whether each set's
spread stays within it; a metric whose spread exceeds its bound is
reported UNSTEADY, set-up time included.  `agree` runs two independent sets of the same
code and compares them.  Both exit 1 when any pair disagrees.  `shares`
reads the spans a traced run wrote and prints each layer's share of the
traced iterations' wall time, with the unattributed remainder.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    median = statistics.median(values)
    return {"samples": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def run_one(bench, workload, seed):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    started = time.time()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"sets: {workload} seed {seed} exited {out.returncode}")
    result = json.loads(lines[-1])
    tag = f"{workload}-seed{seed}-trace0"
    with open(os.path.join(ROOT, "_perfbench", "runs", tag + ".json")) as f:
        detail = json.load(f)
    print(f"sets: {workload} seed {seed}: {time.time() - started:.0f} s, correct={result['correct']}",
          file=sys.stderr)
    return result, detail


def run_set(workloads, seeds):
    bench = spec()
    out = {"run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    for w in workloads:
        metrics, failed_seeds, env = {}, [], {}
        for seed in seeds:
            result, detail = run_one(bench, w, seed)
            if not result["correct"] or result["failed"]:
                failed_seeds.append(seed)
            env = {k: detail[k] for k in ("commit", "cores", "ocaml")}
            for name, m in result["metrics"].items():
                metrics.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
        out.update(env)
        out["workloads"][w] = {
            "failed_seeds": failed_seeds,
            "metrics": {name: dict(unit=m["unit"], **summary(m["values"]))
                        for name, m in metrics.items()},
        }
    return out


def compare(a, b):
    """Rows of (workload, metric, median A, median B, change, spreads, verdict)."""
    rows, ok = [], True
    for m in spec()["end_to_end"]:
        for w in sorted(set(a["workloads"]) & set(b["workloads"])):
            ma, mb = a["workloads"][w]["metrics"].get(m["name"]), b["workloads"][w]["metrics"].get(m["name"])
            if ma is None or mb is None:
                rows.append((w, m["name"], "missing"))
                ok = False
                continue
            change = (mb["median"] - ma["median"]) / ma["median"] if ma["median"] else 0.0
            worse = change if m["better"] == "lower" else -change
            agree = abs(change) <= m["bound"]
            steady = max(ma["spread"], mb["spread"]) <= m["bound"]
            ok = ok and agree and steady and worse <= m["bound"]
            verdict = "agree" if agree and steady else "DISAGREE" if steady else "UNSTEADY"
            rows.append((w, m["name"], f"{ma['median']:.6g} -> {mb['median']:.6g}",
                         f"change {change:+.3%} (bound {m['bound']:.0%})",
                         f"spread {ma['spread']:.3%}/{mb['spread']:.3%}", verdict))
    for w in sorted(set(a["workloads"]) | set(b["workloads"])):
        for s in (a, b):
            failed = s["workloads"].get(w, {}).get("failed_seeds", [])
            if failed:
                rows.append((w, "checks", f"runs failed their output checks, seeds {failed}"))
                ok = False
    return rows, ok


def shares(path):
    """Self time per layer over the traced iterations, as shares of their wall time."""
    spans = [json.loads(line) for line in open(path)]
    by_id = {s["id"]: s for s in spans}

    def root(s):
        while s["parent"] >= 0:
            s = by_id[s["parent"]]
        return s

    child = {}
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["end_s"] - s["start_s"]
    layers, wall = {}, 0.0
    for s in spans:
        if root(s)["name"] != "iteration":
            continue
        self_s = s["end_s"] - s["start_s"] - child.get(s["id"], 0.0)
        if s["parent"] < 0:
            wall += s["end_s"] - s["start_s"]
            name = "unattributed"
        else:
            name = s["name"].split(".")[0] if s["name"].split(".")[0] in ("disksim", "chaos") else s["name"]
        layers[name] = layers.get(name, 0.0) + self_s
    for name, t in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"{name:22s} {t / wall:7.1%}  {t:8.3f} s")
    return 0


def report(rows, ok):
    for row in rows:
        print("  ".join(str(c) for c in row))
    print("sets: agree" if ok else "sets: DISAGREE")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    names = [w["name"] for w in spec()["workloads"]]
    for cmd in ("run", "agree"):
        p = sub.add_parser(cmd)
        p.add_argument("--seeds", default="1-10")
        p.add_argument("--workloads", default=",".join(names))
        if cmd == "run":
            p.add_argument("--out", required=True)
        else:
            p.add_argument("--dir", default=os.path.join(ROOT, "_perfbench", "sets"))
    p = sub.add_parser("compare")
    p.add_argument("a")
    p.add_argument("b")
    sub.add_parser("shares").add_argument("spans")
    args = ap.parse_args()

    if args.cmd == "shares":
        return shares(args.spans)
    if args.cmd == "compare":
        with open(args.a) as fa, open(args.b) as fb:
            return report(*compare(json.load(fa), json.load(fb)))
    workloads, seeds = args.workloads.split(","), seeds_of(args.seeds)
    if args.cmd == "run":
        with open(args.out, "w") as f:
            json.dump(run_set(workloads, seeds), f, indent=1)
        return 0
    os.makedirs(args.dir, exist_ok=True)
    sets = []
    for label in ("a", "b"):
        s = run_set(workloads, seeds)
        with open(os.path.join(args.dir, f"set-{label}.json"), "w") as f:
            json.dump(s, f, indent=1)
        sets.append(s)
    return report(*compare(*sets))


if __name__ == "__main__":
    sys.exit(main())
