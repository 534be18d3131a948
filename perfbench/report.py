#!/usr/bin/env python3
"""Steadiness report for the end-to-end benchmark (report only, no gate).

    python3 perfbench/report.py run --workload NAME [--runs 10] [--seed0 1]
                                    [--seconds S] [--trace 0|1] --out F.jsonl
    python3 perfbench/report.py show F.jsonl [F2.jsonl ...]
    python3 perfbench/report.py compare BASE.jsonl NEW.jsonl

`run` runs perfbench/run.py once per seed and appends each result (with
its meta record) to F.jsonl. `show` prints each metric's median, quartiles
and spread (inter-quartile distance over the median, as
statistics.quantiles(n=4) gives the quartiles) and flags a metric whose
spread exceeds its bound in BENCHMARK.json as unresolved. `compare` pairs
the i-th run of BASE with the i-th run of NEW and prints both medians, the
change, the pair win counts, and a verdict per end-to-end metric.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spec():
    s = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in s["end_to_end"] + s["per_layer"]}


def load(paths):
    groups = {}
    for path in paths:
        for line in Path(path).read_text().splitlines():
            if line.strip():
                rec = json.loads(line)
                groups.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return groups


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def cmd_run(args):
    with open(args.out, "a") as out:
        for i in range(args.runs):
            seed = args.seed0 + i
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                   "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            lines = proc.stdout.splitlines()
            meta = next((json.loads(l)["meta"] for l in lines
                         if l.startswith('{"meta"')), {})
            result = json.loads(lines[-1]) if lines else None
            ok = proc.returncode == 0 and result and result["correct"]
            print(f"{args.workload} seed {seed}: "
                  f"{'ok' if ok else 'FAILED (exit %d)' % proc.returncode}",
                  file=sys.stderr, flush=True)
            if result is None:
                continue
            out.write(json.dumps({"workload": args.workload, "seed": seed,
                                  "trace": args.trace, "meta": meta,
                                  "result": result}) + "\n")
            out.flush()


def cmd_show(args):
    defs = spec()
    for (workload, trace), recs in sorted(load(args.files).items()):
        shares = sorted({r["result"]["failed"] / r["result"]["attempted"]
                         for r in recs})
        print(f"\n== {workload} (trace {trace}, {len(recs)} runs; "
              f"failed share {', '.join('%.6f' % s for s in shares)})")
        print(f"{'metric':38s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
              f"{'spread':>8s} {'bound':>6s}  flag")
        for name in recs[0]["result"]["metrics"]:
            vals = [r["result"]["metrics"][name]["value"] for r in recs]
            q1, med, q3 = quartiles(vals)
            sp = spread(vals)
            bound = defs.get(name, {}).get("bound")
            flag = ""
            if bound is not None:
                flag = ("UNRESOLVED" if sp > bound else
                        "ok" if sp <= bound / 3 else "within bound")
            unit = recs[0]["result"]["metrics"][name]["unit"]
            print(f"{name + ' [' + unit + ']':38s} {med:14.6g} {q1:14.6g} "
                  f"{q3:14.6g} {sp:8.4f} "
                  f"{'' if bound is None else '%.2f' % bound:>6s}  {flag}")


def cmd_compare(args):
    defs = spec()
    base, new = load([args.base]), load([args.new])
    for key in sorted(set(base) & set(new)):
        b, n = base[key], new[key]
        workload, trace = key
        print(f"\n== {workload} (trace {trace}): {len(b)} base runs, "
              f"{len(n)} new runs")
        fb = {r["result"]["failed"] / r["result"]["attempted"] for r in b}
        fn = {r["result"]["failed"] / r["result"]["attempted"] for r in n}
        print(f"failed share: base {sorted(fb)} new {sorted(fn)}"
              f"{'' if fb == fn else '  DIFFERENT'}")
        print(f"{'metric':26s} {'base':>12s} {'new':>12s} {'change':>8s} "
              f"{'bound':>6s} {'wins':>7s}  verdict")
        for name, d in defs.items():
            if "bound" not in d or name not in b[0]["result"]["metrics"]:
                continue
            bv = [r["result"]["metrics"][name]["value"] for r in b]
            nv = [r["result"]["metrics"][name]["value"] for r in n]
            bm, nm = statistics.median(bv), statistics.median(nv)
            lower = d["better"] == "lower"
            worse = (nm - bm) / abs(bm) if bm else 0.0
            if not lower:
                worse = -worse
            pairs = list(zip(bv, nv))
            wins = sum((y < x) if lower else (y > x) for x, y in pairs)
            all_better = all((y < min(bv)) if lower else (y > max(bv))
                             for y in nv)
            if spread(bv) > d["bound"] or spread(nv) > d["bound"]:
                verdict = "better (every run)" if all_better else "unresolved"
            elif worse > d["bound"]:
                verdict = "WORSE than bound"
            else:
                verdict = "within bound"
            print(f"{name:26s} {bm:12.6g} {nm:12.6g} {-worse:+8.2%} "
                  f"{d['bound']:6.2f} {wins:3d}/{len(pairs):<3d}  {verdict}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", required=True)
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--seed0", type=int, default=1)
    r.add_argument("--seconds", type=float,
                   default=json.loads((ROOT / "BENCHMARK.json").read_text())
                   ["run_seconds"])
    r.add_argument("--trace", type=int, choices=[0, 1], default=0)
    r.add_argument("--out", required=True)
    s = sub.add_parser("show")
    s.add_argument("files", nargs="+")
    c = sub.add_parser("compare")
    c.add_argument("base")
    c.add_argument("new")
    args = ap.parse_args()
    {"run": cmd_run, "show": cmd_show, "compare": cmd_compare}[args.cmd](args)


if __name__ == "__main__":
    main()
