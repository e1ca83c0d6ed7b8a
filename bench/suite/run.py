#!/usr/bin/env python3
"""Runner for the repo benchmark (bench/suite/README.md).

One measurement, printed as one JSON line (the last line of stdout):

    python3 bench/suite/run.py --workload read_shared --seed 1 --seconds 30 --trace 0

  This is BENCHMARK.json's `command`. --trace 0 reports every end_to_end
  metric of BENCHMARK.json; --trace 1 runs the traced variant and reports
  every per_layer metric. --seconds defaults to run_seconds. The suite is
  built from source into build/suite on first use. The exit code is 0 only
  when every output check passed.

Subcommands:

    run.py run [--build DIR]... [-k K] [--seed N] [--seconds S] [--out DIR]
        Runs every workload K times per build. With two builds the order
        alternates per iteration. Prints median and quartiles per metric
        and writes DIR/<a|b>.json for `compare`.
    run.py compare A.json B.json
        Applies BENCHMARK.json's bounds to every (metric, workload) pair,
        A the parent and B the change. One row per workload; a pair is
        unresolved when A's own spread exceeds the bound. Exits 1 on any
        regression.
    run.py trace [--seed N] [--seconds S]
        Runs each workload untraced and traced and reports
        trace_overhead_frac = traced run_s / untraced run_s - 1.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
DEFAULT_BUILD = ROOT / "build" / "suite"
# One measurement must end within 180 s; bs_suite gets 170 of them.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build(build_dir):
    """Configures (once) and builds bs_suite; returns the binary path."""
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(SUITE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "bs_suite",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "bs_suite"


def suite_run(binary, workload, seed, seconds, trace_dir=None):
    """Runs bs_suite once and returns its JSON line as a dict."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", str(trace_dir)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"bs_suite printed nothing (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"bs_suite exited {proc.returncode}")
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


# --- one measurement ----------------------------------------------------------

def measure(args):
    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    binary = build(DEFAULT_BUILD)
    if args.trace:
        trace_dir = DEFAULT_BUILD / "trace"
        result = suite_run(binary, args.workload, args.seed, seconds,
                           trace_dir)
        with open(trace_dir / f"{args.workload}.layers.json") as f:
            layers = json.load(f)["metrics"]
        # A layer that does not run in this workload (MapReduce outside
        # mr_mix, an op it never issues) reports 0.
        metrics = {m["name"]: {"value": layers.get(m["name"], {}).get("value", 0),
                               "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        result = suite_run(binary, args.workload, args.seed, seconds)
        metrics = {}
        for m in spec["end_to_end"]:
            got = result["metrics"][m["name"]]
            if got["unit"] != m["unit"]:
                raise RuntimeError(f"{m['name']}: unit {got['unit']} != {m['unit']}")
            metrics[m["name"]] = got
    log("checks: " + json.dumps(result["checks"]))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if result["correct"] else 1


# --- run / compare / trace ---------------------------------------------------

def cmd_run(args):
    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = [w["name"] for w in spec["workloads"]]
    builds = [Path(b).resolve() for b in args.build] or [DEFAULT_BUILD]
    if len(builds) > 2:
        raise SystemExit("run takes at most two builds")
    binaries = [build(b) if b == DEFAULT_BUILD else b / "bs_suite"
                for b in builds]
    labels = ["a", "b"][:len(builds)]
    results = {label: {"build": str(b), "seed": args.seed, "runs": []}
               for label, b in zip(labels, builds)}
    for i in range(args.k):
        # Alternate which build goes first so drift hits both equally.
        order = list(zip(labels, binaries))
        if i % 2 == 1:
            order.reverse()
        for workload in names:
            for label, binary in order:
                r = suite_run(binary, workload, args.seed, seconds)
                if not r["correct"]:
                    raise SystemExit(f"{label} {workload}: checks failed: {r['checks']}")
                results[label]["runs"].append(r)
                log(f"[{i + 1}/{args.k}] {label} {workload} "
                    f"run_s={r['metrics']['run_s']['value']:.3f}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for label in labels:
        with open(out / f"{label}.json", "w") as f:
            json.dump(results[label], f, indent=1)
        print(f"== {label}: {results[label]['build']}")
        summarize(results[label]["runs"])
    return 0


def by_workload(runs):
    table = {}
    for r in runs:
        per = table.setdefault(r["workload"], {})
        for name, m in r["metrics"].items():
            per.setdefault(name, {"unit": m["unit"], "values": []})
            per[name]["values"].append(m["value"])
        per.setdefault("_digests", set()).add(r["sim_digest"])
    return table


def summarize(runs):
    for workload, metrics in by_workload(runs).items():
        digests = metrics.pop("_digests")
        print(f"{workload}  (sim_digest {'stable' if len(digests) == 1 else 'VARIES'})")
        for name, m in metrics.items():
            q1, med, q3 = quartiles(m["values"])
            print(f"  {name:18s} {med:14.6g} {m['unit']:6s} "
                  f"[q1 {q1:.6g}, q3 {q3:.6g}] n={len(m['values'])}")


def cmd_compare(args):
    spec = load_spec()
    with open(args.a) as f:
        a = by_workload(json.load(f)["runs"])
    with open(args.b) as f:
        b = by_workload(json.load(f)["runs"])
    regressions = 0
    for workload in a:
        if workload not in b:
            print(f"{workload}: missing from {args.b}")
            regressions += 1
            continue
        same_sim = a[workload].pop("_digests") == b[workload].pop("_digests")
        cells = []
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            va, vb = a[workload][name]["values"], b[workload][name]["values"]
            ma, mb = statistics.median(va), statistics.median(vb)
            sign = 1 if m["better"] == "lower" else -1
            change = sign * (mb - ma) / ma if ma else 0.0
            all_better = (max(vb) < min(va)) if sign == 1 else (min(vb) > max(va))
            if spread(va) > bound and not all_better:
                status = "unresolved"
            elif change > bound:
                status = "REGRESSED"
                regressions += 1
            else:
                status = "ok"
            cells.append(f"{name} {change:+.2%} {status}")
        print(f"{workload}: sim_digest {'same' if same_sim else 'differs'} | "
              + " | ".join(cells))
    return 1 if regressions else 0


def cmd_trace(args):
    spec = load_spec()
    binary = build(DEFAULT_BUILD)
    trace_dir = DEFAULT_BUILD / "trace"
    summary = {}
    for w in spec["workloads"]:
        name = w["name"]
        plain = suite_run(binary, name, args.seed, args.seconds)
        traced = suite_run(binary, name, args.seed, args.seconds, trace_dir)
        with open(trace_dir / f"{name}.layers.json") as f:
            layers = json.load(f)["metrics"]
        missing = [m["name"] for m in spec["per_layer"] if m["name"] not in layers]
        overhead = (traced["metrics"]["run_s"]["value"] /
                    plain["metrics"]["run_s"]["value"] - 1)
        same_sim = all(plain["metrics"][k]["value"] == traced["metrics"][k]["value"]
                       for k in ("bsfs_makespan_s", "hdfs_makespan_s"))
        summary[name] = {"trace_overhead_frac": overhead,
                         "layer_metrics": len(layers),
                         "not_applicable": missing,
                         "same_makespans": same_sim}
        print(f"{name}: trace_overhead_frac {overhead:+.3f}, {len(layers)} layer "
              f"metrics, makespans {'unchanged' if same_sim else 'CHANGED'} "
              f"by tracing; files in {trace_dir}")
    with open(trace_dir / "summary.json", "w") as f:
        json.dump(summary, f, indent=1)
    return 0


def main(argv):
    if argv and argv[0] in ("run", "compare", "trace"):
        p = argparse.ArgumentParser(prog="run.py")
        sub = p.add_subparsers(dest="cmd", required=True)
        r = sub.add_parser("run")
        r.add_argument("--build", action="append", default=[])
        r.add_argument("-k", type=int, default=5)
        r.add_argument("--seed", type=int, default=1)
        r.add_argument("--seconds", type=float)
        r.add_argument("--out", default=str(DEFAULT_BUILD / "results"))
        c = sub.add_parser("compare")
        c.add_argument("a")
        c.add_argument("b")
        t = sub.add_parser("trace")
        t.add_argument("--seed", type=int, default=1)
        t.add_argument("--seconds", type=float, default=0)
        args = p.parse_args(argv)
        return {"run": cmd_run, "compare": cmd_compare, "trace": cmd_trace}[args.cmd](args)
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return measure(p.parse_args(argv))


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            RuntimeError, OSError, KeyError, ValueError) as e:
        log(f"run.py: {e}")
        sys.exit(2)
