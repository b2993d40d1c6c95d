#!/usr/bin/env python3
"""Runs the benchmark several times per workload and reports each end-to-end
metric's median, quartiles and spread (interquartile range as a share of the
median) against the bounds in BENCHMARK.json.

    python3 perfbench/prove.py [--workloads a,b] [--seeds 1,2,3] [--repeat N]
                               [--heldout N] [--out FILE]

Run from the repository root. Each run is the BENCHMARK.json command with
`--workload W --seed N --seconds <run_seconds> --trace 0`. Two kinds of set:

- across seeds (`--seeds 1,2,...,10`): each run has other inputs. This is
  the set whose spread must stay within each metric's bound.
- on one seed (`--seeds 1 --repeat 10`): the same inputs every run, as when
  a parent and a change are compared. Its spread is the run-to-run noise
  alone.

A `--heldout` seed runs once per workload after the others; its figures are
recorded apart and stay out of the statistics. `--out` writes everything as
JSON, including each run's per-stage sample counts from stderr.

Before each run, a fixed pure-Python loop is timed (`probe_s`). It is not a
metric and scales nothing: it shows how fast the host was at that time, so
two sets measured at different times can be told apart from a change.
"""
import json
import os
import statistics
import subprocess
import sys
import time


def arg(flag, default):
    return sys.argv[sys.argv.index(flag) + 1] if flag in sys.argv else default


def probe():
    """Seconds for a fixed loop; larger when the host is slower."""
    t0 = time.perf_counter()
    x = 0
    for i in range(2_000_000):
        x += i * i
    return time.perf_counter() - t0


def main():
    bench = json.load(open("BENCHMARK.json"))
    workloads = arg("--workloads", ",".join(w["name"] for w in bench["workloads"])).split(",")
    seeds = [int(s) for s in arg("--seeds", "1,2,3,4,5,6,7,8,9,10").split(",")]
    seeds = [s for s in seeds for _ in range(int(arg("--repeat", "1")))]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    report = {"nproc": os.cpu_count(), "run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    ok = True
    heldout = arg("--heldout", None)
    for w in workloads:
        runs = []
        held = None
        for seed in seeds + ([int(heldout)] if heldout else []):
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            probe_s = probe()
            t0 = time.time()
            out = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            wall = time.time() - t0
            result = json.loads(out.stdout.strip().splitlines()[-1]) if out.returncode == 0 else None
            if result is None or not result["correct"] or result["failed"]:
                ok = False
                print(f"{w} seed {seed}: FAILED (exit {out.returncode})\n{out.stderr[-2000:]}", file=sys.stderr)
                continue
            result["wall_s"] = wall
            result["probe_s"] = probe_s
            result["seed"] = seed
            result["stages"] = [l.strip() for l in out.stderr.splitlines()
                                if l.startswith(("  setup", "  compress", "  vm", "  hybrid", "  serve", "  host "))]
            if heldout and seed == int(heldout) and len(runs) == len(seeds):
                held = result
            else:
                runs.append(result)
            print(f"{w} seed {seed}: {wall:.1f} s (probe {probe_s:.3f} s)", file=sys.stderr)
        metrics = {}
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            metrics[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                  "bound": m["bound"], "unit": m["unit"], "values": values}
            flag = "" if spread < m["bound"] / 3 else ("  (above a third of the bound)" if spread <= m["bound"] else "  OVER BOUND")
            print(f"  {w:12} {m['name']:22} median {med:14.6g} spread {spread:7.4f} bound {m['bound']}{flag}")
        probes = [r["probe_s"] for r in runs]
        if probes:
            print(f"  {w:12} {'probe_s':22} median {statistics.median(probes):14.6g} "
                  f"range {min(probes):.3f}-{max(probes):.3f}")
        report["workloads"][w] = {"runs": len(runs), "max_wall_s": max((r["wall_s"] for r in runs), default=0),
                                  "metrics": metrics, "heldout": held, "probe_s": probes,
                                  "stages": [{"seed": r["seed"], "stages": r["stages"]} for r in runs]}
    out = arg("--out", None)
    if out:
        with open(out, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
