#!/usr/bin/env python3
"""The performance ledger: BENCH_perf.json holds the benchmark's results
at seed 1 for every workload of BENCHMARK.json.

    python3 scripts/perf_ledger.py write   # measure, rewrite BENCH_perf.json
    python3 scripts/perf_ledger.py check   # fail unless the exact counts match

Both run BENCHMARK.json's command unchanged. The exact section comes from
a traced one-second run: the checks attempted and failed, and counters of
simulated work, which repeat bit for bit for a seed. `write` adds the
end-to-end metrics of an untraced run of run_seconds, and a stamp. `check`
compares only the exact section; wall-clock figures are never gated.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LEDGER = os.path.join(ROOT, "BENCH_perf.json")
SEED = 1
EXACT = [
    "fault.pack_density", "ppsfp.words", "soc.golden_cycles",
    "cpu.if_stall_cycles", "cpu.mem_stall_cycles",
    "mem.icache_hit_rate", "mem.dcache_hit_rate", "mem.bus_wait_cycles",
    "campaign.tail_ms.samples", "campaign.tail_cycles.detected",
    "campaign.tail_cycles.undetected", "campaign.tail_cycles.hang",
    "campaign.sim_cycles_per_fault", "campaign.hang_cycle_share",
    "ppsfp.ridden_words", "ppsfp.fallback_rate", "ppsfp.loop_short_circuits",
    "fleet.steals", "fleet.retries",
]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def output(cmd):
    return subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True).stdout


def perfbench(workload, seconds, trace):
    """Runs one workload and returns its result line; exits unless correct."""
    args = ["--workload", workload, "--seed", str(SEED), "--seconds", str(seconds),
            "--trace", str(trace)]
    result = json.loads(output(BENCHMARK["command"] + args).splitlines()[-1])
    if result["correct"] is not True:
        sys.exit(f"{workload}: correct={result['correct']}, failed={result['failed']}")
    return result


def exact(workload):
    result = perfbench(workload, 1, 1)
    counts = {"attempted": result["attempted"], "failed": result["failed"]}
    counts.update((name, result["metrics"][name]["value"]) for name in EXACT)
    return counts


def write():
    stamp = {
        "cores": os.cpu_count(),
        "commit": output(["git", "describe", "--always", "--dirty"]).strip(),
        "seed": SEED,
        "seconds": BENCHMARK["run_seconds"],
    }
    workloads = {}
    for name in WORKLOADS:
        end_to_end = perfbench(name, BENCHMARK["run_seconds"], 0)["metrics"]
        workloads[name] = {"exact": exact(name), "end_to_end": end_to_end}
    with open(LEDGER, "w") as f:
        json.dump({"stamp": stamp, "workloads": workloads}, f, indent=2)
        f.write("\n")
    print(f"wrote {LEDGER}")


def check():
    with open(LEDGER) as f:
        ledger = json.load(f)["workloads"]
    diffs = []
    for name in WORKLOADS:
        want = ledger.get(name, {}).get("exact", {})
        got = exact(name)
        for key in sorted(want.keys() | got.keys()):
            if want.get(key) != got.get(key):
                diffs.append(f"{name}: {key}: ledger {want.get(key)}, measured {got.get(key)}")
        print(f"{name}: {len(got)} exact counts measured")
    if diffs:
        sys.exit("exact counts differ from BENCH_perf.json:\n" + "\n".join(diffs))
    print("every exact count matches BENCH_perf.json")


if __name__ == "__main__":
    commands = {"write": write, "check": check}
    if len(sys.argv) != 2 or sys.argv[1] not in commands:
        sys.exit("usage: perf_ledger.py write|check")
    commands[sys.argv[1]]()
