#!/usr/bin/env python3
"""Self-test of the benchmark's checkers.

    python3 perfbench/selftest.py

Runs every workload in its small-size mode twice from the root of a
checkout: once clean, where every check must pass, and once with planted
faults (one flipped byte, one dropped and one duplicated packet at the
sink; for fleet_fec, the same three edits to a STATS dump; flow_reconfig
also flips a byte of one inverse-pair probe's packet), where the
workload's checker must report each fault. Exits 1 if any expectation
fails, so a checker that has gone vacuous is caught.
"""
import json
import subprocess
import sys

# Words each planted fault must produce in a CHECK FAILED line.
EXPECTED = {
    "audio_fec_proxy": ["corrupt payload", "not delivered", "duplicate payload"],
    "chain_fanout": ["corrupt packet", "lost packet", "duplicate packet"],
    "flow_reconfig": ["corrupt packet", "lost packet", "duplicate packet",
                      "encrypt+decrypt probes changed"],
    "fleet_fec": ["(byte flip)", "(dropped line)", "(duplicated line)"],
}


def run(workload, plant):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", "0", "--small"]
    if plant:
        cmd.append("--plant")
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: exit {out.returncode}\n{out.stderr}")
    failures = [l for l in lines if l.startswith("CHECK FAILED: ")]
    return json.loads(lines[-1]), failures


def main():
    bad = []
    for workload, wanted in EXPECTED.items():
        result, failures = run(workload, plant=False)
        if not result["correct"] or failures:
            bad.append(f"{workload}: clean small run failed: {failures}")
        result, failures = run(workload, plant=True)
        if result["correct"]:
            bad.append(f"{workload}: planted faults went unnoticed")
        for word in wanted:
            if not any(word in f for f in failures):
                bad.append(f"{workload}: no check reported '{word}'")
        print(f"{workload}: planted faults reported as {failures}")
    for line in bad:
        print("SELFTEST FAILED:", line)
    print("selftest", "FAILED" if bad else "OK")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
