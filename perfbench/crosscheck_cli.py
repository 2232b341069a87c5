#!/usr/bin/env python3
"""Cross-check the frozen profile-hot references against jepo_cli.

    python3 perfbench/crosscheck_cli.py --jepo-cli build/examples/jepo_cli

Writes every profile-hot program to .bench_build/perfbench-sources (via
`perfbench_driver --emit-sources`), runs `jepo_cli profile <file> [Main]
--seed=S` on each with two job seeds, and compares the FNV-1a 64 digest of
its output with the third column of oracles/profile_digests.txt: the view
the benchmark derives from the daemon's response. Exits 1 on any mismatch.
Run it once after `perfbench_driver --freeze`; the measured runs check
daemon responses against the same references.
"""
import argparse
import os
import subprocess
import sys


def fnv1a64(data):
    h = 0xcbf29ce484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
    return h


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    repo = os.path.dirname(bench_dir)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--jepo-cli", required=True)
    ap.add_argument("--perfbench-driver", default=os.path.join(
        repo, ".bench_build", "perfbench", "perfbench_driver"))
    args = ap.parse_args()

    out_dir = os.path.join(repo, ".bench_build", "perfbench-sources")
    subprocess.run([args.perfbench_driver, "--emit-sources", out_dir],
                   check=True)
    expected = {}
    with open(os.path.join(bench_dir, "oracles", "profile_digests.txt")) as f:
        for line in f:
            name, _payload, view = line.split()
            expected[name] = int(view, 16)
    mismatches = 0
    checked = 0
    with open(os.path.join(out_dir, "manifest.txt")) as f:
        manifest = [line.split() for line in f if line.strip()]
    for name, main_class in manifest:
        for seed in (0, 424242):
            cmd = [args.jepo_cli, "profile",
                   os.path.join(out_dir, name + ".mjava")]
            if main_class != "-":
                cmd.append(main_class)
            cmd.append("--seed=%d" % seed)
            got = fnv1a64(subprocess.run(cmd, check=True,
                                         capture_output=True).stdout)
            checked += 1
            if got != expected.get(name):
                mismatches += 1
                print("mismatch: %s seed %d" % (name, seed))
    print("checked %d jepo_cli runs over %d programs: %d mismatches"
          % (checked, len(manifest), mismatches))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
