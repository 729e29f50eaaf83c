#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 esdbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `esdbench` package twice from
source (plain, and with the `trace` feature that arms the telemetry
registry) under $CARGO_TARGET_DIR (default `.bench_build`), then runs the
matching binary. With `--trace 1` it first runs the plain binary too, so
that the difference between the traced and untraced measured phases can
be reported as `trace.overhead_pct`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Any build or run failure
exits non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build(target_root):
    """Builds both variants; returns {variant: binary path}."""
    binaries = {}
    for variant, extra in (("plain", []), ("traced", ["--features", "trace"])):
        target = os.path.join(target_root, variant)
        cmd = [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
            "--target-dir", target,
        ] + extra
        # Cargo's own output goes to stderr: stdout is reserved for the result.
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        binaries[variant] = os.path.join(target, "release", "esdbench")
    return binaries


def run(binary, args, trace, work_dir):
    """Runs one binary; returns (human lines, parsed result, phase seconds)."""
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--work-dir", work_dir,
    ]
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True,
                         timeout=RUN_TIMEOUT_S).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    phase = None
    for line in lines:
        words = line.split()
        if words[:2] == ["#", "workload"] and "phase_s" in words:
            phase = float(words[words.index("phase_s") + 1])
    return lines[:-1], result, phase


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    work_dir = os.path.join(target_root, "esdbench-work")
    try:
        binaries = build(target_root)
        if args.trace:
            plain_lines, plain, plain_phase = run(binaries["plain"], args, 0, work_dir)
            lines, result, phase = run(binaries["traced"], args, 1, work_dir)
            result["correct"] = result["correct"] and plain["correct"]
            overhead = 100.0 * (phase / plain_phase - 1.0)
            result["metrics"]["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
            lines = ["# untraced run"] + plain_lines + ["# traced run"] + lines
            lines.append(f"# trace overhead {overhead:.2f} % of the measured phase "
                         f"({plain_phase:.4f} s untraced, {phase:.4f} s traced)")
        else:
            lines, result, _ = run(binaries["plain"], args, 0, work_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError,
            ValueError, IndexError, KeyError, TypeError, ZeroDivisionError) as err:
        print(f"esdbench: {err}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
