#!/usr/bin/env python3
"""Byte-identity check for behaviour-preserving changes.

Builds PARENT_REV and the working tree, runs the same bench binaries and
examples in both at a pinned small size, and diffs what they print and the
JSON artifacts they write, with wall-clock fields stripped. Exits 0 when
every program agrees, 1 on any difference (the first lines of each diff
are printed), 2 on a build or run failure.

    python3 bench/identity_diff.py PARENT_REV [--workdir DIR]

The parent is exported with `git archive` into DIR (a fresh temporary
directory by default) and built there with its own target directory; the
working tree builds into its usual target directory. Both trees run the CI
smoke list of bench binaries plus `scale_sweep` and `scenario_matrix` at
FIRST_BENCH_REQUESTS=50, FIRST_BENCH_SEED=42, FIRST_BENCH_THREADS=1, each
writing its artifacts into a directory of its own under DIR, so the
working tree's `bench/out` is left alone. They then run the CI smoke list
of examples (the monitoring dashboard twice, the second time with its
fault plan) under the same environment, and their stdout is diffed the
same way. Two release builds make this too
slow for a CI step; run it by hand before claiming a refactor changes no
behaviour.
"""

import argparse
import difflib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

BINARIES = [
    "fig3_rate_sweep",
    "fig4_autoscale",
    "fig5_openai_compare",
    "table1_webui",
    "batch_mode",
    "cold_start",
    "deployment_replay",
    "ablation_federation",
    "ablation_optimizations",
    "resilience_sweep",
    "failover_sweep",
    "scale_sweep",
    "scenario_matrix",
]

# The examples CI's smoke step runs, each with its extra environment.
EXAMPLES = [
    ("quickstart", {}),
    ("failover_demo", {}),
    ("federated_routing", {}),
    ("monitoring_dashboard", {}),
    ("model_evaluation", {}),
    ("rag_assistant", {}),
    ("streaming_chat", {}),
    ("synthetic_data_batch", {}),
    ("monitoring_dashboard", {"FIRST_DEMO_FAULTS": "1"}),
]

BENCH_ENV = {
    "FIRST_BENCH_REQUESTS": "50",
    "FIRST_BENCH_SEED": "42",
    "FIRST_BENCH_THREADS": "1",
}

# Wall-clock readings in the harness summary lines the binaries print.
WALL_PATTERNS = [
    (re.compile(r"wall [0-9.]+ ?m?s"), "wall <wall>"),
    (re.compile(r"[0-9.]+ ?m?s wall"), "<wall> wall"),
    (re.compile(r"[0-9.]+x real time"), "<x> real time"),
    (re.compile(r"[0-9.]+ events/s"), "<rate> events/s"),
    # The dashboard's harness line and the exported harness gauges.
    (re.compile(r"wall=[0-9.]+s events_per_sec=[0-9]+"), "wall=<wall> events_per_sec=<rate>"),
    (
        re.compile(r"^(first_sim_(?:wall_clock_seconds|events_per_second)) \S+$", re.M),
        r"\1 <wall>",
    ),
]


def is_wall(name):
    """Whether a JSON key or metric name holds a wall-clock reading."""
    return "wall" in name


def strip_wall(value):
    """The JSON value with every wall-clock field and metric removed."""
    if isinstance(value, dict):
        return {k: strip_wall(v) for k, v in value.items() if not is_wall(k)}
    if isinstance(value, list):
        return [
            strip_wall(v)
            for v in value
            if not (isinstance(v, dict) and is_wall(str(v.get("name", ""))))
        ]
    return value


def normalize_stdout(text, out_dir):
    text = text.replace(str(out_dir), "<out>")
    for pattern, replacement in WALL_PATTERNS:
        text = pattern.sub(replacement, text)
    return text


def run(cmd, **kwargs):
    result = subprocess.run(cmd, **kwargs)
    if result.returncode != 0:
        print(f"failed ({result.returncode}): {' '.join(map(str, cmd))}", file=sys.stderr)
        sys.exit(2)
    return result


def build(tree, target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    run(
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "first-bench", "--bins"],
        cwd=tree,
        env=env,
    )
    run(
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "first", "--examples"],
        cwd=tree,
        env=env,
    )


def run_binaries(tree, target_dir, out_root):
    """Run every binary in `tree`; returns {binary: (stdout, {file: json})}."""
    outputs = {}
    for binary in BINARIES:
        out_dir = out_root / binary
        out_dir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ, FIRST_BENCH_OUT_DIR=str(out_dir), **BENCH_ENV)
        result = run(
            [str(target_dir / "release" / binary)],
            cwd=tree,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        artifacts = {
            path.name: strip_wall(json.loads(path.read_text()))
            for path in sorted(out_dir.glob("*.json"))
        }
        outputs[binary] = (normalize_stdout(result.stdout, out_dir), artifacts)
    return outputs


def example_label(name, extra_env):
    return " ".join([f"{k}={v}" for k, v in extra_env.items()] + [name])


def run_examples(tree, target_dir, out_root):
    """Run every example in `tree`; returns {label: stdout}."""
    outputs = {}
    for name, extra_env in EXAMPLES:
        env = dict(os.environ, **BENCH_ENV, **extra_env)
        result = run(
            [str(target_dir / "release" / "examples" / name)],
            cwd=tree,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        outputs[example_label(name, extra_env)] = normalize_stdout(result.stdout, out_root)
    return outputs


def show_diff(label, parent, change):
    print(f"DIFF {label}")
    lines = difflib.unified_diff(
        parent.splitlines(), change.splitlines(), "parent", "change", lineterm=""
    )
    for i, line in enumerate(lines):
        if i == 40:
            print("  ...")
            break
        print(f"  {line}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_rev", help="git revision to compare against")
    parser.add_argument("--workdir", type=Path, help="where the parent tree and outputs go")
    args = parser.parse_args()

    repo = Path(
        run(["git", "rev-parse", "--show-toplevel"], stdout=subprocess.PIPE, text=True).stdout.strip()
    )
    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="identity_diff."))
    workdir = workdir.resolve()
    parent_tree = workdir / "parent"
    parent_tree.mkdir(parents=True, exist_ok=True)
    archive = run(["git", "archive", args.parent_rev], cwd=repo, stdout=subprocess.PIPE)
    run(["tar", "-x", "-C", str(parent_tree)], input=archive.stdout)

    change_target = Path(os.environ.get("CARGO_TARGET_DIR", repo / "target")).resolve()
    sides = {"parent": (parent_tree, parent_tree / "target"), "change": (repo, change_target)}
    outputs = {}
    example_outputs = {}
    for side, (tree, target_dir) in sides.items():
        print(f"building {side} in {tree}", flush=True)
        build(tree, target_dir)
        print(f"running {len(BINARIES)} binaries and {len(EXAMPLES)} examples ({side})", flush=True)
        outputs[side] = run_binaries(tree, target_dir, workdir / "out" / side)
        example_outputs[side] = run_examples(tree, target_dir, workdir / "out" / side)

    differences = 0
    for binary in BINARIES:
        parent_stdout, parent_files = outputs["parent"][binary]
        change_stdout, change_files = outputs["change"][binary]
        if parent_stdout != change_stdout:
            differences += 1
            show_diff(f"{binary} stdout", parent_stdout, change_stdout)
        for name in sorted(set(parent_files) | set(change_files)):
            parent_json = json.dumps(parent_files.get(name), indent=1, sort_keys=True)
            change_json = json.dumps(change_files.get(name), indent=1, sort_keys=True)
            if parent_json != change_json:
                differences += 1
                show_diff(f"{binary} {name}", parent_json, change_json)
    for label, parent_stdout in example_outputs["parent"].items():
        change_stdout = example_outputs["change"][label]
        if parent_stdout != change_stdout:
            differences += 1
            show_diff(f"example {label} stdout", parent_stdout, change_stdout)
    artifacts = sum(len(files) for _, files in outputs["change"].values())
    if differences:
        print(f"{differences} difference(s) against {args.parent_rev}")
        return 1
    print(
        f"identical: {len(BINARIES)} binaries, {len(EXAMPLES)} example runs, {artifacts} "
        f"artifacts, stdout and JSON with wall-clock fields stripped, against {args.parent_rev}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
