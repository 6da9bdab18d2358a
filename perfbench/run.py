#!/usr/bin/env python3
"""Serving benchmark of the GOBO engine at paper width (see README.md).

    python3 perfbench/run.py --workload short-single --seed 1 \\
        --seconds 8 --trace 0 [--out result.json]
    python3 perfbench/run.py --compare A.json B.json

Builds perfbench/ (the repo's libraries plus perfbench_engine) into
.bench_build/ at the checkout root, runs the engine, checks every
response it dumped, and prints one line per metric followed by a last
line holding the JSON result. --trace 0 prints the end-to-end metrics,
--trace 1 the per-layer ones. --compare refuses (exit 2) to compare two
saved results whose environment stamps differ.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
MODEL_DIR = ROOT / ".bench_build" / "perfbench-models"

WORKLOADS = ("short-single", "long-batch", "serve-mixed")
ENGINE_TIMEOUT_S = 170

# Packed logits vs the original FP32 model. On this synthetic
# full-width model the two disagree by design (the repo's own audit
# reports logit cosine ~0.1 after six 3-bit encoders), so this bound
# only catches gross failures: runaway magnitudes. The denominator
# floors at one logit unit so a near-zero FP32 vector cannot trip it.
FP32_REL_BOUND = 25.0
# Packed logits vs FP32 on the packed model's own decoded weights: the
# same function up to float reassociation, so the bound is tight.
REF_REL_BOUND = 1e-4

END_TO_END = {
    "setup_s": "s",
    "tokens_per_s": "tok/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "fp32_tokens_per_s": "tok/s",
    "fp32_latency_p50_ms": "ms",
    "resident_weight_mib": "MiB",
    "serving_rss_mib": "MiB",
    "passed_frac": "fraction",
}

PER_LAYER = {
    "model.load_s": "s",
    "core.quantize_s": "s",
    "core.quantize.hh_ms": "ms",
    "core.quantize.ih_ms": "ms",
    "core.quantize.iterations": "count",
    "core.qexec.query.self_ms": "ms",
    "core.qexec.key.self_ms": "ms",
    "core.qexec.value.self_ms": "ms",
    "core.qexec.attn_out.self_ms": "ms",
    "core.qexec.inter.self_ms": "ms",
    "core.qexec.out.self_ms": "ms",
    "core.qexec.pooler.self_ms": "ms",
    "core.qexec.self_ms": "ms",
    "core.qexec.weight_gbps": "GB/s",
    "core.qexec.stream_frac": "fraction",
    "kernels.decode_gbps": "GB/s",
    "kernels.stream_gbps": "GB/s",
    "nn.embed_ms": "ms",
    "nn.attention_ms": "ms",
    "tensor.layernorm_ms": "ms",
    "tensor.gelu_ms": "ms",
    "tensor.add_ms": "ms",
    "tensor.pool_head_ms": "ms",
    "tensor.fp32_fc_ms": "ms",
    "exec.session.forward_ms": "ms",
    "unattributed_ms": "ms",
    "exec.pool.jobs_per_forward": "count",
    "exec.pool.inline_frac": "fraction",
    "exec.pool.steals_per_forward": "count",
    "exec.pool.wakes_per_forward": "count",
    "exec.scratch.decode_lookups": "count",
    "exec.scratch.decode_hit_rate": "fraction",
    "exec.scratch.evictions_per_forward": "count",
    "serve.run_s": "s",
    "serve.tiles": "count",
    "serve.requests_per_tile": "count",
    "serve.lanes_total": "count",
    "serve.tile_occupancy": "fraction",
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------
# Statistics.

def _betainc(a, b, x):
    """Regularized incomplete beta function I_x(a, b), by Lentz's
    continued fraction (Numerical Recipes, Sec. 6.4)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(b, a, 1.0 - x)
    tiny = 1e-300
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x)) / a
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for aa in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x
                   / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return front * h


def percentile(values, q):
    """q-th percentile (0 < q < 100), Harrell-Davis estimate: a mean of
    all order statistics weighted by a Beta((n+1)p, (n+1)(1-p)) law,
    p = q/100. Unlike one or two closest ranks it does not jump when
    the samples cluster with a gap at the percentile (short-single's
    latencies cluster by request length, and its median falls between
    the 4- and 5-token clusters)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    if not 0 < q < 100:
        raise ValueError("percentile must lie strictly between 0 and 100")
    n = len(xs)
    a, b = (n + 1) * q / 100.0, (n + 1) * (1 - q / 100.0)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum(x * (hi - lo) for x, lo, hi in zip(xs, cdf, cdf[1:]))


def highest_supported_percentile(n, ladder=(50, 90, 95, 99, 99.9),
                                 beyond=10):
    """Highest percentile of `ladder` with at least `beyond` of `n`
    samples above it, or None when even the lowest has fewer."""
    best = None
    for p in ladder:
        if n * (100 - Fraction(str(p))) / 100 >= beyond:
            best = p
    return best


# ---------------------------------------------------------------------
# Correctness of the dumped responses.

def _logits(hexes):
    return [float.fromhex(h) for h in hexes]


def _rel(a, b, floor=0.0):
    return math.dist(a, b) / max(math.hypot(*b), floor)


def record_problems(rec, width):
    """Every check one sequence's record fails, as short strings."""
    problems = []
    packed = _logits(rec["packed"])
    if len(packed) != width:
        return [f"packed width {len(packed)} != {width}"]
    if not all(math.isfinite(v) for v in packed):
        return ["packed logits not finite"]
    if not any(packed):
        problems.append("packed logits all zero")
    fp32 = _logits(rec.get("fp32", []))
    if len(fp32) != width or not all(math.isfinite(v) for v in fp32):
        problems.append("no finite fp32 reference")
    elif _rel(packed, fp32, floor=1.0) > FP32_REL_BOUND:
        problems.append("packed too far from fp32")
    if "ref" in rec:
        ref = _logits(rec["ref"])
        if not any(ref) or _rel(packed, ref) > REF_REL_BOUND:
            problems.append("packed off its decoded-weight reference")
    for key in ("serial", "replay"):
        if key in rec and rec[key] != rec["packed"]:
            problems.append(f"{key} re-run differs in bits")
    return problems


def check_raw(raw):
    """(attempted, failed, problems) over the requests of one run."""
    width = raw["head_outputs"]
    bad = {}
    requests = set()
    for rec in raw["records"]:
        requests.add(rec["request"])
        for p in record_problems(rec, width):
            bad.setdefault(rec["request"], []).append(p)
    if raw.get("workload") == "serve-mixed" and raw["mode"] == "timed":
        chunk = raw["serve_chunk"]
        for c, ids in enumerate(raw["serve_ids"]):
            seen = {}
            for rid, ok in ids:
                seen[rid] = seen.get(rid, 0) + (1 if ok else 1000)
            for i in range(chunk):
                requests.add(c * chunk + i)
                if seen.get(i) != 1:
                    bad.setdefault(c * chunk + i, []).append(
                        "not exactly one Ok response")
    return len(requests), len(bad), bad


# ---------------------------------------------------------------------
# Metrics.

def timed_metrics(raw, attempted, failed):
    packed, fp32 = raw["packed"], raw["fp32"]
    lat = packed["latency_ms"]
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "tokens_per_s": packed["tokens"] / packed["wall_s"],
        "latency_p50_ms": percentile(lat, 50),
        "latency_p95_ms": percentile(lat, 95),
        "fp32_tokens_per_s": fp32["tokens"] / fp32["wall_s"],
        "fp32_latency_p50_ms": percentile(fp32["latency_ms"], 50),
        "resident_weight_mib": raw["resident_weight_bytes"] / 2**20,
        "serving_rss_mib": raw["rss_bytes"] / 2**20,
        "passed_frac": 1.0 - failed / attempted,
    }


def describe_timed(raw, attempted, failed):
    lat = raw["packed"]["latency_ms"]
    best = highest_supported_percentile(len(lat))
    unit = {"short-single": "request", "long-batch": "call",
            "serve-mixed": "tile"}[raw["workload"]]
    lines = [
        f"setup runs: {len(raw['setup_s'])}, load "
        f"{statistics.median(raw['load_s']):.3f} s, quantize "
        f"{statistics.median(raw['quantize_s']):.3f} s, first forward "
        f"{statistics.median(raw['first_forward_s']):.3f} s (medians)",
        f"packed: {raw['packed']['calls']} calls, {raw['packed']['tokens']}"
        f" tokens in {raw['packed']['wall_s']:.3f} s; latency per {unit}, "
        f"{len(lat)} samples, highest percentile with >=10 beyond: "
        f"{'p%g' % best if best else 'none'}",
        f"fp32: {raw['fp32']['calls']} calls, {raw['fp32']['tokens']} "
        f"tokens in {raw['fp32']['wall_s']:.3f} s",
        f"failed_frac: {failed / attempted:.6g} ({failed} of {attempted}"
        " requests)",
    ]
    return lines


def traced_metrics(raw):
    layers = raw["layers"]
    missing = sorted(set(PER_LAYER) - set(layers))
    if missing:
        raise RuntimeError(f"engine reported no {', '.join(missing)}")
    return {name: layers[name] for name in PER_LAYER}


def describe_traced(raw, attempted, failed):
    lay = raw["layers"]
    self_sum = lay["exec.session.forward_ms"] - lay["unattributed_ms"]
    return [
        f"replayed {raw['sample_sequences']} sequences x {raw['passes']} "
        "passes, one public call per span",
        f"per forward: session {lay['exec.session.forward_ms']:.3f} ms = "
        f"replayed self times {self_sum:.3f} ms + unattributed "
        f"{lay['unattributed_ms']:.3f} ms",
        f"tracing overhead vs the untraced session: "
        f"{100 * raw['trace_overhead_frac']:.2f}%",
        "byte counts behind core.qexec.weight_gbps are computed from "
        "residentBytes(), not measured",
        f"replay mismatches: {failed} of {attempted} sampled sequences",
    ]


# ---------------------------------------------------------------------
# Build and run.

def build():
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD_DIR / "Makefile").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target",
                    "perfbench_engine", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return BUILD_DIR / "perfbench_engine"


def run_engine(engine, args):
    raw_path = BUILD_DIR / f"raw-{args.workload}.json"
    raw_path.unlink(missing_ok=True)
    MODEL_DIR.mkdir(parents=True, exist_ok=True)
    cmd = [str(engine), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--models", str(MODEL_DIR), "--out",
           str(raw_path)]
    subprocess.run(cmd, check=True, stdout=sys.stderr,
                   timeout=ENGINE_TIMEOUT_S)
    with open(raw_path) as f:
        return json.load(f)


def compare(path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    if a["stamp"] != b["stamp"]:
        print("refusing to compare: environment stamps differ")
        print(f"  {path_a}: {json.dumps(a['stamp'], sort_keys=True)}")
        print(f"  {path_b}: {json.dumps(b['stamp'], sort_keys=True)}")
        return 2
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        print("refusing to compare: different workload or trace mode")
        return 2
    for name, ma in a["metrics"].items():
        mb = b["metrics"].get(name)
        if mb is None:
            continue
        va, vb = ma["value"], mb["value"]
        change = (vb - va) / va if va else float("nan")
        print(f"{name:40s} {va:14.6g} -> {vb:14.6g} {ma['unit']:9s} "
              f"{100 * change:+.2f}%")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=8)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also save the full result here")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    try:
        engine = build()
        raw = run_engine(engine, args)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError) as e:
        log(f"perfbench: {e}")
        return 1

    attempted, failed, bad = check_raw(raw)
    for req, problems in sorted(bad.items())[:10]:
        log(f"perfbench: request {req}: {'; '.join(problems)}")
    if args.trace:
        values = traced_metrics(raw)
        units, notes = PER_LAYER, describe_traced(raw, attempted, failed)
    else:
        values = timed_metrics(raw, attempted, failed)
        units, notes = END_TO_END, describe_timed(raw, attempted, failed)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("stamp: " + json.dumps(raw["stamp"], sort_keys=True))
    for line in notes:
        print(line)
    for name, value in values.items():
        print(f"{name:40s} {value:16.6f} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in values.items()},
    }
    if args.out:
        with open(args.out, "w") as f:
            json.dump(dict(result, stamp=raw["stamp"],
                           workload=args.workload, trace=args.trace,
                           seed=args.seed), f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
