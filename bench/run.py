#!/usr/bin/env python3
"""Benchmark for cliffsynth: four seeded workloads with checked outputs.

    python3 bench/run.py --workload synth --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload synth --seed 1 --seconds 20 --trace 1
    python3 bench/run.py --steadiness 10 [--workload synth] [--baseline FILE]

An untraced run sets the workload up three times (builds its corpus and
makes a warm-up pass over it), then times whole passes over the same
corpus until ``--seconds`` have elapsed, and prints the end-to-end metrics. A traced run makes the
same passes over all four corpora with a span around every call into a
layer, and prints the per-layer metrics. The last line of standard output
is one JSON object; the full result, and the spans of a traced run, are
written under ``bench/out/``. See ``bench/README.md``.
"""

import os

# One BLAS thread: a second thread would contend with the rest of the
# process on a small machine. Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("synth", "words", "oracle", "cli")

SETUP_REPS = 3

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "gates_per_op": "count",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> the span (or recorded value) it is the median of.
PER_LAYER = {
    "synthesis.decompose_ms": "synthesis.decompose",
    "symplectic.sequence_matrix_ms": "symplectic.sequence_matrix",
    "symplectic.validate_ms": "symplectic.validate",
    "symplectic.merge_gates_ms": "symplectic.merge_gates",
    "synthesis.transport_ms": "synthesis.transport",
    "synthesis.generalized_peg_ms": "synthesis.generalized_peg",
    "symplectic.inverse_ms": "symplectic.inverse",
    "pauli.word_build_ms": "pauli.word_build",
    "unitary.gate_unitary_ms": "unitary.gate_unitary",
    "unitary.sequence_unitary_ms": "unitary.sequence_unitary",
    "unitary.word_unitary_ms": "unitary.word_unitary",
    "unitary.check_accept_ms": "unitary.check_accept",
    "unitary.check_reject_ms": "unitary.check_reject",
    "unitary.conjugation_ms": "unitary.conjugation",
    "cli.interpreter_ms": "cli.interpreter",
    "cli.import_ms": "cli.import",
    "cli.main_ms": "cli.main",
    "symplectic.parse_matrix_ms": "symplectic.parse_matrix",
    "embedding.feasible_single_ms": "embedding.feasible_single",
    "cli.child_rss_mb": "cli.child_rss_mb",
}


def per_layer_unit(name: str) -> str:
    return "MB" if name.endswith("_mb") else "ms"


class Tally:
    """Outcome of a sequence of operations."""

    def __init__(self) -> None:
        self.times: dict[int, list[float]] = {}  # case index -> its times
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.gates = 0
        self.programs = 0
        self.child_rss_mb = 0.0


def run_pass(wl, cases, tally: Tally, tracer=None, tag: str = "") -> None:
    """One whole pass over the corpus; only ``wl.run`` is timed."""
    from workloads import CheckFailed

    for i, case in enumerate(cases):
        tally.attempted += 1
        try:
            if tracer is None:
                t0 = perf_counter()
                out = wl.run(case)
                dt = perf_counter() - t0
            else:
                with tracer.span(f"{wl.name}.op", op=f"{wl.name}/{tag}/{i}"):
                    with tracer.span(wl.op_span(case)) as s:
                        out = wl.run(case)
                    dt = s.end - s.start
                    wl.extras(case, out, tracer, dt)
            gates = wl.check(case, out)
        except CheckFailed as exc:
            tally.correct = False
            print(f"{wl.name} case {i}: wrong output: {exc}", file=sys.stderr)
            continue
        except Exception as exc:  # an operation that raises counts as failed
            tally.failed += 1
            print(f"{wl.name} case {i}: failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            continue
        tally.times.setdefault(i, []).append(dt)
        if gates is not None:
            tally.gates += gates
            tally.programs += 1
        if wl.name == "cli":
            tally.child_rss_mb = max(tally.child_rss_mb, out[3])


def make_workload(name: str, workdir: Path):
    import workloads

    if name == "cli":
        return workloads.Cli(workdir, SRC)
    return {"synth": workloads.Synth, "words": workloads.Words, "oracle": workloads.Oracle}[name]()


def timed_run(name: str, seed: int, seconds: float, import_s: float, workdir: Path) -> tuple[dict, dict]:
    from workloads import peak_rss_mb

    wl = make_workload(name, workdir)
    try:
        # Set-up is the corpus build and a warm-up pass; it is repeated and
        # its median reported, since one pass alone varies with host load.
        warm = Tally()
        setups = []
        for _ in range(SETUP_REPS):
            t0 = perf_counter()
            cases = wl.build(seed)
            run_pass(wl, cases, warm)
            setups.append(perf_counter() - t0)

        tally = Tally()
        passes = 0
        start = perf_counter()
        while True:
            run_pass(wl, cases, tally, tag=str(passes))
            passes += 1
            if perf_counter() - start >= seconds:
                break
        wall_s = perf_counter() - start
    finally:
        wl.close()

    # Each operation's time is its fastest over the passes: load from other
    # tenants of the host only ever adds time, in bursts of seconds to minutes.
    best = [min(ts) for ts in tally.times.values()]
    values = {
        "setup_s": import_s + statistics.median(setups),
        "ops_per_s": len(best) / sum(best) if best else 0.0,
        "op_p50_ms": 1e3 * statistics.median(best) if best else 0.0,
        "gates_per_op": tally.gates / tally.programs if tally.programs else 0.0,
        "peak_rss_mb": tally.child_rss_mb if name == "cli" else peak_rss_mb(),
    }
    result = {
        "correct": warm.correct and tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()},
    }
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "passes": passes,
        "ops_per_pass": len(cases), "wall_s": wall_s, "import_s": import_s,
        "setup_reps_s": setups, "op_s": tally.times,
    }
    return result, detail


def traced_run(first: str, seed: int, seconds: float, workdir: Path):
    """Traced passes over every workload's corpus, ``seconds / 4`` each."""
    from tracing import Tracer

    tracer = Tracer()
    correct, attempted, failed = True, 0, 0
    passes = {}
    for name in (first,) + tuple(w for w in WORKLOADS if w != first):
        wl = make_workload(name, workdir)
        try:
            with tracer.span("setup", op=f"{name}/setup"):
                cases = wl.build(seed, tracer)
            warm = Tally()
            run_pass(wl, cases, warm)
            tally = Tally()
            passes[name] = 0
            start = perf_counter()
            while True:
                run_pass(wl, cases, tally, tracer, tag=str(passes[name]))
                passes[name] += 1
                if perf_counter() - start >= seconds / len(WORKLOADS):
                    break
        finally:
            wl.close()
        correct = correct and warm.correct and tally.correct
        attempted += tally.attempted
        failed += tally.failed

    selfs = tracer.self_times()
    for name, vals in tracer.values.items():
        selfs[name] = vals
    med = {name: statistics.median(v) for name, v in selfs.items()}
    values = {}
    for metric, span in PER_LAYER.items():
        if metric == "cli.import_ms":
            values[metric] = 1e3 * (med["cli.import"] - med["cli.interpreter"])
        elif metric.endswith("_mb"):
            values[metric] = med[span]
        else:
            values[metric] = 1e3 * med[span]
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()},
    }
    detail = {"workload": first, "seed": seed, "seconds": seconds, "passes": passes,
              "spans": len(tracer.spans)}
    return result, detail, tracer


# ---------------------------------------------------------------------------
# steadiness mode


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def steadiness(args) -> int:
    """Run each workload k times on seeds seed..seed+k-1 and report, per
    end-to-end metric, the median, the quartiles and the spread (q3 - q1)
    as a share of the median, against the bounds in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    baseline = json.loads(Path(args.baseline).read_text()) if args.baseline else None
    summary = {"seconds": seconds, "seeds": [args.seed, args.seed + args.steadiness - 1], "workloads": {}}
    ok = True
    for name in names:
        runs = []
        for k in range(args.steadiness):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed + k), "--seconds", str(seconds), "--trace", "0"]
            t0 = perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180, cwd=ROOT)
            elapsed = perf_counter() - t0
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                print(f"{name} seed {args.seed + k}: exit {proc.returncode}", file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            res["elapsed_s"] = elapsed
            runs.append(res)
            print(f"# {name} seed {args.seed + k}: {elapsed:.1f} s, "
                  + ", ".join(f"{m}={v['value']:.5g}" for m, v in res["metrics"].items()), flush=True)
        entry = {
            "failed_share": sorted({r["failed"] / r["attempted"] for r in runs}),
            "correct": all(r["correct"] for r in runs),
            "max_elapsed_s": max(r["elapsed_s"] for r in runs),
            "metrics": {},
        }
        ok = ok and entry["correct"] and len(entry["failed_share"]) == 1
        for metric, bound in bounds.items():
            vals = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("inf")
            row = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound, "values": vals}
            status = "steady" if spread <= bound / 3 else ("within" if spread <= bound else "OVER")
            if metric != "setup_s":
                ok = ok and status != "OVER"
            if baseline and name in baseline["workloads"]:
                base = baseline["workloads"][name]["metrics"][metric]["median"]
                lower = next(m["better"] == "lower" for m in spec["end_to_end"] if m["name"] == metric)
                worse = (med - base) / base if lower else (base - med) / base
                row["worse_than_baseline"] = worse
                status += " regressed" if worse > bound else ""
                ok = ok and worse <= bound
            entry["metrics"][metric] = row
            print(f"{name:7s} {metric:13s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  "
                  f"spread {spread:7.4f}  bound {bound:5.3f}  {status}")
        print(f"{name:7s} failed share {entry['failed_share']}  correct {entry['correct']}  "
              f"longest run {entry['max_elapsed_s']:.1f} s", flush=True)
        summary["workloads"][name] = entry
    OUT.mkdir(exist_ok=True)
    path = OUT / f"steadiness-{'-'.join(names)}-seed{args.seed}-k{args.steadiness}.json"
    path.write_text(json.dumps(summary, indent=1))
    print(f"# summary written to {path.relative_to(ROOT)}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="K",
                        help="run each workload K times on successive seeds and report spreads")
    parser.add_argument("--baseline", help="a steadiness summary to compare medians against")
    args = parser.parse_args(argv)

    if not (SRC / "cliffsynth" / "__init__.py").is_file():
        print(f"no cliffsynth sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    if args.steadiness:
        return steadiness(args)
    if args.workload is None:
        parser.error("--workload is required without --steadiness")
    seconds = 10.0 if args.seconds is None else args.seconds

    t0 = perf_counter()
    import cliffsynth

    import_s = perf_counter() - t0
    if not Path(cliffsynth.__file__).resolve().is_relative_to(SRC):
        print(f"imported cliffsynth from {cliffsynth.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as work:
        if args.trace:
            result, detail, tracer = traced_run(args.workload, args.seed, seconds, Path(work))
            tracer.write(OUT / f"trace-{stem}.jsonl")
        else:
            result, detail = timed_run(args.workload, args.seed, seconds, import_s, Path(work))
    (OUT / f"result-{stem}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "detail": detail}) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
