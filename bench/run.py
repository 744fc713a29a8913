"""segeval benchmark: seeded synthetic cohorts, end-to-end and per-layer.

Run from the repository root::

    python3 bench/run.py --workload mri-hippo --seed 1 --seconds 40 --trace 0

Steps of one run:

1. Generate the workload's inputs from the seed, or reuse the cached set in
   ``.bench_cache/<workload>-s<seed>-<generator hash>``. Generation is
   timed apart.
2. ``setup_s``: median over six fresh interpreters that import
   ``segeval.cli`` and parse the workload's manifest, three before and three
   after the measured run.
3. Start ``bench/measure.py`` for the measured seconds: end-to-end stages
   with ``--trace 0``, the traced run with ``--trace 1``.
4. Outside the timed region, check the outputs (see ``check``) and spot-check
   one seeded case against the test oracles.
5. Print each metric with its unit and sample count, then, as the last line,
   one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit status is 0 only when every check passes. Results, the environment
record and (traced runs) ``spans.jsonl`` are kept in
``.bench_out/<workload>-s<seed>-t<trace>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 6
ORACLE_TOL = 1e-9


def fail(message: str, code: int = 2) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return code


def environment() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        load = os.getloadavg()[0]
    except OSError:
        load = None
    return {
        "nproc": os.cpu_count() or 1,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_1m": load,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
    return env


def measure_setup(manifest: Path, repeats: int) -> list[float]:
    """Wall seconds of fresh interpreters that import segeval and parse the manifest."""
    code = (
        "import sys, segeval.cli\n"
        "from segeval.cohort import parse_manifest\n"
        "parse_manifest(sys.argv[1])\n"
    )
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code, str(manifest)], env=child_env(), check=True
        )
        times.append(time.perf_counter() - t0)
    return times


def spot_check(w, seed: int) -> list[str]:
    """One seeded case against the oracles, on the generator's own arrays."""
    import numpy as np

    from segeval.surface import compare_surfaces, extract_surface, surface_metrics_bruteforce
    from segeval.overlap import confusion_counts
    from segeval.volume import BinaryMask

    import workloads

    cases = workloads.plan(w, seed)
    case = cases[int(np.random.default_rng(seed).integers(len(cases)))]
    auto, manual = workloads.case_bits(w, case)
    mask_a = BinaryMask(dims=w.dims, spacing=(1.0, 1.0, 1.0), bits=auto)
    mask_m = BinaryMask(dims=w.dims, spacing=(1.0, 1.0, 1.0), bits=manual)
    problems = []
    c = confusion_counts(mask_a, mask_m)
    expect = (
        int(np.count_nonzero(auto & manual)),
        int(np.count_nonzero(auto & ~manual)),
        int(np.count_nonzero(~auto & manual)),
        int(np.count_nonzero(~auto & ~manual)),
    )
    if (c.tp, c.fp, c.fn, c.tn) != expect:
        problems.append(f"confusion counts {(c.tp, c.fp, c.fn, c.tn)} != numpy {expect}")
    got = compare_surfaces(mask_a, mask_m)
    ref = surface_metrics_bruteforce(extract_surface(mask_a), extract_surface(mask_m), chunk=8)
    for name in ("hausdorff", "rms", "assd", "mean_distance"):
        if abs(getattr(got, name) - getattr(ref, name)) > ORACLE_TOL:
            problems.append(
                f"{name}: compare_surfaces {getattr(got, name)!r} != brute force {getattr(ref, name)!r}"
            )
    return problems


def check(measured: dict, workload: str, seed: int, digests_path: Path) -> list[str]:
    """Correctness gate over the measured run; returns the problems found."""
    gate = measured["gate"]
    problems = []
    if gate["failed"]:
        problems.append(f"{gate['failed']} failures: {gate['errors_by_type']}")
    if not gate["serial_matches_pool"]:
        problems.append("pool bundle metrics.csv != metrics_csv_text of the serial records")
    bundles = gate["bundle_digests"]
    if any(b != bundles[0] for b in bundles):
        problems.append("bundle artifacts differ between evaluate passes")
    sets = gate["reanalysis_digests"]
    if any(s != sets[0] for s in sets):
        problems.append("re-analysis outputs differ between command sets")
    if seed == DEFAULT_SEED:
        table = json.loads(digests_path.read_text()) if digests_path.is_file() else {}
        if table.get(workload) != digests(gate):
            problems.append(f"digests at the default seed differ from {digests_path.name}")
    return problems


def digests(gate: dict) -> dict:
    return {"artifacts": gate["bundle_digests"][0], "reanalysis": gate["reanalysis_digests"][0]}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="segeval benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--digests", type=Path, default=DIGESTS,
                   help="recorded digests at the default seed (default: %(default)s)")
    p.add_argument("--record-digests", action="store_true",
                   help="store this run's digests for the workload, then check as usual")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "segeval" / "__init__.py").is_file():
        return fail(f"segeval sources not found under {ROOT / 'src'}")
    if not (ROOT / "tests" / "helpers.py").is_file():
        return fail("tests/helpers.py (the volume writers) not found")
    if not (ROOT / "BENCHMARK.json").is_file():
        return fail("BENCHMARK.json not found at the repository root")
    if args.record_digests and args.seed != DEFAULT_SEED:
        return fail(f"digests are recorded at the default seed {DEFAULT_SEED}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    env = environment()

    t0 = time.perf_counter()
    inputs = workloads.generate(w, args.seed, ROOT / ".bench_cache")
    gen_s = time.perf_counter() - t0

    # half the set-up samples before the measured run and half after, so a
    # slow spell of the machine does not decide the median alone
    setup = measure_setup(inputs / "manifest.csv", SETUP_REPEATS // 2)

    out = ROOT / ".bench_out" / f"{w.name}-s{args.seed}-t{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    child = subprocess.run(
        [sys.executable, str(HERE / "measure.py"), "--inputs", str(inputs),
         "--workload", w.name, "--seconds", str(args.seconds), "--nproc", str(env["nproc"]),
         "--mode", "trace" if args.trace else "e2e", "--out", str(out)],
        env=child_env(),
    )
    if child.returncode != 0:
        return fail(f"measure.py exited with {child.returncode}")
    measured = json.loads((out / "measure.json").read_text())
    gate = measured["gate"]
    setup += measure_setup(inputs / "manifest.csv", SETUP_REPEATS - len(setup))

    if args.record_digests:
        table = json.loads(args.digests.read_text()) if args.digests.is_file() else {}
        table[w.name] = digests(gate)
        args.digests.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    problems = check(measured, w.name, args.seed, args.digests)
    problems += spot_check(w, args.seed)

    print(f"# workload {w.name} seed {args.seed} trace {args.trace}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# inputs {inputs.relative_to(ROOT)} generated_or_loaded_s={gen_s:.3f}")
    samples = measured["samples"]
    print(f"# samples {json.dumps(samples, sort_keys=True)}")
    error_frac = gate["failed"] / max(1, gate["attempted"])
    print(f"# error_frac = {error_frac:.6f} ({gate['failed']}/{gate['attempted']})"
          f" by type {json.dumps(gate['errors_by_type'], sort_keys=True)}")

    values = measured["metrics"]
    notes = {}
    if args.trace:
        for name, ms in sorted(measured["self_ms"].items()):
            print(f"# self_ms {name} = {ms:.3f}")
    else:
        values["setup_s"] = statistics.median(setup)
        notes = {
            "cases_per_s": f"n={samples['evaluate_passes']} passes x {gate['n_cases']} cases",
            "case_ms_p50": f"n={samples['serial_cases']} calls",
        }
        extra = measured["unbounded"]
        print(f"# rows_per_s = {extra['rows_per_s']:.6g} rows/s (n={samples['reanalysis_sets']}"
              f" sets x {gate['rows']} rows x 10 commands)")
        print(f"# command_ms_p50 = {extra['command_ms_p50']:.6g} ms"
              f" (n={10 * samples['reanalysis_sets']} commands)")
        notes["peak_rss_mb"] = "max over this process tree"
        notes["setup_s"] = f"n={len(setup)} interpreters"
    for name, (value, n) in measured["p90"].items():
        print(f"# {name} = {value:.6g} ms (n={n})")
    if not measured["p90"]:
        print("# p90 omitted: no series has the 100 samples it needs")

    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        name = m["name"]
        if name in values:
            metrics[name] = {"value": float(values[name]), "unit": m["unit"]}
            note = f" ({notes[name]})" if name in notes else ""
            print(f"{name} = {values[name]:.6g} {m['unit']}{note}")
        elif name == "surface.edt_scipy_ms":
            print(f"{name} skipped: scipy does not import")
        else:
            problems.append(f"metric {name} was not measured")

    summary = {"env": env, "gen_s": gen_s, "setup_s_samples": setup,
               "measured": measured, "problems": problems}
    (out / "result.json").write_text(json.dumps(summary, indent=1, sort_keys=True))
    for problem in problems:
        print(f"bench: CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": gate["attempted"],
        "failed": gate["failed"],
        "metrics": metrics,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
