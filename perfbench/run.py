"""The repository's benchmark: four workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tall --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --out a.json            # every workload, both phases
    python3 perfbench/run.py compare a.json b.json   # apply the bounds
    python3 perfbench/run.py compare a1.json a2.json -- b1.json b2.json

``--trace 0`` times untraced operations and reports the ``end_to_end``
metrics of ``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced
operations and reports the ``per_layer`` metrics; without ``--trace`` both
phases run.  Every operation is a fresh child process (``workloads.py``),
one at a time: a closed loop with one client.  With ``--workload all`` the
repeats are interleaved round-robin across workloads so machine drift hits
all of them.  Every output is checked against the digests in
``expected.json``; a failed operation or a wrong output makes the run
incorrect and the exit code 1.  An unmapped trace span or a counter that
differs between repeats is a benchmark error (exit code 2).  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (the benchmark's own module, never repro)

#: Set-ups per timed run (fewer if the run ends first); their median is ``setup_s``.
SETUPS = 5
#: Seconds one child may take before it counts as failed and is killed.
CHILD_TIMEOUT = 120
#: Pool size of the timed schema job (its workers share one pinned CPU).
SCHEMA_JOBS = 2
#: Units of per-layer metrics that must repeat exactly.
COUNTED = ("count", "bytes")


class BenchError(Exception):
    """The benchmark itself cannot produce a valid measurement."""


def _load(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# -- child processes -------------------------------------------------------


def _child_env() -> dict[str, str]:
    """The caller's environment without ``REPRO_*`` switches, so every
    child runs the program's defaults."""
    return {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}


def run_child(job: dict) -> dict:
    """Run one job in a fresh process group and return its JSON answer."""
    process = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"), json.dumps(job)],
        cwd=ROOT,
        env=_child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT} s"}
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)  # the child and any pool worker it left
        except ProcessLookupError:
            pass
        process.wait()
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        return {"error": f"exit {process.returncode}: {stderr.strip()[-2000:]}"}
    answer = json.loads(lines[-1])
    if "error" in answer:
        sys.stderr.write(stderr)
    return answer


# -- statistics --------------------------------------------------------------


def spread_of(samples: list[float]) -> dict:
    """Median and quartiles of the samples, with their count."""
    ordered = sorted(samples)
    if len(ordered) == 1:
        return {"median": ordered[0], "q1": ordered[0], "q3": ordered[0], "n": 1}
    q1, median, q3 = statistics.quantiles(ordered, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(ordered)}


def summarize(samples: list[float], value) -> dict:
    """``value(samples)`` as the metric, plus the samples' spread."""
    return {"value": value(samples), **spread_of(samples)}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- per-layer attribution ----------------------------------------------------


def layer_metrics(report: dict, layer_of: dict[str, str]) -> tuple[dict, dict, dict]:
    """Per-layer metrics of one traced operation.

    Returns (metrics, self-seconds per span, self-seconds per layer).
    A span name missing from ``layers.json`` is a benchmark error."""
    spans: dict[str, dict] = {}
    for key, row in report["spans"].items():
        name = key.split("[")[0]
        if name not in layer_of:
            raise BenchError(f"trace span {name!r} is not mapped to a layer in layers.json")
        entry = spans.setdefault(name, {"count": 0, "seconds": 0.0, "self_seconds": 0.0})
        for field in entry:
            entry[field] += row[field]
    layers = {layer: 0.0 for layer in sorted(set(layer_of.values()))}
    for name, row in spans.items():
        layers[layer_of[name]] += row["self_seconds"]
    wall = sum(row["seconds"] for name, row in spans.items() if layer_of[name] == "bench")

    def seconds(*names: str) -> float:
        return sum(spans.get(name, {}).get("seconds", 0.0) for name in names)

    def calls(name: str) -> int:
        return spans.get(name, {}).get("count", 0)

    counters, kernel, results = report["counters"], report["kernel"], report["results"]

    def count(name: str) -> int:
        return counters.get(name, 0)

    read_s = seconds("relation.read_csv")
    queries = sum(
        value for name, value in results.items()
        if name.startswith("sampling_") and name.endswith("_queries")
    )
    metrics = {
        "relation.read_csv_s": read_s,
        "relation.read_mb_per_s": _ratio(report["read_bytes"] / 1e6, read_s),
        "pli.build_index_s": seconds("pli.build_index"),
        "sampling.harvest_s": seconds("sampling.harvest"),
        "algorithms.spider_s": seconds("spider.sort", "spider.merge"),
        "harness.result_cache_get_s": seconds("harness.result_cache_get"),
        "harness.result_cache_put_s": seconds("harness.result_cache_put"),
        "bench.unattributed_ratio": _ratio(layers.pop("bench"), wall),
        "pli.cache_hit_ratio": _ratio(count("pli.cache_hits"), count("pli.cache_hits") + count("pli.cache_misses")),
        "pli.probe_reuse_ratio": _ratio(count("pli.probe_reuses"), count("pli.probe_reuses") + count("pli.probe_builds")),
        "sampling.yield": _ratio(results.get("sampling_exact_avoided", 0), queries),
        "harness.result_cache_hit_ratio": _ratio(count("harness.result_cache_hits"), calls("harness.result_cache_get")),
        "pli.intersections": kernel["pli_intersections"],
        "pli.clustered_rows": count("pli.clustered_rows"),
        "pli.refine_cluster_scans": kernel["refine_cluster_scans"],
        "pli.cache_evictions": count("pli.cache_evictions"),
        "pli.delta_merges": kernel["delta_merges"],
        "pli.delta_reclustered_rows": kernel["delta_reclustered_rows"],
        "sampling.exact_avoided": count("sampling.exact_avoided"),
        "algorithms.ucc_checks": results.get("ucc_checks", 0),
        "lattice.hole_rounds": calls("search.hole_round"),
        "core.fd_checks": results.get("fd_checks", 0),
        "core.check_cache_hits": results.get("check_cache_hits", 0),
        "incremental.partner_rows": count("incremental.partner_rows"),
        "incremental.composites_deferred": count("incremental.composites_deferred"),
        "schema.dedup_hits": count("schema.dedup_hits"),
        "harness.checkpoint_bytes": report["checkpoint_bytes"],
        "harness.fsyncs": calls("harness.fsync"),
        "harness.journal_appends": calls("harness.journal_append"),
    }
    for layer, self_seconds in layers.items():
        metrics[f"{layer}.self_share"] = _ratio(self_seconds, wall)
    span_self = {name: row["self_seconds"] for name, row in spans.items()}
    return metrics, span_self, layers


# -- one run ----------------------------------------------------------------


class Workload:
    """Measurement state of one workload within a run."""

    def __init__(self, name: str, size_mode: str, expected: dict):
        self.name = name
        self.size = workloads.SIZES[name][size_mode]
        self.expected = expected.get(name, {}).get(size_mode)
        self.directory: Path | None = None
        self.files: dict[str, str] = {}
        self.rows = 0
        self.setup_s: list[float] = []
        self.ops: list[dict] = []  # untraced, timed
        self.paired_untraced: list[float] = []  # trace phase, same config as traced
        self.traced: list[dict] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.validation: dict | None = None

    def check(self, answer: dict, kind: str) -> bool:
        """Record a failure unless ``answer`` is a correct operation."""
        if "error" in answer:
            self.failures.append(f"{kind}: {answer['error']}")
            return False
        if self.expected is None:
            self.failures.append(f"{kind}: no expected digest in expected.json (digest {answer['digest']})")
            return False
        wrong = [d for d in [answer["digest"], *answer["refresh_digests"]] if d != self.expected]
        if wrong:
            self.failures.append(f"{kind}: digest {wrong[0]} differs from expected {self.expected}")
            return False
        return True


def set_up(workload: Workload, seed: int, work: Path) -> None:
    """Build the inputs once more in a fresh process and time it.  Every
    copy must be byte-identical to the first (the same seed gives the same
    inputs); operations use the first."""
    directory = work / f"{workload.name}-input-{len(workload.setup_s)}"
    answer = run_child(
        {"mode": "setup", "workload": workload.name, "size": workload.size,
         "seed": seed, "dir": str(directory)}
    )
    if "error" in answer:
        raise BenchError(f"{workload.name} set-up failed: {answer['error']}")
    workload.setup_s.append(answer["setup_s"])
    if workload.directory is None:
        workload.directory, workload.files, workload.rows = directory, answer["files"], answer["rows"]
        return
    shutil.rmtree(directory)
    if answer["files"] != workload.files:
        raise BenchError(f"{workload.name} set-up is not deterministic for seed {seed}")


def run_op(workload: Workload, work: Path, traced: bool = False,
           jobs: int = SCHEMA_JOBS, validate: bool = False) -> dict:
    scratch = work / f"{workload.name}-op-{uuid.uuid4().hex[:8]}"
    job = {
        "mode": "op", "workload": workload.name, "dir": str(workload.directory),
        "scratch": str(scratch), "refreshes": workload.size["refreshes"],
        "trace": traced, "jobs": jobs, "validate": validate,
    }
    workload.attempted += 1
    try:
        return run_child(job)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(loads: list[Workload], work: Path, seconds: float, phase: str, seed: int) -> None:
    """Closed loop, one client: round-robin over the workloads until the
    phase's time (``seconds`` per workload) is used; at least one round.
    The timed phase also repeats each set-up until there are ``SETUPS``,
    spread over the run so one slow stretch of the host does not skew all
    of them."""
    deadline = time.perf_counter() + seconds * len(loads)
    while True:
        for workload in loads:
            if phase == "timed":
                if len(workload.setup_s) < SETUPS:
                    set_up(workload, seed, work)
                answer = run_op(workload, work)
                if workload.check(answer, "op"):
                    workload.ops.append(answer)
            else:
                plain = run_op(workload, work, jobs=1)
                traced = run_op(workload, work, traced=True, jobs=1)
                if workload.check(plain, "paired op") and workload.check(traced, "traced op"):
                    workload.paired_untraced.append(plain["profile_s"])
                    workload.traced.append(traced)
        if seconds <= 0 or time.perf_counter() >= deadline:
            return


def validate(workload: Workload, work: Path) -> None:
    """Untimed cross-check against an independent code path."""
    answer = run_op(workload, work, validate=True)
    if not workload.check(answer, "validate"):
        return
    reference = answer["reference_digest"]
    own = answer.get("digest_without_algorithm", answer["digest"])
    workload.validation = {"reference_digest": reference, "agrees": reference == own}
    if reference != own:
        workload.failures.append(f"validate: independent path gives {reference}, benchmark path {own}")


def end_to_end(workload: Workload) -> dict:
    """Timings are the fastest sample of the run: this host slows whole
    stretches of operations by up to a third, which moves medians far more
    than minima; ``median``, ``q1`` and ``q3`` are kept beside them."""
    profile = [op["profile_s"] for op in workload.ops]
    refresh = [s for op in workload.ops for s in op["refresh_s"]]
    return {
        "setup_s": summarize(workload.setup_s, statistics.median),
        "profile_s": summarize(profile, min),
        "rows_per_s": summarize([workload.rows / s for s in profile], max),
        "peak_rss_mb": summarize([op["rss_mb"] for op in workload.ops], statistics.median),
        "refresh_s": summarize(refresh, min),
    }


def per_layer(workload: Workload, layer_of: dict, units: dict) -> dict:
    per_op = [layer_metrics(op["trace"], layer_of) for op in workload.traced]
    metrics = {}
    for name in per_op[0][0]:
        values = [m[name] for m, _, _ in per_op]
        if units.get(name) in COUNTED:
            if len(set(values)) > 1:
                raise BenchError(f"{workload.name}: counter {name} differs between repeats: {values}")
            metrics[name] = {"value": values[0], "n": len(values)}
        else:
            metrics[name] = summarize(values, statistics.median)
    traced_cold = [op["profile_s"] for op in workload.traced]
    metrics["trace.overhead_ratio"] = {
        "value": min(traced_cold) / min(workload.paired_untraced),
        "n": len(traced_cold),
    }
    spans = {name: statistics.median(s[name] for _, s, _ in per_op) for name in per_op[0][1]}
    layers = {name: statistics.median(l[name] for _, _, l in per_op) for name in per_op[0][2]}
    return {"metrics": metrics, "span_self_seconds": spans, "layer_self_seconds": layers}


def machine() -> dict:
    sha = ""
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except OSError:
            pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": sha or None,
        "platform": platform.platform(),
    }


def run(args: argparse.Namespace, bench: dict) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    expected = _load(HERE / "expected.json")
    layer_of = _load(HERE / "layers.json")["spans"]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    names = list(workloads.NAMES) if args.workload == "all" else [args.workload]
    size_mode = "quick" if args.quick else "full"
    phases = {None: ["timed", "traced"], 0: ["timed"], 1: ["traced"]}[args.trace]
    loads = [Workload(name, size_mode, expected) for name in names]
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    if args.quick:
        seconds = 0  # one round

    work = ROOT / ".perfbench_work" / f"{os.getpid()}-{uuid.uuid4().hex[:8]}"
    work.mkdir(parents=True)
    try:
        for workload in loads:
            set_up(workload, args.seed, work)
        for phase in phases:
            measure(loads, work, seconds, phase, args.seed)
        if args.validate:
            for workload in loads:
                validate(workload, work)
        record = {"seed": args.seed, "seconds": seconds, "quick": args.quick,
                  "machine": machine(), "workloads": {}}
        for workload in loads:
            entry: dict = {"rows": workload.rows, "failures": workload.failures}
            if "timed" in phases and workload.ops:
                entry["end_to_end"] = end_to_end(workload)
                entry["samples"] = {
                    "setup_s": workload.setup_s,
                    "profile_s": [op["profile_s"] for op in workload.ops],
                    "refresh_s": [op["refresh_s"] for op in workload.ops],
                }
            if "traced" in phases and workload.traced:
                entry["per_layer"] = per_layer(workload, layer_of, units)
            if workload.validation is not None:
                entry["validation"] = workload.validation
            entry["attempted"], entry["failed"] = workload.attempted, len(workload.failures)
            record["workloads"][workload.name] = entry
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass

    wanted = [m["name"] for m in (bench["end_to_end"] if "timed" in phases else [])]
    wanted += [m["name"] for m in (bench["per_layer"] if "traced" in phases else [])]
    metrics = {}
    for name, entry in record["workloads"].items():
        found = {**entry.get("end_to_end", {}), **entry.get("per_layer", {}).get("metrics", {})}
        print(f"== {name}: {entry['rows']} input rows, {entry['attempted']} operations, {entry['failed']} failed")
        for failure in entry["failures"]:
            print(f"   FAILED {failure}")
        for metric in wanted:
            if metric not in found:
                continue
            value = found[metric]
            key = metric if len(names) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": value["value"], "unit": units[metric]}
            spread = (
                f"  [median {value['median']:.6g}, q1 {value['q1']:.6g}, q3 {value['q3']:.6g}, n={value['n']}]"
                if "q1" in value else ""
            )
            print(f"   {metric:36s} {value['value']:>14.6g} {units[metric]:8s}{spread}")
    attempted = sum(e["attempted"] for e in record["workloads"].values())
    failed = sum(e["failed"] for e in record["workloads"].values())
    correct = failed == 0 and all(
        (m if len(names) == 1 else f"{n}.{m}") in metrics for n in names for m in wanted
    )
    record["correct"] = correct
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


# -- compare ------------------------------------------------------------------


def compare(parents: list[dict], changes: list[dict], bench: dict) -> int:
    """Apply BENCHMARK.json's bounds to records of the parent and the change.

    Per (workload, end-to-end metric), each side's value is the median of
    its records' values.  ``unresolved`` when either side's quartile spread
    over its records is wider than the bound, unless every change record
    reads better than every parent record; otherwise ``regressed`` when the
    change is worse than the parent by more than the bound, else ``ok``.
    With one record per side there is no spread to see: claims need ten.
    Every per-layer count must be identical between all records."""
    seeds = {(r["seed"], r["quick"]) for r in parents + changes}
    counts = [m["name"] for m in bench["per_layer"] if m["unit"] in COUNTED]
    clean = True
    for name in sorted(set.intersection(*(set(r["workloads"]) for r in parents + changes))):
        for metric in bench["end_to_end"]:
            sides = [
                [r["workloads"][name].get("end_to_end", {}).get(metric["name"], {}).get("value") for r in side]
                for side in (parents, changes)
            ]
            if any(v is None for side in sides for v in side):
                continue
            a, b = (spread_of(side) for side in sides)
            sign = 1 if metric["better"] == "lower" else -1
            worse = sign * (b["median"] - a["median"]) / a["median"]
            spread = max((x["q3"] - x["q1"]) / x["median"] for x in (a, b))
            always_better = all(sign * (new - old) < 0 for new in sides[1] for old in sides[0])
            if spread > metric["bound"] and not always_better:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "regressed"
            else:
                verdict = "ok"
            clean &= verdict == "ok"
            print(f"{name:7s} {metric['name']:12s} {a['median']:12.6g} -> {b['median']:12.6g} "
                  f"{metric['unit']:7s} {100 * worse:+7.2f}% worse (bound {100 * metric['bound']:.0f}%, "
                  f"spread {100 * spread:.1f}%, n={a['n']}/{b['n']})  {verdict}")
        if len(seeds) > 1:
            continue  # counts depend on the seed
        for counter in counts:
            values = {
                r["workloads"][name].get("per_layer", {}).get("metrics", {}).get(counter, {}).get("value")
                for r in parents + changes
            } - {None}
            if len(values) > 1:
                clean = False
                print(f"{name:7s} counter {counter} differs: {sorted(values)}")
    if len(seeds) > 1:
        print("note: records of different seeds or sizes; counters not compared")
    return 0 if clean else 1


def main(argv: list[str]) -> int:
    # Turn a termination request into SystemExit, so the cleanup in
    # run_child and run still kills the running child and removes files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    bench = _load(ROOT / "BENCHMARK.json")
    if argv[:1] == ["compare"]:
        paths = argv[1:]
        if "--" in paths:
            cut = paths.index("--")
            parents, changes = paths[:cut], paths[cut + 1:]
        elif len(paths) == 2:
            parents, changes = paths[:1], paths[1:]
        else:
            parents = changes = []
        if not parents or not changes:
            print("usage: run.py compare PARENT.json CHANGE.json\n"
                  "       run.py compare PARENT.json... -- CHANGE.json...", file=sys.stderr)
            return 2
        return compare([_load(Path(p)) for p in parents], [_load(Path(p)) for p in changes], bench)
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads.NAMES])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=None)
    parser.add_argument("--out", default=None, help="write the full JSON record here")
    parser.add_argument("--validate", action="store_true",
                        help="also cross-check every workload against an independent code path")
    parser.add_argument("--quick", action="store_true", help="tiny inputs, one repeat")
    return run(parser.parse_args(argv), bench)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
