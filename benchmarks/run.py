"""One benchmark for sectornet.

    python3 benchmarks/run.py --workload blob --seed 1 --seconds 30 --trace 0

Makes the workload's instances from the seed, then runs whole rounds for
about ``--seconds``. A round takes every instance through ``orient_all_180``
and ``orient_all_90``, ``min_strong_radius`` of each orientation, and the
verify path (``build_comm_graph`` plus ``strongly_connected`` at the
guaranteed radius). Every distinct output is then checked by ``checker``,
which shares no code with the library. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` reports the
per-layer metrics of ``tracer`` instead, checks every spanning tree and
group partition the library built, and prints the tracing overhead.
Results and spans are written under ``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, SRC)

from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3
# per instance and round: two orientations, two radius searches, two verifies
OPS_PER_INSTANCE = 6
APERTURES = ((180, "orient_all_180", "orient180_s"), (90, "orient_all_90", "orient90_s"))
END_TO_END = (
    ("orient180_s", "s"),
    ("orient90_s", "s"),
    ("radius_s", "s"),
    ("verify_s", "s"),
    ("points_per_s", "points/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--setup-only",
        action="store_true",
        help="print the set-up time of this fresh process as JSON and exit",
    )
    return p.parse_args(argv)


def setup(workload: str, seed: int):
    """Import sectornet and make the instances: the set-up a user pays."""
    start = time.perf_counter()
    import sectornet

    instances = WORKLOADS[workload](sectornet, seed)
    return sectornet, instances, time.perf_counter() - start


def fresh_setup_time(args) -> float:
    cmd = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--setup-only",
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


class Run:
    """Samples, outputs and failures of the measured rounds."""

    def __init__(self, sn, instances):
        self.sn = sn
        self.instances = instances
        self.samples = {"orient180_s": [], "orient90_s": [], "radius_s": [], "verify_s": []}
        # (instance, aperture) -> distinct outputs seen, first one first
        self.outputs = {}
        self.rounds = 0
        self.failed = 0
        self.errors = []

    def _fail(self, count: int, where: str, exc: Exception) -> None:
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append(f"FAILED {where}: {exc!r}")

    def round(self) -> None:
        sn, clock = self.sn, time.perf_counter
        for k, (label, pts) in enumerate(self.instances):
            for alpha_deg, orient_name, key in APERTURES:
                where = f"{label} alpha={alpha_deg}"
                try:
                    t0 = clock()
                    a = getattr(sn, orient_name)(pts)
                    t1 = clock()
                except Exception as exc:
                    self._fail(3, where, exc)  # the radius and verify ops cannot run
                    continue
                self.samples[key].append(t1 - t0)
                complete = True
                try:
                    t0 = clock()
                    r_star = sn.min_strong_radius(pts, a)
                    t1 = clock()
                    self.samples["radius_s"].append(t1 - t0)
                except Exception as exc:
                    self._fail(1, where, exc)
                    complete = False
                try:
                    t0 = clock()
                    strong = sn.strongly_connected(sn.build_comm_graph(pts, a))
                    t1 = clock()
                    self.samples["verify_s"].append(t1 - t0)
                except Exception as exc:
                    self._fail(1, where, exc)
                    complete = False
                if not complete:
                    continue
                out = (a.theta, a.alpha, a.guaranteed_radius, r_star, strong)
                seen = self.outputs.setdefault((k, alpha_deg), [])
                if out not in seen:
                    seen.append(out)
        self.rounds += 1

    def measure(self, seconds: float, start: float) -> float:
        """Whole rounds until about ``seconds`` after ``start``; returns the
        time the rounds took."""
        began = time.perf_counter()
        done = 0
        while True:
            self.round()
            done += 1
            now = time.perf_counter()
            if now + 0.5 * (now - began) / done >= start + seconds:
                return now - began

    @property
    def attempted(self) -> int:
        return OPS_PER_INSTANCE * len(self.instances) * self.rounds


def xy_by_id(pts):
    import numpy as np

    xy = np.empty((len(pts), 2))
    for p in pts:
        xy[p.id] = (p.x, p.y)
    return xy


def check_outputs(run: Run) -> list:
    import checker

    problems = []
    for (k, alpha_deg), seen in sorted(run.outputs.items()):
        label, pts = run.instances[k]
        xy = xy_by_id(pts)
        for theta, alpha, radius, r_star, strong in seen:
            for msg in checker.check_orientation(xy, alpha_deg, theta, alpha, radius, r_star, strong):
                problems.append(f"{label} alpha={alpha_deg}: {msg}")
        if len(seen) > 1:
            problems.append(f"{label} alpha={alpha_deg}: {len(seen)} different outputs across rounds")
    return problems


def check_structures(kept: list) -> list:
    import checker

    problems = []
    for name, arg, result in kept:
        if name == "topology.bounded_degree_mst":
            n, msgs = len(arg), checker.check_spanning_tree(xy_by_id(arg), result.edges())
        elif name == "orient180.partition_groups_180":
            n, msgs = arg.n, checker.check_partition(arg.n, [(g.parent,) + g.members for g in result])
        else:
            groups, remainder = result
            n, msgs = arg.n, checker.check_partition(arg.n, [g.members for g in groups] + [remainder])
        problems.extend(f"{name} on n={n}: {m}" for m in msgs)
    return problems


def summary(name: str, values: list, unit: str) -> str:
    """Median and, from 40 samples on, the highest percentile with at least
    ten samples beyond it."""
    line = f"{name:<14} median {statistics.median(values):.6g} {unit} of {len(values)}"
    if len(values) >= 40:
        for pct in (99.9, 99, 95, 90, 75):
            if len(values) * (100 - pct) / 100 >= 10:
                cut = statistics.quantiles(values, n=1000, method="inclusive")[round(pct * 10) - 1]
                line += f", p{pct:g} {cut:.6g} {unit}"
                break
    return line


def untraced(args) -> dict:
    sn, instances, first_setup = setup(args.workload, args.seed)
    setups = [first_setup] + [fresh_setup_time(args) for _ in range(SETUP_SAMPLES - 1)]
    run = Run(sn, instances)
    wall = run.measure(args.seconds, time.perf_counter())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    points = run.rounds * sum(len(pts) for _, pts in instances)
    metrics = {key: statistics.median(v) for key, v in run.samples.items()}
    metrics["points_per_s"] = points / wall
    metrics["peak_rss_mb"] = peak_rss_mb
    metrics["setup_s"] = statistics.median(setups)
    units = dict(END_TO_END)
    report = [f"{len(instances)} instances, {run.rounds} rounds in {wall:.2f} s"]
    report += [summary(k, v, "s") for k, v in run.samples.items()]
    report.append(f"setup samples {', '.join(f'{s:.4f}' for s in setups)} s")
    problems = check_outputs(run)
    return {
        "run": run,
        "problems": problems,
        "report": report,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k, _ in END_TO_END},
    }


def traced(args, start: float) -> dict:
    from tracer import METRICS, Tracer

    import sectornet as sn

    tracer = Tracer()
    tracer.install()
    instances = WORKLOADS[args.workload](sn, args.seed)
    tracer.uninstall()
    run = Run(sn, instances)
    began = time.perf_counter()
    run.round()
    plain = time.perf_counter() - began
    tracer.phase, tracer.keep = "round", True
    tracer.install()
    wall = run.measure(args.seconds, start)
    traced_rounds = run.rounds - 1
    # tracemalloc peaks from one uncounted pass over the largest instance,
    # which sets the peak of the n x n layers
    tracer.phase, tracer.keep, tracer.memory = "memory", False, True
    memory_run = Run(sn, [max(instances, key=lambda inst: len(inst[1]))])
    began = time.perf_counter()
    memory_run.round()
    memory_wall = time.perf_counter() - began
    tracer.uninstall()
    values = tracer.per_pass(traced_rounds)
    per_round = wall / traced_rounds
    report = [
        f"{len(instances)} instances, 1 plain round {plain:.3f} s, "
        f"{traced_rounds} traced rounds {per_round:.3f} s each, "
        f"tracemalloc pass over {memory_run.instances[0][0]} {memory_wall:.3f} s",
        f"tracing overhead {100 * (per_round / plain - 1):+.1f}% per round, "
        f"{sum(span[4] == 'round' for span in tracer.spans) / traced_rounds:.0f} spans per round",
        "per-layer values are per pass: one set-up plus one round",
    ]
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"), "w") as fh:
        json.dump(tracer.dump(), fh)
    problems = check_outputs(run) + check_outputs(memory_run) + check_structures(tracer.kept)
    return {
        "run": run,
        "problems": problems,
        "report": report,
        "metrics": {k: {"value": values.get(k, 0.0), "unit": u} for k, u in METRICS},
    }


def main(argv=None) -> int:
    start = time.perf_counter()
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "sectornet")):
        print(f"error: no sectornet sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup(args.workload, args.seed)[2]}))
        return 0
    res = traced(args, start) if args.trace else untraced(args)
    run = res["run"]
    for line in res["report"] + run.errors:
        print(line)
    for name, m in res["metrics"].items():
        print(f"{name:<44} {m['value']:.6g} {m['unit']}")
    for msg in res["problems"][:20]:
        print(f"WRONG {msg}", file=sys.stderr)
    print(f"attempted {run.attempted}, failed {run.failed}, wrong outputs {len(res['problems'])}")
    result = {
        "correct": not res["problems"],
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": res["metrics"],
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(dict(result, report=res["report"], problems=res["problems"]), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
