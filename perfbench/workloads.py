"""The three benchmark workloads and the checks on their outputs.

Every operation goes through `gridflow.cli.run_cli`, in process, one call at
a time: a single client in a closed loop. A workload is a cycle of steps
(`block`); run.py repeats the block while time allows. Inputs
come only from the workload seed, so one seed always gives the same studies,
stores and graph texts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
from pathlib import Path
from time import perf_counter

from gridflow.cli import RUNTIME_ERROR, USER_ERROR, run_cli
from probe import REFERENCE_PROBE_S, core_probe

DEFAULT_SEED = 1
USER = "bench-user"
CASE_STUDY = Path("corpus") / "sound" / "case_study.flow"

# The corpus as of the commit that defined this benchmark, with each file's
# expected verdict: (sound, a finding kind that must appear, verifier mode).
# Construction-blocking defects come back without a mode. Files added to
# corpus/ later are not verified here, so the workload keeps its size.
CORPUS = (
    ("sound/case_study.flow", True, None, "exhaustive"),
    ("sound/crossing.flow", True, None, "exhaustive"),
    ("sound/decision_diamond.flow", True, None, "exhaustive"),
    ("sound/fork_join.flow", True, None, "exhaustive"),
    ("sound/loop_converge.flow", True, None, "exhaustive"),
    ("sound/minimal_chain.flow", True, None, "exhaustive"),
    ("sound/nested_fork.flow", True, None, "exhaustive"),
    ("unsound/dangling_join.flow", False, "BadDegree", None),
    ("unsound/decision_join_deadlock.flow", False, "JoinDeadlock", "exhaustive"),
    ("unsound/no_final.flow", False, "NoFinal", None),
    ("unsound/two_starts.flow", False, "TwoStarts", None),
    ("unsound/unbalanced_fork_join.flow", False, "UnbalancedForkJoin", "exhaustive"),
    ("unsound/unbound_flow.flow", False, "UnboundObjectFlow", "exhaustive"),
    ("unsound/unguarded_cycle.flow", False, "UnguardedCycle", "exhaustive"),
    ("unsound/unreachable.flow", False, "Unreachable", "exhaustive"),
)

SOUND = (True, None, "exhaustive")



def tree_bytes(path: Path) -> int:
    total = 0
    for folder, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(folder, f)) for f in files)
    return total


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


class Bench:
    """Runs CLI operations, keeps their timings and counts what failed.

    Timings go to `samples` (normalised) and `raw` (wall clock); `tracer`,
    when active, gets one top-level span per CLI call. An operation fails when its exit code or output differs
    from what the workload expects; injected faults are expected.
    """

    def __init__(self, work: Path, tracer=None):
        self.work = work
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.probes: list[float] = []
        self._dirs = 0
        self.reset_samples()

    def reset_samples(self):
        kinds = ("submit", "report", "resume", "verify", "cycle")
        self.samples = {k: [] for k in kinds}  # normalised seconds
        self.raw = {k: [] for k in kinds}  # wall-clock seconds
        self.runs_completed = 0
        self.store_bytes = 0
        self.blob_bytes = 0
        self.manifest_bytes = 0

    def fail(self, message: str):
        self.failures.append(message)

    def fresh_dir(self, stem: str) -> Path:
        self._dirs += 1
        return self.work / f"{stem}-{self._dirs}"

    def timed(self, fn, *args):
        """Run fn(*args) between two core probes.

        Returns (result, wall seconds, normalised seconds): the wall time
        scaled to a core that runs the probe in REFERENCE_PROBE_S.
        """
        before = core_probe()
        t0 = perf_counter()
        result = fn(*args)
        wall = perf_counter() - t0
        after = core_probe()
        self.probes += (before, after)
        return result, wall, wall * 2 * REFERENCE_PROBE_S / (before + after)

    def record(self, kind: str, wall: float, normalised: float):
        self.samples[kind].append(normalised)
        self.raw[kind].append(wall)

    def run(self, op: str, argv: list[str], expect: int = 0):
        """One CLI call, untimed; returns its stdout, or None if it failed."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if self.tracer is not None and self.tracer.active:
                rc = self.tracer.call(f"cli.{op}", run_cli, (argv,), {})
            else:
                rc = run_cli(argv)
        if rc != expect:
            self.fail(f"{op} {argv[1]}: exit {rc}, expected {expect}: {err.getvalue().strip()}")
            return None
        return out.getvalue()

    def cli(self, op: str, argv: list[str], expect: int = 0):
        """One timed CLI call; returns (stdout or None, wall s, normalised s)."""
        return self.timed(self.run, op, argv, expect)

    def cycle(self, store: Path, flow: Path, params: list[str], seed: int, fault=None):
        """Submit (with an injected fault, then resume) and report one run.

        Returns the run's {activity: result hash}, or None if it failed.
        """
        base = ["--store", str(store)]
        submit = ["submit", str(flow), *base, "--user", USER, "--seed", str(seed), *params]
        if fault is None:
            out, wall, norm = self.cli("submit", submit)
            if out is None:
                return None
            self.record("submit", wall, norm)
        else:
            out, wall, norm = self.cli("submit", submit + ["--fail-at", fault], expect=RUNTIME_ERROR)
            if out is None:
                return None
            resumed, resume_wall, resume_norm = self.cli("resume", ["resume", out.strip(), *base])
            if resumed is None:
                return None
            self.record("resume", resume_wall, resume_norm)
            wall, norm = wall + resume_wall, norm + resume_norm
        run_id = out.strip()
        report, report_wall, report_norm = self.cli(
            "report", ["report", run_id, *base, "--json", "--deterministic"]
        )
        if report is None:
            return None
        self.record("report", report_wall, report_norm)
        self.record("cycle", wall + report_wall, norm + report_norm)
        data = json.loads(report)
        if data["status"] != "completed":
            self.fail(f"report {run_id}: status {data['status']}")
            return None
        self.runs_completed += 1
        return {activity: r["hash"] for activity, r in data["results"].items()}

    def verify(self, files):
        """One verify pass that checks each file's verdict; its time is the
        sum of the calls' times.

        `files` holds (path, sound, expected finding kind, expected mode).
        """
        wall = norm = 0.0
        for path, sound, kind, mode in files:
            out, call_wall, call_norm = self.cli(
                "verify", ["verify", str(path), "--json"], 0 if sound else USER_ERROR
            )
            wall, norm = wall + call_wall, norm + call_norm
            if out is None:
                continue
            verdict = json.loads(out)
            kinds = {f["kind"] for f in verdict["findings"]}
            if verdict["sound"] != sound or verdict.get("mode") != mode or (
                kind is not None and kind not in kinds
            ):
                self.fail(
                    f"verify {path.name}: sound={verdict['sound']} mode={verdict.get('mode')} "
                    f"kinds={sorted(kinds)}; expected sound={sound} mode={mode} kind={kind}"
                )
        self.record("verify", wall, norm)

    def account(self, store: Path, before=(0, 0, 0)):
        """Add a store's growth since `before` (blobs, index, manifests)."""
        after = store_parts(store)
        self.blob_bytes += after[0] - before[0]
        self.manifest_bytes += after[2] - before[2]
        self.store_bytes += sum(after) - sum(before)


def store_parts(store: Path) -> tuple[int, int, int]:
    """Bytes of blobs, index log and run manifests under a store root."""
    index = store / "index.log"
    return (
        tree_bytes(store / "blobs"),
        index.stat().st_size if index.exists() else 0,
        tree_bytes(store / "runs"),
    )


def study_params(cells, theta, walkers, steps) -> list[str]:
    return ["--param", f"cells={cells}", "--param", f"theta={theta}",
            "--param", f"n_helium={walkers}", "--param", f"steps={steps}"]


class Workload:
    name = ""
    block: tuple[str, ...] = ()

    def __init__(self, root: Path, seed: int, smoke: bool):
        self.root = root
        self.seed = seed
        self.smoke = smoke
        self.outcomes: list = []

    def setup(self, bench: Bench, folder: Path):
        """Build the inputs the timed steps read; timed as set-up."""
        raise NotImplementedError

    def step(self, bench: Bench, kind: str):
        raise NotImplementedError

    def finish(self, bench: Bench, expected: dict):
        """Check outputs once the timed work is done."""
        raise NotImplementedError

    def check_recorded(self, bench: Bench, expected: dict, value: str):
        """For the default seed, outputs must match those recorded from the
        commit that defined the benchmark."""
        if self.seed != DEFAULT_SEED:
            return
        recorded = expected.get("smoke" if self.smoke else "full", {}).get(self.name)
        if recorded != value:
            bench.fail(f"{self.name}: results digest {value} != recorded {recorded}")


def _same_results(bench: Bench, label: str, runs: list, reference) -> None:
    for results in runs:
        if results != reference:
            bench.fail(f"{label}: results {results} differ from {reference}")


class StudyScaled(Workload):
    """The ROADMAP's scaled case study: data-heavy, one run per fresh store."""

    name = "study-scaled"
    block = ("clean", "faulted")
    VERIFY_PASSES = 10

    def __init__(self, root, seed, smoke):
        super().__init__(root, seed, smoke)
        self.params = study_params(16, "0.0", 4, 20) if smoke else study_params(64, "0.0", 50, 500)

    def setup(self, bench, folder):
        folder.mkdir(parents=True)
        self.flow = folder / "study.flow"
        self.flow.write_text((self.root / CASE_STUDY).read_text(encoding="utf-8"), encoding="utf-8")

    def step(self, bench, kind):
        store = bench.fresh_dir("store")
        fault = "md:1" if kind == "faulted" else None
        self.outcomes.append((kind, bench.cycle(store, self.flow, self.params, self.seed, fault)))
        bench.account(store)
        shutil.rmtree(store)
        for _ in range(self.VERIFY_PASSES):
            bench.verify([(self.flow, *SOUND)])

    def finish(self, bench, expected):
        runs = [r for _, r in self.outcomes if r is not None]
        if not runs:
            return
        _same_results(bench, f"{self.name} seed {self.seed}", runs, runs[0])
        analysis = runs[0].get("analysis")
        if analysis is None:
            bench.fail(f"{self.name}: no analysis result")
        self.check_recorded(bench, expected, digest(runs[0]))


class StoreChurn(Workload):
    """Many small studies against a store that already holds completed runs."""

    name = "store-churn"
    block = ("round",)
    FAULT_EVERY = 5

    def __init__(self, root, seed, smoke):
        super().__init__(root, seed, smoke)
        self.params = study_params(6, "0.3", 3, 12)
        stored, studies = (4, 10) if smoke else (60, 100)
        seeds = random.Random(f"{self.name}:{seed}").sample(range(1, 1_000_000), stored + studies)
        self.stored_seeds, self.study_seeds = seeds[:stored], seeds[stored:]

    def fault(self, j):
        return "md:1" if j % self.FAULT_EVERY == self.FAULT_EVERY - 1 else None

    def setup(self, bench, folder):
        folder.mkdir(parents=True)
        self.flow = folder / "study.flow"
        self.flow.write_text((self.root / CASE_STUDY).read_text(encoding="utf-8"), encoding="utf-8")
        template = folder / "template"
        for seed in self.stored_seeds:
            bench.run("submit", ["submit", str(self.flow), "--store", str(template),
                                 "--user", USER, "--seed", str(seed), *self.params])
        self.template = template
        self.template_parts = store_parts(template)
        shutil.copytree(template, folder / "copy")

    def step(self, bench, kind):
        store = bench.fresh_dir("store")
        shutil.copytree(self.template, store)
        results = []
        for j, seed in enumerate(self.study_seeds):
            results.append(bench.cycle(store, self.flow, self.params, seed, self.fault(j)))
            # spread over the round, so the samples meet many machine states
            bench.verify([(self.flow, *SOUND)])
        bench.account(store, self.template_parts)
        shutil.rmtree(store)
        self.outcomes.append(results)

    def finish(self, bench, expected):
        first = self.outcomes[0]
        for later in self.outcomes[1:]:
            if later != first:
                bench.fail(f"{self.name}: a round from the same starting store differs")
        # every resumed study must equal an uninterrupted run of its seed
        store = bench.fresh_dir("reference")
        for j, seed in enumerate(self.study_seeds):
            if self.fault(j) and first[j] is not None:
                reference = bench.cycle(store, self.flow, self.params, seed)
                if reference != first[j]:
                    bench.fail(f"{self.name}: resumed study seed {seed} differs from reference")
        shutil.rmtree(store, ignore_errors=True)
        self.check_recorded(bench, expected, digest(first))


def _loops(k: int, prefix: str, exit_to: str) -> list[str]:
    """k sequential guarded loops over flip activities, then `exit_to`."""
    out = []
    for i in range(1, k + 1):
        out.append(
            f'activity {prefix}{i} {{ program: "flip"; capabilities: [loop-probe]; '
            f'params: [converge_after = "3"]; }}'
        )
        after = f"{prefix}{i + 1}" if i < k else exit_to
        out.append(
            f"decision c{i} after {prefix}{i} "
            f"{{ when converged == 1.0 -> {after}; else -> {prefix}{i}; }}"
        )
    return out


def loops_graph(k: int) -> tuple[str, list[str]]:
    return "seq-loops", ["start -> w1;", *_loops(k, "w", "end")]


def fork_graph(width: int) -> tuple[str, list[str]]:
    names = [f"b{i}" for i in range(1, width + 1)]
    body = ["start -> f;", f"fork f after start into ({', '.join(names)});"]
    body += [f"activity {b} {{ capabilities: [sim]; }}" for b in names]
    body += [f"join j waits ({', '.join(names)}) -> c;",
             "activity c { capabilities: [sim]; }", "c -> end;"]
    return "wide-fork", body


def deadlock_graph(k: int) -> tuple[str, list[str]]:
    """The decision_join_deadlock pattern behind k guarded loops."""
    body = ["start -> w1;", *_loops(k, "w", "probe")]
    body += [
        'activity probe { program: "noop"; capabilities: [sim, probe]; params: [flag = "1.0"]; }',
        "decision route after probe { when flag == 1.0 -> a; else -> b; }",
        "activity a { capabilities: [sim]; }",
        "activity b { capabilities: [sim]; }",
        "join j waits (a, b) -> d;",
        "activity d { capabilities: [sim]; }",
        "d -> end;",
    ]
    return "deadlock-behind-loops", body


def render(graph: tuple[str, list[str]], rng: random.Random | None = None) -> str:
    """The graph's text, with its declarations in a seeded order if `rng` is given."""
    name, body = graph
    body = list(body)
    if rng is not None:
        rng.shuffle(body)
    return "\n".join([f'workflow "{name}" {{', *(f"  {s}" for s in body), "}", ""])


class VerifyStress(Workload):
    """The verifier's token game on graphs near its exhaustive limit."""

    name = "verify-stress"
    block = ("pass", "clean", "faulted", "clean", "faulted", "clean", "faulted")

    def __init__(self, root, seed, smoke):
        super().__init__(root, seed, smoke)
        loops, width, deadlock_loops = (3, 3, 2) if smoke else (10, 13, 8)
        self.rng = random.Random(f"{self.name}:{seed}")
        self.stress = (
            (loops_graph(loops), SOUND),
            (fork_graph(width), SOUND),
            (deadlock_graph(deadlock_loops), (False, "JoinDeadlock", "exhaustive")),
        )
        self.fork = fork_graph(width)
        self.written = 0
        self.fault_at = f"b{(width + 1) // 2}:1"

    def setup(self, bench, folder):
        folder.mkdir(parents=True)
        self.folder = folder
        # submits always take one declaration order: the order's effect on
        # verify time (up to a third here) would otherwise vary with the seed
        self.fork_flow = folder / "wide-fork.flow"
        self.fork_flow.write_text(render(self.fork), encoding="utf-8")
        self.corpus = [(self.root / "corpus" / rel, *verdict) for rel, *verdict in CORPUS]
        for path, *_ in self.corpus:
            if not path.is_file():
                bench.fail(f"{self.name}: corpus file {path} is missing")

    def _write(self, graph) -> Path:
        """A fresh declaration order of the graph, as a file to pass the CLI."""
        self.written += 1
        path = self.folder / f"{graph[0]}-{self.written}.flow"
        path.write_text(render(graph, self.rng), encoding="utf-8")
        return path

    def step(self, bench, kind):
        if kind == "pass":
            files = [(self._write(g), *verdict) for g, verdict in self.stress] + self.corpus
            self.rng.shuffle(files)
            bench.verify(files)
            return
        store = bench.fresh_dir("store")
        fault = self.fault_at if kind == "faulted" else None
        self.outcomes.append((kind, bench.cycle(store, self.fork_flow, [], self.seed, fault)))
        bench.account(store)
        shutil.rmtree(store)

    def finish(self, bench, expected):
        runs = [r for _, r in self.outcomes if r is not None]
        if not runs:
            return
        _same_results(bench, f"{self.name} seed {self.seed}", runs, runs[0])
        self.check_recorded(bench, expected, digest(runs[0]))


WORKLOADS = {w.name: w for w in (StudyScaled, StoreChurn, VerifyStress)}

