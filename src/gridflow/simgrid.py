"""Simulated grid: the programs and pool of a desk-scale diffusion case study.

The case study models helium tracers moving through a one-dimensional
zeolite-like channel partly blocked by a static heavy adsorbate:

    lattice -> cbmc -> gcmc -> md -> analysis

The workflow itself is corpus/sound/case_study.flow; this module supplies
only the programs its stages bind to.

Each stage stands in for a real simulation code. Every mock writes a
deliberately different native text format (CSV-like, key-value, fixed-width)
and ships with an adapter back to the canonical dataset form, so no stage
can talk to another except through the storage mediator.

The walk physics is exactly solvable: a free symmetric +-1 walk has
MSD(t) = t and self-diffusivity D = 1/2 via the Einstein relation, which
gives the analysis stage an analytic oracle. Blocking sites slows the walk,
so D decreases with loading fraction theta.

SimulatedExecutor runs jobs on a virtual clock. A job is its id: submit
returns it, and each wait_any call is one tick, which starts up to the
calculator's max_concurrent queued jobs per resource, finishes them in a
seeded shuffle and returns their ids in that order. Equal (seed, fault
plan) means an identical event order, which makes whole runs reproducible.

numpy is imported only in the program code that computes with arrays: md's
walk and its adapter, the Trajectory and the analysis fit. A CLI call loads
it when a job first runs one of them, or builds or reads a table (see
quantities), not when it imports this module.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import GridflowError, RuntimeFailure, UserError
from .quantities import Dataset, Observable, format_number, get_unit, merge
from .resources import (
    FAILED,
    QUEUED,
    SUCCEEDED,
    WITHDRAWN,
    JobRequest,
    JobStatus,
    ResourceDescriptor,
    ResourceRegistry,
    UnknownJob,
    read_descriptors,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "BadParams",
    "NoFreeSites",
    "Trajectory",
    "SimProgram",
    "SimulatedExecutor",
    "PROGRAMS",
    "standard_descriptors",
    "standard_registry",
]


class BadParams(UserError):
    pass


class NoFreeSites(RuntimeFailure):
    pass


ONE = get_unit("dimensionless")
ANGSTROM = get_unit("angstrom")
ANGSTROM2 = get_unit("angstrom^2")
PS = get_unit("ps")
D_UNIT = get_unit("angstrom^2/ps")

# params the engine injects per job; mocks treat them as plumbing, not physics
RESERVED_PARAMS = ("seed", "attempt")


def _int_param(params, key, default=None) -> int:
    raw = params.get(key, default)
    if raw is None:
        raise BadParams(f"missing parameter {key!r}")
    try:
        return int(str(raw))
    except ValueError:
        raise BadParams(f"parameter {key!r} must be an integer, got {raw!r}") from None


def _float_param(params, key, default=None) -> float:
    raw = params.get(key, default)
    if raw is None:
        raise BadParams(f"missing parameter {key!r}")
    try:
        value = float(str(raw))
    except ValueError:
        raise BadParams(f"parameter {key!r} must be a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise BadParams(f"parameter {key!r} must be finite")
    return value


def _seed_param(params) -> int:
    return _int_param(params, "seed", 0)


def _merged(inputs: dict) -> Dataset:
    if not inputs:
        return Dataset.build([])
    return merge([inputs[slot] for slot in sorted(inputs)])


# ---------------------------------------------------------------------------
# native format A: CSV-like (structure generator)
# ---------------------------------------------------------------------------


def lattice_native(params) -> str:
    """Chain of equally spaced sites, written as commented CSV."""
    cells = _int_param(params, "cells")
    cell_length = _float_param(params, "cell_length", "1.0")
    if cells < 2:
        raise BadParams(f"lattice needs at least 2 sites, got {cells}")
    if cell_length <= 0:
        raise BadParams("cell_length must be positive")
    lines = ["# lattice-csv 1", f"# cell_length = {format_number(cell_length)}", "x"]
    lines.extend(format_number(i * cell_length) for i in range(cells))
    return "\n".join(lines) + "\n"


def parse_lattice_native(text: str) -> Dataset:
    cell_length = None
    rows = []
    header_seen = False
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("cell_length"):
                cell_length = float(body.split("=", 1)[1])
            continue
        if not header_seen:
            if line != "x":
                raise RuntimeFailure(f"lattice output: expected column header 'x', got {line!r}")
            header_seen = True
            continue
        rows.append((float(line),))
    if cell_length is None or not rows:
        raise RuntimeFailure("lattice output: missing cell_length or site rows")
    return Dataset.build(
        [
            Observable.table("sites", ("x",), rows, ANGSTROM),
            Observable.scalar("cell_length", cell_length, ANGSTROM),
            Observable.scalar("n_sites", float(len(rows)), ONE),
        ]
    )



# ---------------------------------------------------------------------------
# native format B: key-value (Monte Carlo stages, analysis, test probes)
# ---------------------------------------------------------------------------


def _kv_text(tag: str, entries) -> str:
    lines = [f"format = {tag}"]
    lines.extend(f"{key} = {value}" for key, value in entries)
    return "\n".join(lines) + "\n"


def _kv_parse(text: str, tag: str) -> dict:
    entries = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise RuntimeFailure(f"{tag}: bad key-value line {line!r}")
        key, value = line.split("=", 1)
        entries[key.strip()] = value.strip()
    if entries.get("format") != tag:
        raise RuntimeFailure(f"expected format {tag!r}, got {entries.get('format')!r}")
    return entries


def _int_list(raw: str) -> list[int]:
    raw = raw.strip()
    if not raw:
        return []
    return [int(tok) for tok in raw.split(",")]


def cbmc_native(lattice: Dataset, params) -> str:
    """Occupy floor(theta * L) sites uniformly at random under the seed."""
    theta = _float_param(params, "theta")
    if not 0.0 <= theta <= 1.0:
        raise BadParams(f"theta must lie in [0, 1], got {theta}")
    n_sites = int(lattice.get("n_sites").magnitude)
    rng = random.Random(_seed_param(params))
    occupied = sorted(rng.sample(range(n_sites), int(theta * n_sites)))
    return _kv_text(
        "mcsim-kv",
        [
            ("n_sites", str(n_sites)),
            ("theta", format_number(theta)),
            ("occupied", ",".join(str(s) for s in occupied)),
        ],
    )


def parse_cbmc_native(text: str) -> Dataset:
    entries = _kv_parse(text, "mcsim-kv")
    n_sites = int(entries["n_sites"])
    occupied = set(_int_list(entries.get("occupied", "")))
    rows = [(float(i), 1.0 if i in occupied else 0.0) for i in range(n_sites)]
    return Dataset.build(
        [
            Observable.table("occupancy", ("site", "occupied"), rows, ONE),
            Observable.scalar("n_occupied", float(len(occupied)), ONE),
            Observable.scalar("n_sites", float(n_sites), ONE),
            Observable.scalar("theta", float(entries["theta"]), ONE),
        ]
    )



def _occupied_sites(ds: Dataset) -> tuple[set[int], int]:
    cells = ds.get("occupancy").cells
    return {int(site) for site, flag in cells.tolist() if flag}, len(cells)


def gcmc_native(occupancy: Dataset, params) -> str:
    """Drop helium walkers uniformly onto unoccupied sites (they overlap
    freely with each other, only the adsorbate blocks)."""
    n_helium = _int_param(params, "n_helium")
    if n_helium < 1:
        raise BadParams(f"n_helium must be >= 1, got {n_helium}")
    occupied, n_sites = _occupied_sites(occupancy)
    free = [s for s in range(n_sites) if s not in occupied]
    if not free:
        raise NoFreeSites("every lattice site is occupied by the adsorbate")
    rng = random.Random(_seed_param(params))
    positions = [rng.choice(free) for _ in range(n_helium)]
    return _kv_text(
        "gulpgc-kv",
        [
            ("n_sites", str(n_sites)),
            ("positions", ",".join(str(p) for p in positions)),
        ],
    )


def parse_gcmc_native(text: str) -> Dataset:
    entries = _kv_parse(text, "gulpgc-kv")
    positions = _int_list(entries["positions"])
    return Dataset.build(
        [
            Observable.series(
                "helium_positions",
                [(float(i), float(p)) for i, p in enumerate(positions)],
                ONE,
            ),
            Observable.scalar("n_walkers", float(len(positions)), ONE),
            Observable.scalar("n_sites", float(entries["n_sites"]), ONE),
        ]
    )



# ---------------------------------------------------------------------------
# native format C: fixed-width columns (the walk itself)
# ---------------------------------------------------------------------------

_COL = 12
_TIMESTEP_PS = 1.0


def _moves(rng: random.Random, n: int) -> np.ndarray:
    """The next n results of rng.choice((-1, 1)), drawn in blocks (see md_native)."""
    import numpy as np

    top = np.empty(0, dtype=np.uint32)
    while len(top) < n:
        k = 2 * (n - len(top)) + 64
        words = np.frombuffer(rng.getrandbits(32 * k).to_bytes(4 * k, "little"), "<u4") >> 30
        top = np.concatenate((top, words[words < 2]))
    return top[:n].astype(np.int64) * 2 - 1


def md_native(config: Dataset, params) -> str:
    """Symmetric +-1 walk; moves onto adsorbate sites are rejected.

    Positions are unwrapped (displacement accumulates without the periodic
    fold), while the blocking test uses the folded coordinate. All walkers
    step together. rng.choice((-1, 1)) keeps the top two bits of one MT19937
    word and redraws values >= 2, and getrandbits(32 * k) returns the next k
    words in order, so _moves draws the same moves in blocks."""
    import numpy as np

    steps = _int_param(params, "steps")
    if steps < 1:
        raise BadParams(f"steps must be >= 1, got {steps}")
    occupied, n_sites = _occupied_sites(config)
    if n_sites < 1:
        raise BadParams("occupancy table has no sites to walk on")
    walkers = [int(v) for _, v in config.get("helium_positions").values]
    if not walkers:
        raise BadParams("no helium walkers to propagate")
    theta = config.get("theta").magnitude if config.has("theta") else 0.0

    moves = _moves(random.Random(_seed_param(params)), steps * len(walkers)).reshape(steps, -1)
    blocked = np.isin(np.arange(n_sites), list(occupied))
    trail = np.empty((steps + 1, len(walkers) + 1), dtype=np.int64)
    trail[:, 0], trail[0, 1:] = np.arange(steps + 1), walkers
    for t in range(steps):
        there = trail[t, 1:] + moves[t]
        trail[t + 1, 1:] = np.where(blocked[there % n_sites], trail[t, 1:], there)

    header = [
        "MDRUN TRAJECTORY 1",
        f"THETA    {format_number(theta)}",
        f"TIMESTEP {format_number(_TIMESTEP_PS)} ps",
        f"WALKERS  {len(walkers)}",
        f"STEPS    {steps}",
    ]
    cols = ["T"] + [f"W{w}" for w in range(len(walkers))]
    lines = ["".join(f"{c:>{_COL}}" for c in cols)]
    rows = trail.tolist()
    distinct = set(chain.from_iterable(rows))  # each distinct cell is formatted once
    rendered = dict(zip(distinct, map(f"{{:{_COL}d}}".format, distinct)))
    lines.extend("".join(map(rendered.__getitem__, row)) for row in rows)
    return "\n".join(header + lines) + "\n"


def parse_md_native(text: str) -> Dataset:
    import numpy as np

    lines = text.splitlines()
    if not lines or lines[0] != "MDRUN TRAJECTORY 1":
        raise RuntimeFailure("trajectory output: bad banner")
    meta = {}
    for body_at, line in enumerate(lines[1:], start=1):
        key = line[:9].strip()
        if key not in ("THETA", "TIMESTEP", "WALKERS", "STEPS"):
            break
        meta[key] = (line[9:].split() or [""])[0]
    else:
        raise RuntimeFailure("trajectory output: missing column header")
    rows = [line for line in lines[body_at + 1 :] if line.strip()]
    try:
        walkers, steps = int(meta["WALKERS"]), int(meta["STEPS"])
        timestep, theta = float(meta["TIMESTEP"]), float(meta["THETA"])
        if len(rows) != steps + 1 or set(map(len, rows)) - {(walkers + 1) * _COL}:
            raise RuntimeFailure(f"trajectory output: expected {steps + 1} rows of {walkers + 1} cells")
        # fields sliced by position: each row is walkers + 1 cells of _COL ASCII bytes
        cells = np.frombuffer("".join(rows).encode("ascii"), f"S{_COL}").astype(float)
        cells = cells.reshape(len(rows), walkers + 1)
    except (KeyError, ValueError) as exc:
        raise RuntimeFailure(f"trajectory output: malformed text ({exc!r})") from None
    columns = ("t",) + tuple(f"w{w}" for w in range(walkers))
    return Dataset.build(
        [
            Observable.table("trajectory", columns, cells, ONE),
            Observable.scalar("timestep", timestep, PS),
            Observable.scalar("theta", theta, ONE),
        ]
    )



# ---------------------------------------------------------------------------
# trajectory analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Unwrapped walker positions, one row per walker, T+1 samples each,
    held as one read-only int64 array built from any integer array-like."""

    positions: np.ndarray
    timestep: float = 1.0  # picoseconds per step
    theta: float = 0.0

    def __post_init__(self):
        import numpy as np

        if len(self.positions) < 1:
            raise BadParams("trajectory needs at least one walker")
        if len({len(p) for p in self.positions}) != 1 or len(self.positions[0]) < 2:
            raise BadParams("every walker needs the same number of samples, at least 2")
        if not 0.0 <= self.theta <= 1.0:
            raise BadParams("theta must lie in [0, 1]")
        tracks = np.array(self.positions, dtype=np.int64)
        if (np.abs(np.diff(tracks)) > 1).any():
            raise BadParams("walkers may move at most one site per step")
        tracks.flags.writeable = False
        object.__setattr__(self, "positions", tracks)

    @property
    def walkers(self) -> int:
        return len(self.positions)

    @property
    def steps(self) -> int:
        return self.positions.shape[1] - 1

    @staticmethod
    def from_dataset(ds: Dataset) -> "Trajectory":
        import numpy as np

        rows = ds.get("trajectory").cells
        tracks = rows[np.argsort(rows[:, 0], kind="stable"), 1:].T
        timestep = ds.get("timestep").magnitude if ds.has("timestep") else 1.0
        theta = ds.get("theta").magnitude if ds.has("theta") else 0.0
        return Trajectory(tracks, timestep, theta)


def _msd_values(tracks: np.ndarray) -> list[float]:
    import numpy as np

    deltas = tracks - tracks[:, :1]
    return list(np.mean(deltas * deltas, axis=0))


def _fit_second_half(values: list[float]):
    """Least-squares slope over the series' second half plus a regime check.

    The check is the growth exponent of the window (slope of log MSD against
    log t): near 1 for diffusive transport, 2 for ballistic, below 1 once
    confinement saturates the walk. The residual is the exponent's distance
    from 1, so a linear fit far outside the diffusive regime gets flagged.
    """
    import numpy as np

    n = len(values)
    xs = np.arange(n // 2, n, dtype=float)
    ys = np.asarray(values[n // 2 :], dtype=float)
    slope, _ = np.polyfit(xs, ys, 1)
    if np.all(ys > 0.0):
        exponent = np.polyfit(np.log(xs), np.log(ys), 1)[0]
        residual = abs(float(exponent) - 1.0)
    else:
        residual = 0.0
    return float(slope), residual


_FIT_WARN_THRESHOLD = 0.5


def analysis_native(inputs: Dataset, params) -> str:
    """MSD and diffusivity of a trajectory, written as key-value text.

    Einstein relation: D = slope(MSD) / (2 d), in area per time. Its
    standard error comes from refitting walker groups (every groups-th
    walker) on their own.
    """
    import numpy as np

    traj = Trajectory.from_dataset(inputs)
    cell_length = inputs.get("cell_length").magnitude if inputs.has("cell_length") else 1.0
    groups = _int_param(params, "groups", "10")
    dim = _int_param(params, "einstein_dimensionality", "1")
    if traj.walkers < 2:
        raise BadParams("MSD needs at least 2 walkers to average over")
    if dim < 1:
        raise BadParams("dimensionality must be >= 1")
    tracks = traj.positions * cell_length
    msd_values = _msd_values(tracks)
    if len(msd_values) < 10:
        raise BadParams(f"need an MSD series of at least 10 points, got {len(msd_values)}")
    groups = min(groups, traj.walkers)
    if groups < 2:
        raise BadParams("need at least 2 walker groups for a standard error")
    slope, residual = _fit_second_half(msd_values)
    estimates = [
        _fit_second_half(_msd_values(tracks[g::groups]))[0] / (2.0 * dim) / traj.timestep
        for g in range(groups)
    ]
    se = float(np.std(estimates, ddof=1) / math.sqrt(groups))
    return _kv_text(
        "tsfit-kv",
        [
            ("diffusivity", format_number(slope / (2.0 * dim) / traj.timestep)),
            ("diffusivity_se", format_number(se)),
            ("fit_residual", format_number(residual)),
            ("fit_warning", format_number(1.0 if residual > _FIT_WARN_THRESHOLD else 0.0)),
            ("msd", ",".join(format_number(v) for v in msd_values)),
        ],
    )


def parse_analysis_native(text: str) -> Dataset:
    entries = _kv_parse(text, "tsfit-kv")
    msd_values = [float(tok) for tok in entries["msd"].split(",")]
    return Dataset.build(
        [
            Observable.scalar("diffusivity", float(entries["diffusivity"]), D_UNIT),
            Observable.scalar("diffusivity_se", float(entries["diffusivity_se"]), D_UNIT),
            Observable.scalar("fit_residual", float(entries["fit_residual"]), ONE),
            Observable.scalar("fit_warning", float(entries["fit_warning"]), ONE),
            Observable.series(
                "msd", [(float(t), v) for t, v in enumerate(msd_values)], ANGSTROM2
            ),
        ]
    )


# ---------------------------------------------------------------------------
# probe programs for plumbing tests: emit numeric params as observables
# ---------------------------------------------------------------------------


def _numeric_params(params) -> list[tuple[str, float]]:
    out = []
    for key in sorted(params):
        if key in RESERVED_PARAMS:
            continue
        try:
            out.append((key, float(params[key])))
        except ValueError:
            continue
    return out


def noop_native(params) -> str:
    entries = [(k, format_number(v)) for k, v in _numeric_params(params)]
    entries.append(("done", format_number(1.0)))
    return _kv_text("noop-kv", entries)


def parse_noop_native(text: str) -> Dataset:
    entries = _kv_parse(text, "noop-kv")
    obs = [
        Observable.scalar(k, float(v), ONE) for k, v in entries.items() if k != "format"
    ]
    return Dataset.build(obs)


def flip_native(params) -> str:
    """Converges on the Nth visit: emits converged=1 once the engine-supplied
    attempt counter reaches the converge_after parameter."""
    attempt = _int_param(params, "attempt", "1")
    target = _int_param(params, "converge_after", "3")
    entries = [(k, format_number(v)) for k, v in _numeric_params(params)]
    entries.append(("converged", format_number(1.0 if attempt >= target else 0.0)))
    return _kv_text("flip-kv", entries)


def parse_flip_native(text: str) -> Dataset:
    entries = _kv_parse(text, "flip-kv")
    obs = [
        Observable.scalar(k, float(v), ONE) for k, v in entries.items() if k != "format"
    ]
    return Dataset.build(obs)


# ---------------------------------------------------------------------------
# the program table the executor dispatches on
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimProgram:
    """A runnable mock: produce native text, then adapt it to a dataset."""

    name: str
    run: object  # (params: dict, inputs: dict[slot -> Dataset]) -> native str
    parse: object  # (native str) -> Dataset


PROGRAMS = {
    "latgen": SimProgram("latgen", lambda p, i: lattice_native(p), parse_lattice_native),
    "mcsim": SimProgram("mcsim", lambda p, i: cbmc_native(_merged(i), p), parse_cbmc_native),
    "gulpgc": SimProgram("gulpgc", lambda p, i: gcmc_native(_merged(i), p), parse_gcmc_native),
    "mdrun": SimProgram("mdrun", lambda p, i: md_native(_merged(i), p), parse_md_native),
    "tsfit": SimProgram("tsfit", lambda p, i: analysis_native(_merged(i), p), parse_analysis_native),
    "noop": SimProgram("noop", lambda p, i: noop_native(p), parse_noop_native),
    "flip": SimProgram("flip", lambda p, i: flip_native(p), parse_flip_native),
}


# ---------------------------------------------------------------------------
# simulated executor
# ---------------------------------------------------------------------------


class SimulatedExecutor:
    """Deterministic virtual-clock job runner over a resource registry.

    A job is its id (job-0001, job-0002, ... in submission order): submit
    returns it, poll and withdraw take it, and wait_any returns the ids it
    finished. Each wait_any call is one tick: it starts up to max_concurrent
    queued jobs per resource and finishes them within that tick, in
    seeded-shuffle order. A fault plan of (activity id, firing) pairs fails
    the submissions of that activity whose `attempt` param is that firing;
    the engine numbers firings across resumes. submit(req, result) queues a
    job that has its result already (a committed firing): it keeps its slot,
    job id and place in the shuffle, and finishes with that result, past the
    fault plan.
    """

    def __init__(self, registry: ResourceRegistry, store, seed: int = 0, fault_plan=()):
        self.registry = registry
        self.store = store
        self.seed = seed
        self.fault_plan = frozenset((a, str(int(n))) for a, n in fault_plan)
        self._jobs: dict[str, tuple[JobRequest, JobStatus]] = {}  # job id -> request, status
        self._queue: dict[str, list[str]] = {}
        self.clock = 0

    def submit(self, req: JobRequest, result=None) -> str:
        self.registry.get(req.resource_id)
        job_id = f"job-{len(self._jobs) + 1:04d}"
        self._jobs[job_id] = (req, JobStatus(QUEUED, result))
        self._queue.setdefault(req.resource_id, []).append(job_id)
        return job_id

    def poll(self, job_id: str) -> JobStatus:
        try:
            return self._jobs[job_id][1]
        except KeyError:
            raise UnknownJob(f"unknown job: {job_id}") from None

    def withdraw(self, job_id: str) -> JobStatus:
        status = self.poll(job_id)
        if status.state == QUEUED:
            req = self._jobs[job_id][0]
            self._queue[req.resource_id].remove(job_id)
            status = JobStatus(WITHDRAWN)
            self._jobs[job_id] = (req, status)
        return status

    def wait_any(self) -> list[str]:
        """One tick: the ids of the jobs it finishes in completion order, or
        [] when nothing is queued."""
        batch = []
        for rid in sorted(self._queue):
            cap = self.registry.get(rid).calculator.max_concurrent
            queue = self._queue[rid]
            batch.extend(queue[:cap])
            del queue[:cap]
        if not batch:
            return []
        self.clock += 1
        random.Random(f"{self.seed}:{self.clock}").shuffle(batch)
        for job_id in batch:
            req, status = self._jobs[job_id]
            self._jobs[job_id] = (req, self._finish(req, status.result))
        return batch

    def _finish(self, req: JobRequest, result) -> JobStatus:
        """The status a job ends its tick with; a `result` is a committed firing's."""
        if result is not None:
            return JobStatus(SUCCEEDED, result)
        firing = req.params.get("attempt")
        if (req.activity_id, firing) in self.fault_plan:
            return JobStatus(FAILED, reason=f"injected fault (occurrence {firing})")
        try:
            program = self.registry.get(req.resource_id).program
            sim = PROGRAMS.get(program)
            if sim is None:
                raise RuntimeFailure(f"no simulated behavior for program {program!r}")
            inputs = {slot: self.store.get_by_hash(h) for slot, h in req.inputs}
            return JobStatus(SUCCEEDED, sim.parse(sim.run(req.params, inputs)))
        except GridflowError as exc:
            return JobStatus(FAILED, reason=str(exc))


# ---------------------------------------------------------------------------
# the standard resource pool
# ---------------------------------------------------------------------------

_POOL = Path(__file__).with_name("pool")


@functools.cache
def standard_descriptors() -> tuple[ResourceDescriptor, ...]:
    """The simulated pool, one descriptor per mock program: the package's
    pool/*.xml files, read once per process. A package without them is
    broken, not a pool of none."""
    descriptors = tuple(read_descriptors(_POOL))
    if not descriptors:
        raise RuntimeFailure(f"standard pool {_POOL} holds no descriptor files (*.xml)")
    return descriptors


def standard_registry() -> ResourceRegistry:
    registry = ResourceRegistry()
    for descriptor in standard_descriptors():
        registry.register(descriptor)
    return registry

