"""Mock simulation programs, trajectory analysis, and the virtual-clock
executor."""

import hashlib
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridflow.errors import RuntimeFailure
from gridflow.model import verify
from gridflow.quantities import Dataset, Observable, get_unit, merge
from gridflow.resources import (
    FAILED,
    QUEUED,
    SUCCEEDED,
    WITHDRAWN,
    JobHandle,
    JobRequest,
    UnknownJob,
    parse_descriptor_xml,
    render_descriptor_xml,
)
from gridflow.simgrid import (
    _moves,
    BadParams,
    NoFreeSites,
    PROGRAMS,
    SimulatedExecutor,
    Trajectory,
    cbmc_native,
    flip_native,
    gcmc_native,
    lattice_native,
    analysis_native,
    md_native,
    noop_native,
    parse_flip_native,
    parse_analysis_native,
    parse_gcmc_native,
    parse_lattice_native,
    parse_md_native,
    parse_noop_native,
    standard_descriptors,
    standard_registry,
)
from gridflow.storage import ContentStore
from structure import case_study

ONE = get_unit("dimensionless")


def mock(program, *args):
    """mock(program, [upstream dataset,] params): one run of PROGRAMS[program],
    its native text then its adapter."""
    *upstream, params = args
    return stage(program, params, dict(enumerate(upstream)))


def stage(program, params, inputs):
    """One run of PROGRAMS[program] on named input slots, adapted."""
    sim = PROGRAMS[program]
    return sim.parse(sim.run(params, inputs))


def lattice(cells=10, cell_length=1.0):
    return mock("latgen", {"cells": str(cells), "cell_length": repr(cell_length)})


def config(occupied, n_sites, walkers, theta=None):
    """Hand-built md input: occupancy plus walker drop sites."""
    rows = [(float(i), 1.0 if i in occupied else 0.0) for i in range(n_sites)]
    obs = [
        Observable.table("occupancy", ("site", "occupied"), rows, ONE),
        Observable.scalar("n_sites", float(n_sites), ONE),
        Observable.series(
            "helium_positions", [(float(i), float(p)) for i, p in enumerate(walkers)], ONE
        ),
    ]
    if theta is not None:
        obs.append(Observable.scalar("theta", theta, ONE))
    return Dataset.build(obs)


class TestLattice:
    def test_sites_and_spacing(self):
        ds = lattice(5, 2.0)
        assert ds.get("n_sites").magnitude == 5.0
        assert ds.get("sites").cells.tolist() == [[0.0], [2.0], [4.0], [6.0], [8.0]]
        assert ds.get("cell_length").magnitude == 2.0
        assert ds.get("sites").unit.name == "angstrom"

    def test_native_round_trip(self):
        text = lattice_native({"cells": "4", "cell_length": "0.5"})
        ds = parse_lattice_native(text)
        assert ds.get("n_sites").magnitude == 4.0
        assert ds.get("cell_length").magnitude == 0.5

    def test_rejects_tiny_lattice(self):
        with pytest.raises(BadParams):
            mock("latgen", {"cells": "1"})

    def test_rejects_bad_spacing(self):
        with pytest.raises(BadParams):
            mock("latgen", {"cells": "4", "cell_length": "0"})

    def test_requires_cells(self):
        with pytest.raises(BadParams):
            mock("latgen", {})

    def test_rejects_non_numeric(self):
        with pytest.raises(BadParams):
            mock("latgen", {"cells": "many"})


class TestCbmc:
    def test_occupies_exact_fraction(self):
        ds = mock("mcsim", lattice(10), {"theta": "0.5", "seed": "3"})
        assert ds.get("n_occupied").magnitude == 5.0
        flags = ds.get("occupancy").cells[:, 1].tolist()
        assert len(flags) == 10 and sum(flags) == 5.0 and set(flags) <= {0.0, 1.0}

    def test_floor_rule(self):
        ds = mock("mcsim", lattice(7), {"theta": "0.5", "seed": "0"})
        assert ds.get("n_occupied").magnitude == 3.0

    def test_empty_and_full(self):
        assert mock("mcsim", lattice(6), {"theta": "0"}).get("n_occupied").magnitude == 0.0
        assert mock("mcsim", lattice(6), {"theta": "1"}).get("n_occupied").magnitude == 6.0

    def test_seed_determinism(self):
        a = cbmc_native(lattice(20), {"theta": "0.4", "seed": "9"})
        b = cbmc_native(lattice(20), {"theta": "0.4", "seed": "9"})
        c = cbmc_native(lattice(20), {"theta": "0.4", "seed": "10"})
        assert a == b
        assert a != c

    def test_theta_out_of_range(self):
        with pytest.raises(BadParams):
            mock("mcsim", lattice(), {"theta": "1.01"})
        with pytest.raises(BadParams):
            mock("mcsim", lattice(), {"theta": "-0.1"})

    @given(st.integers(2, 30), st.floats(0.0, 1.0, allow_nan=False), st.integers(0, 99))
    @settings(max_examples=60, deadline=None)
    def test_count_matches_floor(self, cells, theta, seed):
        ds = mock("mcsim", lattice(cells), {"theta": repr(theta), "seed": str(seed)})
        assert ds.get("n_occupied").magnitude == float(int(theta * cells))


class TestGcmc:
    def test_walkers_on_free_sites_only(self):
        occ = mock("mcsim", lattice(12), {"theta": "0.5", "seed": "2"})
        blocked = {int(s) for s, f in occ.get("occupancy").cells.tolist() if f}
        assert len(blocked) == 6
        for seed in range(100):
            gc = mock("gulpgc", occ, {"n_helium": "8", "seed": str(seed)})
            drops = {int(p) for _, p in gc.get("helium_positions").values}
            assert drops.isdisjoint(blocked)

    def test_walker_count(self):
        gc = mock("gulpgc", mock("mcsim", lattice(), {"theta": "0"}), {"n_helium": "17"})
        assert gc.get("n_walkers").magnitude == 17.0
        assert len(gc.get("helium_positions").values) == 17

    def test_full_lattice_has_no_room(self):
        occ = mock("mcsim", lattice(6), {"theta": "1"})
        with pytest.raises(NoFreeSites):
            mock("gulpgc", occ, {"n_helium": "1"})

    def test_needs_at_least_one_walker(self):
        with pytest.raises(BadParams):
            mock("gulpgc", mock("mcsim", lattice(), {"theta": "0"}), {"n_helium": "0"})

    def test_native_round_trip(self):
        occ = mock("mcsim", lattice(9), {"theta": "0.3", "seed": "1"})
        text = gcmc_native(occ, {"n_helium": "5", "seed": "4"})
        ds = parse_gcmc_native(text)
        assert ds.get("n_walkers").magnitude == 5.0
        assert ds.get("n_sites").magnitude == 9.0


class TestMd:
    def test_free_walk_moves_every_step(self):
        ds = mock("mdrun", config(set(), 10, [5, 5, 5]), {"steps": "30", "seed": "1"})
        traj = Trajectory.from_dataset(ds)
        for track in traj.positions:
            assert all(abs(b - a) == 1 for a, b in zip(track, track[1:]))

    def test_trapped_walker_never_moves(self):
        # both neighbors blocked (folded), so every move is rejected
        ds = mock("mdrun", config({1, 3}, 4, [2]), {"steps": "25", "seed": "7"})
        (track,) = Trajectory.from_dataset(ds).positions
        assert set(track) == {2}

    def test_positions_unwrapped(self):
        # a free ring walk may drift past the cell boundary without folding
        ds = mock("mdrun", config(set(), 3, [0] * 50), {"steps": "40", "seed": "3"})
        spread = {p for track in Trajectory.from_dataset(ds).positions for p in track}
        assert min(spread) < 0 or max(spread) > 2

    def test_blocking_respects_fold(self):
        # site L-1 blocked: a walker at 0 can never step to -1 (folds to L-1)
        ds = mock("mdrun", config({9}, 10, [0] * 20), {"steps": "15", "seed": "5"})
        for track in Trajectory.from_dataset(ds).positions:
            assert -1 not in track

    def test_carries_theta_and_timestep(self):
        ds = mock("mdrun", config({1}, 5, [0], theta=0.2), {"steps": "3", "seed": "0"})
        assert ds.get("theta").magnitude == 0.2
        assert ds.get("timestep").unit.name == "ps"

    def test_native_round_trip_with_negatives(self):
        ds = mock("mdrun", config(set(), 4, [0, 1]), {"steps": "60", "seed": "11"})
        text = md_native(config(set(), 4, [0, 1]), {"steps": "60", "seed": "11"})
        again = parse_md_native(text)
        cells = ds.get("trajectory").cells
        assert cells.shape == (61, 3) and cells.min() < 0
        assert cells.tobytes() == again.get("trajectory").cells.tobytes()

    def test_rejects_bad_steps(self):
        with pytest.raises(BadParams):
            mock("mdrun", config(set(), 4, [0]), {"steps": "0"})

    def test_rejects_empty_walkers(self):
        with pytest.raises(BadParams):
            mock("mdrun", config(set(), 4, []), {"steps": "5"})

    def test_rejects_zero_sites(self):
        # a walk on no sites has nothing to fold onto; it must fail the job,
        # not crash the run with an IndexError
        with pytest.raises(BadParams, match="no sites"):
            mock("mdrun", config(set(), 0, [0]), {"steps": "5", "seed": "1"})

    @given(st.integers(0, 50), st.floats(0.0, 0.8, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_single_step_moves_bounded(self, seed, theta):
        occ = mock("mcsim", lattice(20), {"theta": repr(theta), "seed": str(seed)})
        gc = mock("gulpgc", occ, {"n_helium": "6", "seed": str(seed)})
        ds = mock("mdrun", merge([occ, gc]), {"steps": "12", "seed": str(seed)})
        for track in Trajectory.from_dataset(ds).positions:
            assert all(abs(b - a) <= 1 for a, b in zip(track, track[1:]))


def study_inputs(cells, theta, walkers, seed):
    """Occupancy and walker drop sites from the mocks upstream, one seed throughout."""
    occ = mock("mcsim", lattice(cells), {"theta": repr(theta), "seed": str(seed)})
    return occ, mock("gulpgc", occ, {"n_helium": str(walkers), "seed": str(seed)})


def study_native(cells, theta, walkers, steps, seed):
    occ, gc = study_inputs(cells, theta, walkers, seed)
    return md_native(merge([gc, occ]), {"steps": str(steps), "seed": str(seed)})


def reference_walk(walkers, occupied, n_sites, steps, seed):
    """The walk one rng.choice at a time, walker by walker, step by step."""
    rng = random.Random(seed)
    trail, current = [[p] for p in walkers], list(walkers)
    for _ in range(steps):
        for w in range(len(current)):
            move = rng.choice((-1, 1))
            if (current[w] + move) % n_sites not in occupied:
                current[w] += move
            trail[w].append(current[w])
    return tuple(map(tuple, trail))


class CountingRandom(random.Random):
    """random.Random that counts its getrandbits calls."""

    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


class TestBlockDraw:
    @pytest.mark.parametrize("seed", (0, 1, 2**40 + 7))
    @pytest.mark.parametrize("n", (1, 36, 855))
    def test_equals_choice(self, seed, n):
        rng = random.Random(seed)
        expected = [rng.choice((-1, 1)) for _ in range(n)]
        assert _moves(random.Random(seed), n).tolist() == expected

    def test_second_block_continues_the_sequence(self):
        # seed 1 keeps fewer than 855 values from the first block it draws
        rng = CountingRandom(1)
        drawn = _moves(rng, 855).tolist()
        assert rng.calls > 1
        ref = random.Random(1)
        assert drawn == [ref.choice((-1, 1)) for _ in range(855)]

    # sha-256 of md_native text, recorded from the one-choice-at-a-time walk
    @pytest.mark.parametrize(
        "study, digest",
        [
            ((64, 0.0, 50, 500, 1), "20fc21db2b7492850ab0623d8aaba851214559d526d0ffdfecce81bdc24d2a2c"),
            ((16, 0.3, 7, 97, 5), "17e9cfe233ceeeb0925f1583082acc3b071a9083e251ab32f75e57560ee89aa6"),
            ((6, 0.3, 3, 12, 9), "74d6308e15316b82506bc8096a7c1acced35b133e15f7605db593b4e9e372e35"),
            ((256, 0.5, 200, 300, 3), "a8cf1aaab48bd0c8223e705b958eaf3c6f2af6e3e9aa17862456ed52d055975d"),
            ((5, 0.9, 1, 1, 2), "8f1c23c004da39de0435c555aa19d676735b1ccea846141a7554b926669ea83f"),
            ((40, 0.6, 13, 1000, 77), "03aed80abd47c6bf020afac115632ebb271c6cf3535d1d8fe1c8dc95d05969a6"),
        ],
    )
    def test_native_text_is_pinned(self, study, digest):
        assert hashlib.sha256(study_native(*study).encode()).hexdigest() == digest

    @given(st.integers(2, 30), st.floats(0.0, 0.9, allow_nan=False), st.integers(1, 8),
           st.integers(1, 40), st.integers(0, 2**48))
    @settings(max_examples=60, deadline=None)
    def test_walk_matches_reference(self, cells, theta, walkers, steps, seed):
        occ, gc = study_inputs(cells, theta, walkers, seed)
        ds = mock("mdrun", merge([gc, occ]), {"steps": str(steps), "seed": str(seed)})
        occupied = {int(s) for s, flag in occ.get("occupancy").cells.tolist() if flag}
        starts = [int(p) for _, p in gc.get("helium_positions").values]
        expected = reference_walk(starts, occupied, cells, steps, seed)
        assert Trajectory.from_dataset(ds).positions.tolist() == list(map(list, expected))


class TestMdNativeErrors:
    TEXT = md_native(config({2}, 6, [0, 4]), {"steps": "3", "seed": "1"})

    def edited(self, lineno, edit):
        lines = self.TEXT.splitlines()
        lines[lineno] = edit(lines[lineno])
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize(
        "text, reason",
        [
            (TEXT.replace("MDRUN", "MDRAN"), "bad banner"),
            ("\n".join(TEXT.splitlines()[:5]) + "\n", "missing column header"),
            (TEXT.replace("WALKERS  2", "WALKERS  two"), r"malformed text \(ValueError"),
            (TEXT.replace("STEPS    3\n", ""), r"malformed text \(KeyError\('STEPS'\)\)"),
            (TEXT.rstrip("\n").rsplit("\n", 1)[0] + "\n", "expected 4 rows of 3 cells"),
        ],
        ids=("banner", "no-column-header", "bad-walkers", "no-steps", "missing-row"),
    )
    def test_header_and_shape(self, text, reason):
        with pytest.raises(RuntimeFailure, match=f"trajectory output: {reason}"):
            parse_md_native(text)

    def test_non_numeric_cell(self):
        text = self.edited(7, lambda line: line[:12] + "         abc" + line[24:])
        with pytest.raises(RuntimeFailure, match="malformed text .*could not convert"):
            parse_md_native(text)

    @pytest.mark.parametrize("edit", (lambda line: line[:-1], lambda line: line + " "))
    def test_row_of_the_wrong_width(self, edit):
        with pytest.raises(RuntimeFailure, match="trajectory output: expected 4 rows of 3 cells"):
            parse_md_native(self.edited(8, edit))

    def test_non_ascii_cell(self):
        text = self.edited(7, lambda line: line[:12] + "           \u0661" + line[24:])
        with pytest.raises(RuntimeFailure, match="trajectory output"):
            parse_md_native(text)


class TestTrajectory:
    def test_validates_jump(self):
        with pytest.raises(BadParams):
            Trajectory(((0, 2),))

    def test_validates_ragged(self):
        with pytest.raises(BadParams):
            Trajectory(((0, 1), (0, 1, 2)))

    def test_validates_single_sample(self):
        with pytest.raises(BadParams):
            Trajectory(((3,),))

    def test_validates_theta(self):
        with pytest.raises(BadParams):
            Trajectory(((0, 1),), theta=1.5)

    def test_from_dataset_orders_rows(self):
        rows = [(1.0, 1.0), (0.0, 0.0), (2.0, 2.0)]
        ds = Dataset.build(
            [Observable.table("trajectory", ("t", "w0"), rows, ONE)]
        )
        assert Trajectory.from_dataset(ds).positions.tolist() == [[0, 1, 2]]

    def test_positions_are_one_read_only_int_array(self):
        source = [[0, 1, 2], [5, 4, 4]]
        traj = Trajectory(source)
        assert traj.positions.dtype == np.int64 and traj.positions.shape == (2, 3)
        assert (traj.walkers, traj.steps) == (2, 2)
        with pytest.raises(ValueError):
            traj.positions[0, 0] = 9
        assert source == [[0, 1, 2], [5, 4, 4]]

    def test_validates_empty_positions(self):
        for positions in ((), ((), ())):
            with pytest.raises(BadParams):
                Trajectory(positions)


def analysed(walks, cell_length=None, **params):
    """The analysis stage (PROGRAMS["tsfit"], then parse_analysis_native)
    over walker tracks, one tuple of positions per walker."""
    columns = ("t",) + tuple(f"w{w}" for w in range(len(walks)))
    rows = [(float(t),) + tuple(map(float, sample)) for t, sample in enumerate(zip(*walks))]
    obs = [Observable.table("trajectory", columns, rows, ONE)]
    if cell_length is not None:
        obs.append(Observable.scalar("cell_length", cell_length, get_unit("angstrom")))
    return mock("tsfit", Dataset.build(obs), params)


def msd_of(out):
    return [v for _, v in out.get("msd").values]


class TestAnalysis:
    def test_msd_free_ensemble_is_exact(self):
        # every sign sequence of length 9 once: the ensemble mean square
        # displacement of the free walk is exactly t
        walks = [tuple(itertools.accumulate(signs, initial=0))
                 for signs in itertools.product((-1, 1), repeat=9)]
        assert msd_of(analysed(walks)) == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]

    def test_msd_scales_with_cell_length(self):
        walks = (tuple(range(10)), tuple(range(0, -10, -1)))
        assert msd_of(analysed(walks, cell_length=2.0)) == [4.0 * t * t for t in range(10)]

    def test_msd_needs_two_walkers(self):
        with pytest.raises(BadParams, match="at least 2 walkers"):
            analysed(((0, 1),))

    def test_free_walk_diffusivity_near_half(self):
        lat = lattice(50)
        occ = mock("mcsim", lat, {"theta": "0", "seed": "0"})
        gc = mock("gulpgc", occ, {"n_helium": "1000", "seed": "5"})
        tr = mock("mdrun", merge([occ, gc]), {"steps": "200", "seed": "11"})
        fit = mock("tsfit", tr, {})
        assert 0.45 <= fit.get("diffusivity").magnitude <= 0.55
        assert fit.get("fit_warning").magnitude == 0.0

    def test_ballistic_walk_warns_but_reports(self):
        fit = analysed([tuple(range(41))] * 4)
        assert fit.get("fit_warning").magnitude == 1.0
        assert fit.get("diffusivity").magnitude == pytest.approx(30.0)

    def test_stationary_walk_is_zero(self):
        fit = analysed([(4,) * 21] * 3)
        assert fit.get("diffusivity").magnitude == 0.0
        assert fit.get("fit_warning").magnitude == 0.0

    def test_short_series_rejected(self):
        with pytest.raises(BadParams, match="at least 10 points"):
            analysed(((0, 1, 0, 1, 0), (0, -1, 0, -1, 0)))

    def test_unit_is_area_per_time(self):
        fit = analysed([(0,) + (1,) * 20] * 2)
        assert fit.get("diffusivity").unit.name == "angstrom^2/ps"

    def test_se_needs_two_groups(self):
        with pytest.raises(BadParams, match="at least 2 walker groups"):
            analysed(((0, 1) * 8, (0, -1) * 8), groups="1")

    def test_se_shrinks_with_more_walkers(self):
        lat = lattice(30)
        occ = mock("mcsim", lat, {"theta": "0", "seed": "0"})

        def se_at(n):
            gc = mock("gulpgc", occ, {"n_helium": str(n), "seed": "2"})
            tr = mock("mdrun", merge([occ, gc]), {"steps": "40", "seed": "3"})
            return mock("tsfit", tr, {}).get("diffusivity_se").magnitude

        assert se_at(2000) < se_at(100)

    def test_group_estimates_match_per_group_conversion(self):
        # converting the positions once and slicing per group gives each
        # group the same float values as converting that group on its own
        lat = lattice(30)
        occ = mock("mcsim", lat, {"theta": "0.3", "seed": "4"})
        gc = mock("gulpgc", occ, {"n_helium": "37", "seed": "4"})
        traj = Trajectory.from_dataset(mock("mdrun", merge([occ, gc]), {"steps": "60", "seed": "4"}))
        for g in range(10):
            sliced = traj.positions[g::10] * 2.5
            rebuilt = np.asarray(traj.positions.tolist()[g::10], dtype=float) * 2.5
            assert sliced.tobytes() == rebuilt.tobytes()

    def test_full_stage_native_round_trip(self):
        lat = lattice(20)
        occ = mock("mcsim", lat, {"theta": "0.2", "seed": "1"})
        gc = mock("gulpgc", occ, {"n_helium": "40", "seed": "2"})
        tr = mock("mdrun", merge([occ, gc]), {"steps": "30", "seed": "3"})
        out = parse_analysis_native(analysis_native(merge([tr, lat]), {"groups": "5"}))
        for name in ("diffusivity", "diffusivity_se", "fit_residual", "fit_warning", "msd"):
            assert out.has(name)
        assert out.get("diffusivity").unit.name == "angstrom^2/ps"

    def test_stage_sweep_is_pinned(self):
        # the chained stages over 90 small studies, then the analysis text
        # (or its refusal) at three group counts: 270 outputs, 126 refused
        outs = []
        for seed, theta in itertools.product(range(30), ("0", "0.3", "0.6")):
            lat = stage("latgen", {"cells": str(12 + seed), "cell_length": "2.5" if seed % 2 else "1.0"}, {})
            occ = stage("mcsim", {"theta": theta, "seed": str(seed)}, {"lattice": lat})
            gc = stage("gulpgc", {"n_helium": str(1 + seed % 7), "seed": str(seed)}, {"occupancy": occ})
            md = stage("mdrun", {"steps": str(7 + seed), "seed": str(seed)}, {"occ": occ, "gc": gc})
            for g in ("10", "2", "1"):
                try:
                    outs.append(PROGRAMS["tsfit"].run({"groups": g}, {"a": lat, "b": md}))
                except BadParams as exc:
                    outs.append(f"{type(exc).__name__}: {exc}")
        assert sum(o.startswith("BadParams: ") for o in outs) == 126
        digest = hashlib.sha256("\n".join(outs).encode()).hexdigest()
        assert digest == "1307f593f3e44d33f9d9b204a0100bd3c379568c536bda14f02adef9e4cb6f8b"


class TestProbePrograms:
    def test_noop_echoes_numeric_params(self):
        ds = parse_noop_native(noop_native({"alpha": "2.5", "name": "x", "seed": "9"}))
        assert ds.get("alpha").magnitude == 2.5
        assert ds.get("done").magnitude == 1.0
        assert not ds.has("seed")
        assert not ds.has("name")

    def test_flip_converges_on_schedule(self):
        early = parse_flip_native(flip_native({"attempt": "1", "converge_after": "3"}))
        late = parse_flip_native(flip_native({"attempt": "3", "converge_after": "3"}))
        assert early.get("converged").magnitude == 0.0
        assert late.get("converged").magnitude == 1.0

    def test_flip_default_schedule(self):
        assert parse_flip_native(flip_native({"attempt": "5"})).get("converged").magnitude == 1.0

    def test_every_program_parses_its_own_output(self):
        lat = lattice(8)
        occ = mock("mcsim", lat, {"theta": "0.25", "seed": "0"})
        gc = mock("gulpgc", occ, {"n_helium": "3", "seed": "0"})
        tr = mock("mdrun", merge([occ, gc]), {"steps": "16", "seed": "0"})
        feeds = {
            "latgen": ({"cells": "8"}, {}),
            "mcsim": ({"theta": "0.25", "seed": "0"}, {"lattice": lat}),
            "gulpgc": ({"n_helium": "3", "seed": "0"}, {"occupancy": occ}),
            "mdrun": ({"steps": "16", "seed": "0"}, {"occupancy": occ, "config": gc}),
            "tsfit": ({}, {"trajectory": tr, "cell": lat}),
            "noop": ({"k": "1"}, {}),
            "flip": ({"attempt": "1"}, {}),
        }
        assert set(feeds) == set(PROGRAMS)
        for name, (params, inputs) in feeds.items():
            sim = PROGRAMS[name]
            ds = sim.parse(sim.run(params, inputs))
            assert isinstance(ds, Dataset)
            assert ds.names


def make_executor(tmp_path, **kw):
    store = ContentStore(tmp_path / "store")
    return SimulatedExecutor(standard_registry(), store, **kw), store


def probe(activity, params=(), resource="noop@sandbox-01"):
    return JobRequest.build(resource, activity, "run-x", (), params)


class TestExecutor:
    def test_runs_a_job_to_completion(self, tmp_path):
        ex, _ = make_executor(tmp_path)
        handle = ex.submit(probe("a", {"k": "2.0"}))
        assert ex.poll(handle).state == QUEUED
        done = ex.wait_any()
        assert done == [handle]
        status = ex.poll(handle)
        assert status.state == SUCCEEDED
        assert status.result.get("k").magnitude == 2.0

    def test_inputs_come_from_the_store(self, tmp_path):
        ex, store = make_executor(tmp_path)
        lat = lattice(6)
        store.claim({}, "run-x")
        with store.driving("run-x"):
            key = store.put(lat, "run-x", "lattice")
        req = JobRequest.build(
            "mcsim@mc-farm-01", "cbmc", "run-x",
            {"lattice": key.hash}, {"theta": "0.5", "seed": "1"},
        )
        handle = ex.submit(req)
        ex.wait_any()
        assert ex.poll(handle).result.get("n_occupied").magnitude == 3.0

    def test_equal_seed_means_equal_order(self, tmp_path):
        def completion_order(seed):
            ex, _ = make_executor(tmp_path / f"s{seed}", seed=seed)
            by_handle = {}
            for i in range(8):
                by_handle[ex.submit(probe(f"a{i}"))] = f"a{i}"
            order = []
            while True:
                done = ex.wait_any()
                if not done:
                    return order
                order.extend(by_handle[h] for h in done)

        assert completion_order(7) == completion_order(7)

    def test_tie_break_depends_on_seed(self, tmp_path):
        orders = set()
        for seed in range(10):
            ex, _ = make_executor(tmp_path / f"s{seed}", seed=seed)
            handles = {ex.submit(probe(f"a{i}")): f"a{i}" for i in range(4)}
            orders.add(tuple(handles[h] for h in ex.wait_any()))
        assert len(orders) > 1

    def test_capacity_batches_completions(self, tmp_path):
        ex, _ = make_executor(tmp_path)
        for i in range(6):
            ex.submit(probe(f"a{i}"))  # sandbox calculator runs 4 wide
        assert len(ex.wait_any()) == 4
        assert len(ex.wait_any()) == 2
        assert ex.wait_any() == []

    def test_fault_plan_hits_exact_occurrence(self, tmp_path):
        # the occurrence is the firing the engine sends as the `attempt` param
        ex, _ = make_executor(tmp_path, fault_plan=[("a", 2)])
        first = ex.submit(probe("a", {"attempt": "1"}))
        ex.wait_any()
        second = ex.submit(probe("a", {"attempt": "2"}))
        ex.wait_any()
        third = ex.submit(probe("a", {"attempt": "3"}))
        ex.wait_any()
        assert ex.poll(first).state == SUCCEEDED
        assert ex.poll(second).state == FAILED
        assert "occurrence 2" in ex.poll(second).reason
        assert ex.poll(third).state == SUCCEEDED

    def test_bad_params_fail_the_job(self, tmp_path):
        ex, _ = make_executor(tmp_path)
        handle = ex.submit(
            JobRequest.build("latgen@struct-01", "lattice", "run-x", (), {"cells": "1"})
        )
        ex.wait_any()
        status = ex.poll(handle)
        assert status.state == FAILED
        assert "2 sites" in status.reason

    def test_withdraw_queued_job(self, tmp_path):
        ex, _ = make_executor(tmp_path)
        keep = ex.submit(probe("keep"))
        for i in range(4):
            ex.submit(probe(f"fill{i}"))
        drop = ex.submit(probe("drop"))  # still queued behind capacity
        assert ex.withdraw(drop).state == WITHDRAWN
        done = []
        while True:
            batch = ex.wait_any()
            if not batch:
                break
            done.extend(batch)
        assert drop not in done
        assert keep in done
        assert ex.withdraw(keep).state == SUCCEEDED  # terminal: no-op

    def test_unknown_job(self, tmp_path):
        ex, _ = make_executor(tmp_path)
        with pytest.raises(UnknownJob):
            ex.poll(JobHandle("job-9999", "noop@sandbox-01"))

    def test_idle_wait_returns_nothing(self, tmp_path):
        ex, _ = make_executor(tmp_path)
        assert ex.wait_any() == []


class TestStandardPool:
    def test_descriptor_xml_round_trip(self):
        for d in standard_descriptors():
            assert parse_descriptor_xml(render_descriptor_xml(d)) == d

    def test_case_study_is_sound(self):
        report = verify(case_study())
        assert report.sound
        assert report.findings == ()

    def test_case_study_binds_to_pool(self):
        g = case_study()
        registry = standard_registry()
        expected = {
            "lattice": "latgen@struct-01",
            "cbmc": "mcsim@mc-farm-01",
            "gcmc": "gulpgc@mc-farm-02",
            "md": "mdrun@hpc-01",
            "analysis": "tsfit@desk-01",
        }
        for activity, resource in expected.items():
            hits = registry.discover(g.node(activity).binding)
            assert hits[0] == resource, activity

    def test_probe_programs_have_open_licenses(self):
        kinds = {d.id: d.license.kind for d in standard_descriptors()}
        assert kinds["noop@sandbox-01"] == "open"
        assert kinds["mcsim@mc-farm-01"] == "academic"
        assert kinds["mdrun@hpc-01"] == "academic"
