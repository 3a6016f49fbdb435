"""Cross-module invariants, property-tested.

Each invariant here is relied on by at least one other module; a
regression anywhere in the DP/seeding substrate shows up as one of
these failing before the integration tests do.
"""

import ast
import importlib
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import banded
from repro.align.scoring import BWA_MEM_SCORING
from repro.genome.sequence import random_sequence
from repro.seeding.chaining import chain_seeds
from repro.seeding.fmindex import FMIndex
from repro.seeding.mems import seed_read
from repro.seeding.suffixarray import build_suffix_array, sa_interval

SEQ = st.lists(st.integers(0, 3), min_size=1, max_size=20).map(
    lambda xs: np.array(xs, dtype=np.uint8)
)


class TestExtensionResultInvariants:
    @settings(max_examples=200, deadline=None)
    @given(q=SEQ, t=SEQ, h0=st.integers(1, 40), w=st.integers(1, 12))
    def test_score_relations(self, q, t, h0, w):
        """lscore >= h0, lscore >= gscore >= 0; positions in range;
        max_off bounded by the band."""
        res = banded.extend(q, t, BWA_MEM_SCORING, h0, w=w)
        assert res.lscore >= h0
        assert res.lscore >= res.gscore >= 0
        i, j = res.lpos
        assert 0 <= i <= len(t) and 0 <= j <= len(q)
        assert abs(i - j) <= w
        if res.gpos >= 0:
            assert abs(res.gpos - len(q)) <= w
        assert res.max_off <= w

    @settings(max_examples=100, deadline=None)
    @given(q=SEQ, t=SEQ, h0=st.integers(1, 40))
    def test_gscore_dead_iff_gpos_missing(self, q, t, h0):
        res = banded.extend(q, t, BWA_MEM_SCORING, h0)
        assert (res.gscore == 0) == (res.gpos == -1) or res.gscore > 0

    @settings(max_examples=100, deadline=None)
    @given(q=SEQ, t=SEQ, h0=st.integers(1, 30), w=st.integers(1, 8))
    def test_boundary_e_bounded_by_scores(self, q, t, h0, w):
        """Boundary E values cannot exceed the in-band local best
        (E <= H everywhere, and the boundary reads in-band state)."""
        res = banded.extend(q, t, BWA_MEM_SCORING, h0, w=w)
        for value in res.boundary_e:
            assert 0 <= value <= res.lscore


class TestSeedingInvariants:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_fmindex_and_suffix_array_agree(self, data):
        text = data.draw(
            st.lists(st.integers(0, 3), min_size=4, max_size=40).map(
                lambda xs: np.array(xs, dtype=np.uint8)
            )
        )
        fm = FMIndex(text)
        sa = build_suffix_array(text)
        m = data.draw(st.integers(1, min(6, len(text))))
        start = data.draw(st.integers(0, len(text) - m))
        pat = text[start : start + m]
        lo, hi = sa_interval(text, sa, pat)
        assert fm.count(pat) == hi - lo
        assert fm.find(pat) == sorted(int(sa[k]) for k in range(lo, hi))

    def test_seeds_report_true_matches_and_chains_are_colinear(self):
        rng = np.random.default_rng(11)
        ref = random_sequence(4000, rng)
        fm = FMIndex(ref)
        read = ref[1200:1300].copy()
        read[40] = (read[40] + 1) % 4
        seeds = seed_read(fm, read, min_seed_length=12)
        assert seeds
        for s in seeds:
            assert (
                read[s.qbegin : s.qend]
                == ref[s.rbegin : s.rbegin + s.length]
            ).all()
        for chain in chain_seeds(seeds):
            ordered = chain.seeds
            for a, b in zip(ordered, ordered[1:]):
                assert a.qend <= b.qbegin
                assert a.rbegin + a.length <= b.rbegin


class TestBandMonotonicity:
    @settings(max_examples=80, deadline=None)
    @given(q=SEQ, t=SEQ, h0=st.integers(1, 30), data=st.data())
    def test_scores_monotone_in_band(self, q, t, h0, data):
        w1 = data.draw(st.integers(1, 10))
        w2 = data.draw(st.integers(w1, 14))
        narrow = banded.extend(q, t, BWA_MEM_SCORING, h0, w=w1)
        wide = banded.extend(q, t, BWA_MEM_SCORING, h0, w=w2)
        assert wide.lscore >= narrow.lscore
        assert wide.gscore >= narrow.gscore


class TestBenchmarkStageTable:
    def test_every_layer_entry_resolves_to_a_callable(self):
        """perfbench attributes time by wrapping ``(module, qualname)``
        entry points; a renamed or deleted one must fail here, before
        it orphans a benchmark row."""
        root = Path(__file__).resolve().parent.parent
        if not (root / "perfbench" / "layers.py").exists():
            pytest.skip("no perfbench/ beside this checkout")
        sys.path.insert(0, str(root))
        try:
            entries = importlib.import_module("perfbench.layers").ENTRIES
        finally:
            sys.path.remove(str(root))
        assert entries
        for entry in entries:
            owner = importlib.import_module(entry.module)
            for part in entry.qualname.split("."):
                owner = getattr(owner, part)
            assert callable(owner), f"{entry.module}:{entry.qualname}"


class TestOneProcessRunner:
    def test_src_has_no_pool_and_one_process_spawn_site(self):
        """Multi-process work has one home, the supervised runner in
        ``aligner/parallel.py``: an unsupervised ``Pool`` hangs forever
        on a SIGKILLed worker, and a second ``Process`` spawn site is a
        second runner to keep crash-safe."""
        src = Path(__file__).resolve().parent.parent / "src" / "repro"
        text = {path: path.read_text() for path in src.rglob("*.py")}
        assert [p for p, body in text.items() if "Pool(" in body] == []
        sites = {
            path.relative_to(src).as_posix(): body.count(".Process(")
            for path, body in text.items()
            if ".Process(" in body
        }
        assert sites == {"aligner/parallel.py": 1}


class TestOneMeasurementSystem:
    def test_no_second_bench_gate_in_src_benchmarks_or_cli(self, capsys):
        """``perfbench/`` is the only throughput instrument.  The system
        it replaced was a ``repro.bench`` package fed by ``tier1_bench``
        hooks in ``benchmarks/`` behind a ``bench`` subcommand; it timed
        layers no benchmarked command runs, and none of its three parts
        may grow back."""
        from repro.cli import build_parser

        root = Path(__file__).resolve().parent.parent
        src = root / "src" / "repro"
        imports_bench = re.compile(
            r"^\s*(?:from|import)\s+[\w.]*\bbench\b", re.MULTILINE
        )
        assert [
            path.relative_to(src).as_posix()
            for path in src.rglob("*.py")
            if "bench" in path.relative_to(src).with_suffix("").parts
            or imports_bench.search(path.read_text())
        ] == []
        assert [
            path.name
            for path in (root / "benchmarks").glob("*.py")
            if "def tier1_bench" in path.read_text()
        ] == []
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["bench"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err


def _imported_modules(path: Path) -> set[str]:
    """Every module ``path`` imports, ``from pkg import mod`` included
    as ``pkg.mod`` (so a submodule pulled in by name is seen)."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module)
            found.update(f"{node.module}.{a.name}" for a in node.names)
    return found


class TestKernelBackendsOwnTheFillsOnly:
    def test_protocol_is_the_four_dp_fills(self):
        """A backend is a DP fill, nothing else: the optimality checks
        have one implementation each in ``core/`` and no selector."""
        from repro.kernels import KernelBackend

        methods = {
            name
            for name, value in vars(KernelBackend).items()
            if callable(value) and not name.startswith("_")
        }
        assert methods == {
            "extend", "extend_batch", "overlap", "overlap_batch"
        }

    def test_wavefront_module_has_one_importer(self):
        """Only the registry reaches the wavefront backend, so retiring
        it is one file plus one registry line."""
        root = Path(__file__).resolve().parent.parent
        importers = sorted(
            path.relative_to(root).as_posix()
            for top in ("src", "tests", "benchmarks", "examples", "tools")
            for path in (root / top).rglob("*.py")
            if "repro.kernels.wavefront" in _imported_modules(path)
        )
        assert importers == ["src/repro/kernels/__init__.py"]

    def test_checks_do_not_import_kernels(self):
        """The checks never extend, so they must not resolve a backend
        (and with it ``$REPRO_KERNEL``)."""
        core = Path(__file__).resolve().parent.parent / "src/repro/core"
        for name in ("checker.py", "editcheck.py"):
            imported = _imported_modules(core / name)
            assert [
                m for m in imported
                if m == "repro.kernels" or m.startswith("repro.kernels.")
            ] == [], name


class TestOneLockstepRecurrence:
    def test_the_other_renditions_are_gone(self):
        """The row-lockstep extension module and the overlap bucket
        sweep were two more copies of the same recurrence."""
        from repro.align import overlapdp

        with pytest.raises(ImportError):
            importlib.import_module("repro.align.batchdp")
        assert not hasattr(overlapdp, "_lockstep_bucket")

    def test_one_function_holds_the_row_update(self):
        """Only ``lockstep.sweep`` runs a jobs x columns F scan under
        ``align/``: the H/E/F row update has one home."""
        align = Path(__file__).resolve().parent.parent / "src/repro/align"
        owners = set()
        for path in sorted(align.glob("*.py")):
            for fn in ast.walk(ast.parse(path.read_text())):
                if not isinstance(fn, ast.FunctionDef):
                    continue
                for node in ast.walk(fn):
                    if (
                        isinstance(node, ast.Call)
                        and ast.unparse(node.func).endswith(
                            "maximum.accumulate"
                        )
                        and any(
                            kw.arg == "axis" and ast.unparse(kw.value) == "1"
                            for kw in node.keywords
                        )
                    ):
                        owners.add(f"{path.stem}.{fn.name}")
        assert owners == {"lockstep.sweep"}

    def test_every_batched_dp_runs_the_one_sweep(self, monkeypatch):
        from repro.align import (
            fullmatrix,
            globalband,
            globalbatch,
            lockstep,
            overlapdp,
        )
        from repro.kernels.scalar import ScalarKernel
        from repro.kernels.striped import StripedKernel

        calls: list[str] = []
        sweep = lockstep.sweep

        def counting(*args, **kwargs):
            calls.append("sweep")
            return sweep(*args, **kwargs)

        monkeypatch.setattr(lockstep, "sweep", counting)
        rng = np.random.default_rng(3)
        q = rng.integers(0, 4, 12).astype(np.uint8)
        t = rng.integers(0, 4, 14).astype(np.uint8)
        s = BWA_MEM_SCORING
        callers = {
            "ScalarKernel.extend_batch": lambda: ScalarKernel().extend_batch(
                [q], [t], [10], s
            ),
            # Full band: the stripe is wider than a row.
            "StripedKernel.extend_batch": lambda: StripedKernel().extend_batch(
                [q], [t], [10], s
            ),
            "overlap_batch_lockstep": lambda: overlapdp.overlap_batch_lockstep(
                [q], [t], s, w=3
            ),
            "fill_global_batch": lambda: globalbatch.fill_global_batch(
                [q], [t], s, w=3
            ),
            "fill_extension_batch": lambda: fullmatrix.fill_extension_batch(
                [q], [t], s, [10]
            ),
            "global_align": lambda: globalband.global_align(q, t, s, w=3),
        }
        for name, call in callers.items():
            before = len(calls)
            call()
            assert len(calls) == before + 1, name


class TestWindowSeeding:
    def test_per_hit_extension_is_gone(self):
        """k-mer hits are grown to maximal matches as one array pass per
        window, not one mismatch scan per hit."""
        from repro.seeding import kmer_index

        assert not hasattr(kmer_index, "_extend_maximal")

    def test_one_seeding_call_per_window(self, monkeypatch):
        from repro.aligner.pipeline import Aligner
        from repro.genome.synth import ReadSimulator, synthesize_reference
        from repro.seeding.kmer_index import KmerIndex

        calls: list[int] = []
        seed_reads = KmerIndex.seed_reads

        def counting(self, queries, *args, **kwargs):
            calls.append(len(queries))
            return seed_reads(self, queries, *args, **kwargs)

        def per_read(*args, **kwargs):
            raise AssertionError("the window path seeded one read alone")

        monkeypatch.setattr(KmerIndex, "seed_reads", counting)
        monkeypatch.setattr(KmerIndex, "seed_read", per_read)
        reference = synthesize_reference(20_000, np.random.default_rng(5))
        reads = ReadSimulator(reference, seed=5).simulate(100)
        aligner = Aligner(reference, seeding="kmer")
        aligner.align_batched(reads, batch_size=50)
        # Two 50-read windows, each one call over both strands.
        assert calls == [100, 100]


class TestOneExtensionSchedule:
    def test_no_result_cache(self):
        """Equal jobs are computed, not replayed: there is no cache
        module and no knob to size one."""
        import dataclasses
        import inspect

        from repro.aligner.engines import BatchedEngine
        from repro.aligner.parallel import EngineSpec

        with pytest.raises(ImportError):
            importlib.import_module("repro.aligner.cache")
        assert "cache_entries" not in inspect.signature(
            BatchedEngine
        ).parameters
        assert "cache_entries" not in {
            f.name for f in dataclasses.fields(EngineSpec)
        }

    def test_every_wave_path_reaches_extend_side(self, monkeypatch):
        """The short-read window, the paired rescue and the long-read
        ends all extend through the one side step."""
        from repro.aligner import longread, paired, waves
        from repro.aligner.engines import BatchedEngine
        from repro.aligner.pipeline import Aligner
        from repro.genome.synth import (
            ReadSimulator,
            simulate_long_reads,
            synthesize_reference,
        )

        sides: list[str] = []
        extend_side = waves.extend_side

        def counting(engine, jobs, side, fallback=None):
            sides.append(side)
            return extend_side(engine, jobs, side, fallback=fallback)

        for module in (waves, paired, longread):
            monkeypatch.setattr(module, "extend_side", counting)
        rng = np.random.default_rng(8)
        reference = synthesize_reference(20_000, rng)

        reads = ReadSimulator(reference, seed=8).simulate(6)
        waves.align_window(
            Aligner(reference, seeding="kmer"),
            [(r.name, r.codes) for r in reads],
        )
        assert sides == ["left", "right"]

        # Mate 2 loses every 16th base: no 19-mer seed survives, so it
        # is unmapped, but the 12-mer rescue probes still anchor it.
        sides.clear()
        pair, _, _ = paired.simulate_pairs(reference, 1, rng)[0]
        second = pair.second.copy()
        second[15::16] = (second[15::16] + 1) % 4
        paired.PairedAligner(reference).align_pairs_batched(
            [paired.ReadPair(pair.name, pair.first, second)]
        )
        assert sides == ["left", "right", "rescue_left", "rescue_right"]

        sides.clear()
        longread.LongReadAligner(reference).align_batch(
            simulate_long_reads(reference, 2, rng), BatchedEngine()
        )
        assert sides == ["longread_left", "longread_right"]


class TestOneRelaxedSweep:
    OLD_NAMES = (
        "left_entry_scores",
        "left_entry_scores_global",
        "upper_entry_scores",
        "upper_entry_scores_global",
        "edit_check",
        "above_check",
        "below_band_bound",
        "above_band_bound",
    )

    def test_old_renditions_and_wrappers_are_gone(self):
        """Four edit-machine sweeps and four seed-and-bound wrappers
        became ``editdp.relaxed_sweep`` and ``editcheck.sweep_bound``."""
        src = Path(__file__).resolve().parent.parent / "src" / "repro"
        pattern = re.compile(r"\b(%s)\b" % "|".join(self.OLD_NAMES))
        found = {
            path.relative_to(src).as_posix(): sorted(
                set(pattern.findall(path.read_text()))
            )
            for path in src.rglob("*.py")
            if pattern.search(path.read_text())
        }
        assert found == {}

    def test_one_function_holds_the_relaxed_row_update(self):
        """The free-insertion running max of the relaxed recurrence has
        one home under ``align/`` and ``core/``.  The scalar banded
        kernels' own row-wide ``maximum.accumulate`` calls are affine F
        scans (a running max of ``g - go + cols * ge``, unwound per
        column), not renditions of it."""
        root = Path(__file__).resolve().parent.parent / "src/repro"
        owners = set()
        for package in ("align", "core"):
            for path in sorted((root / package).glob("*.py")):
                for fn in ast.walk(ast.parse(path.read_text())):
                    if not isinstance(fn, ast.FunctionDef):
                        continue
                    for node in ast.walk(fn):
                        if (
                            isinstance(node, ast.Call)
                            and ast.unparse(node.func).endswith(
                                "maximum.accumulate"
                            )
                            and not node.keywords
                        ):
                            owners.add(f"{path.stem}.{fn.name}")
        affine_f_scans = {"banded.extend", "adaptive.adaptive_extend"}
        assert owners - affine_f_scans == {"editdp.relaxed_sweep"}

    def test_all_four_check_sites_run_the_one_sweep(self, monkeypatch):
        from repro.align.editdp import ABOVE, BELOW
        from repro.align.globalband import global_align
        from repro.align.lockstep import GLOBAL, LOCAL_EXTEND
        from repro.core import editcheck
        from repro.core.checker import CheckConfig, OptimalityChecker
        from repro.core.globalcheck import GlobalChecker

        calls: list[tuple[str, int]] = []
        relaxed_sweep = editcheck.relaxed_sweep

        def counting(query, target, band, region, floor, *args):
            calls.append((region, floor))
            return relaxed_sweep(query, target, band, region, floor, *args)

        monkeypatch.setattr(editcheck, "relaxed_sweep", counting)
        s = BWA_MEM_SCORING

        # A soft-clipped read: the local target runs the edit check and
        # then the above check, and both pass.
        rng = np.random.default_rng(0)
        ref = random_sequence(200, rng)
        q = np.concatenate([ref[:80], random_sequence(20, rng)])
        t = ref[:130]
        local = OptimalityChecker(s, CheckConfig(target="local"))
        res = banded.extend(q, t, s, 25, w=12)
        assert local.check(q, t, res).passed
        assert calls == [(BELOW, LOCAL_EXTEND), (ABOVE, LOCAL_EXTEND)]

        # A band-deep deletion behind early noise: global case c, both
        # sides swept.
        calls.clear()
        rng = np.random.default_rng(9)
        ref = random_sequence(160, rng)
        q = np.concatenate([ref[:30], ref[42:120]]).astype(np.uint8)
        for p in (2, 5, 9):
            q[p] = (q[p] + 1) % 4
        t = ref[:120]
        narrow = global_align(q, t, s, 0, w=12)
        assert GlobalChecker(s).check(q, t, narrow).passed
        assert calls == [(BELOW, GLOBAL), (ABOVE, GLOBAL)]


class TestOverlapCandidatesAsArrays:
    def test_dict_index_and_vote_loop_are_gone(self):
        """The k-mer dict and its per-k-mer double loop became one
        sorted-array pass, ``overlap._candidate_pairs``."""
        from repro.apps import overlap

        assert not hasattr(overlap, "_index_reads")
        assert not hasattr(overlap, "_vote_candidates")

    def test_no_defaultdict(self):
        path = Path(__file__).resolve().parent.parent / (
            "src/repro/apps/overlap.py"
        )
        assert "collections" not in _imported_modules(path)
        assert "defaultdict" not in path.read_text()

    def test_one_candidate_pass_per_run(self, monkeypatch):
        from repro.apps import overlap
        from repro.genome.synth import fragment_corpus, synthesize_reference

        calls: list[int] = []
        candidate_pairs = overlap._candidate_pairs
        kmer_hits = overlap._kmer_hits

        def counting(reads, params):
            calls.append(len(reads))
            return candidate_pairs(reads, params)

        def counting_hits(reads, k):
            calls.append(-len(reads))
            return kmer_hits(reads, k)

        monkeypatch.setattr(overlap, "_candidate_pairs", counting)
        monkeypatch.setattr(overlap, "_kmer_hits", counting_hits)
        rng = np.random.default_rng(23)
        reference = synthesize_reference(2_000, rng)
        reads = [
            (f.name, f.codes)
            for f in fragment_corpus(reference, rng, length=250, step=180)
        ]
        params = overlap.OverlapParams(batch_size=3)
        assert overlap.find_overlaps(reads, params)
        assert overlap.find_overlaps(reads[:4], params)
        # One pass per run, and one k-mer table inside it, over every
        # read at once.
        assert calls == [len(reads), -len(reads), 4, -4]


class TestOneByteIdentityTable:
    def test_every_backend_and_path_has_a_leg(self):
        """Every kernel, engine name, ``--seeding`` backend, start
        method the platform has, index mode and transport appears in at
        least one leg of ``tests/test_byte_identity.py``: a new backend
        cannot skip the table, and deleting one is a table edit."""
        import multiprocessing as mp

        from repro.aligner.engines import ENGINE_POLICIES
        from repro.cli import build_parser
        from repro.kernels import available_kernels
        from tests.test_byte_identity import INDEX_MODES, LEGS, TRANSPORTS

        sub = build_parser()._subparsers._group_actions[0].choices["align"]
        choices = {
            action.dest: action.choices
            for action in sub._actions
            if action.choices
        }
        want = {
            "kernel": set(available_kernels()),
            "policy": set(ENGINE_POLICIES),
            "seeding": set(choices["seeding"]),
            "start": set(choices["start_method"])
            & set(mp.get_all_start_methods()),
            "index": set(INDEX_MODES),
            "path": set(TRANSPORTS),
        }
        for axis, names in want.items():
            have = {getattr(leg, axis) for leg in LEGS}
            assert names <= have, f"no byte-identity leg for {axis} " + (
                f"{sorted(names - have)}"
            )
