"""Cross-module invariants, property-tested.

Each invariant here is relied on by at least one other module; a
regression anywhere in the DP/seeding substrate shows up as one of
these failing before the integration tests do.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from dataclasses import dataclass
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


_SRC = Path(__file__).resolve().parent.parent / "src"

MODEL = ("repro.hw", "repro.system", "repro.analysis")
"""The paper's hardware and system model: what reproduces its figures.
Everything else under ``src/repro`` is the product a user runs."""

INIT_IMPORTERS = ("repro", "repro.obs", "repro.kernels")
"""The package ``__init__``s that hold code (``repro``'s quick-start
names, the process-wide registry, the backend registry)."""


SUBSTRATE = ("repro.align", "repro.core", "repro.kernels")
"""The DP fills and checks every command runs on."""

DRIVERS = ("repro.aligner", "repro.serve", "repro.apps", "repro.cli")
"""What runs the substrate: pipelines, the server, the apps, the CLI."""


def _under(module: str, packages: tuple[str, ...]) -> bool:
    return any(module == m or module.startswith(m + ".") for m in packages)


def _is_model(module: str) -> bool:
    return _under(module, MODEL)


def _src_modules() -> dict[str, Path]:
    """Every ``repro`` module under ``src/``, by dotted name."""
    out = {}
    for path in sorted((_SRC / "repro").rglob("*.py")):
        parts = path.relative_to(_SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        out[".".join(parts)] = path
    return out


_LOAD_CORE = frozenset({
    "repro", "repro.cli", "repro.constants",
    "repro.align", "repro.align.banded", "repro.align.editdp",
    "repro.align.globalband", "repro.align.lockstep",
    "repro.align.overlapdp", "repro.align.scoring",
    "repro.align.ungapped",
    "repro.aligner", "repro.aligner.engines",
    "repro.core", "repro.core.checker", "repro.core.editcheck",
    "repro.core.escore", "repro.core.extender", "repro.core.globalcheck",
    "repro.core.thresholds",
    "repro.genome", "repro.genome.io_fasta", "repro.genome.sequence",
    "repro.kernels", "repro.kernels.scalar", "repro.kernels.striped",
    "repro.kernels.wavefront",
    "repro.obs", "repro.obs.metrics", "repro.obs.names",
    "repro.obs.tracing",
})
"""What every command below loads: the parser's imports (the engine
table, the backend registry), the DP fills and checks, FASTA/FASTQ."""

_ALIGN_LOADS = _LOAD_CORE | {
    "repro.align.cigar", "repro.align.fullmatrix",
    "repro.aligner.pipeline", "repro.aligner.waves",
    "repro.genome.sam",
    "repro.seeding", "repro.seeding.chaining", "repro.seeding.fmindex",
    "repro.seeding.kmer_index", "repro.seeding.mems",
}

COMMAND_LOADS = {
    "align": _ALIGN_LOADS,
    "longread": _ALIGN_LOADS | {
        "repro.align.globalbatch", "repro.aligner.longread",
    },
    "overlap": _LOAD_CORE | {"repro.apps", "repro.apps.overlap"},
    "analyze": _ALIGN_LOADS | {"repro.obs.table"},
}
"""The ``repro.*`` modules a one-record run of each command loads in a
fresh interpreter (``align`` with ``short_batched``'s flags;
``analyze`` builds the same run record as ``align``).  Without
``--index``, neither ``align`` nor ``longread`` loads ``index/`` or
``durability/``; without ``--chaos`` or a breaker, neither loads
``faults/``."""

_LOADS_SCRIPT = """
import contextlib, io, json, sys
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
loaded = [m for m in sys.modules if m == "repro" or m.startswith("repro.")]
print(json.dumps({"code": code, "modules": sorted(loaded)}))
"""


def _command_inputs(tmp_path: Path) -> dict[str, list[str]]:
    """One-record inputs and argv per pinned command."""
    rng = np.random.default_rng(37)
    reference = "".join(rng.choice(list("ACGT"), size=6000))
    (tmp_path / "ref.fa").write_text(f">chr1\n{reference}\n")

    def fastq(name, *reads):
        path = tmp_path / name
        path.write_text("".join(
            f"@r{k}\n{seq}\n+\n{'I' * len(seq)}\n"
            for k, seq in enumerate(reads)
        ))
        return str(path)

    ref, out = str(tmp_path / "ref.fa"), str(tmp_path / "out")
    return {
        "align": [
            "align", "--reference", ref, "--out", out,
            "--reads", fastq("short.fq", reference[2000:2101]),
            "--engine", "batched", "--kernel", "striped",
            "--seeding", "kmer", "--batch-size", "4096",
        ],
        "longread": [
            "longread", "--reference", ref, "--out", out,
            "--reads", fastq("long.fq", reference[1000:2500]),
            "--engine", "batched", "--kernel", "striped",
        ],
        "overlap": [
            "overlap", "--out", out,
            "--reads", fastq(
                "tiles.fq", reference[0:400], reference[250:650]
            ),
            "--kernel", "striped", "--band", "31",
        ],
        "analyze": [
            "analyze", "--reference", ref,
            "--reads", fastq("short.fq", reference[2000:2101]),
        ],
    }


class TestLayering:
    def test_no_product_module_imports_the_model(self):
        """The product never imports the model, at any nesting level:
        a function-local import still loads the module when it runs."""
        edges = sorted(
            f"{name} -> {target}"
            for name, path in _src_modules().items()
            if not _is_model(name)
            for target in _imported_modules(path)
            if _is_model(target)
        )
        assert edges == []

    def test_the_substrate_imports_no_driver(self):
        """``align``, ``core`` and ``kernels`` never import what drives
        them, at any nesting level."""
        edges = sorted(
            f"{name} -> {target}"
            for name, path in _src_modules().items()
            if _under(name, SUBSTRATE)
            for target in _imported_modules(path)
            if _under(target, DRIVERS)
        )
        assert edges == []

    def test_package_inits_import_nothing(self):
        """One import path per name: a package ``__init__`` is its
        docstring, so every name is imported from the module that
        defines it."""
        importing = sorted(
            name
            for name, path in _src_modules().items()
            if path.name == "__init__.py"
            and name not in INIT_IMPORTERS
            and any(
                isinstance(node, (ast.Import, ast.ImportFrom))
                for node in ast.walk(ast.parse(path.read_text()))
            )
        )
        assert importing == []

    @pytest.mark.parametrize("command", sorted(COMMAND_LOADS))
    def test_a_command_loads_what_it_runs(self, command, tmp_path):
        """Each command imports its own subsystem, so a fresh run loads
        no model module and exactly the pinned set: a stray top-level
        import fails here by name."""
        argv = _command_inputs(tmp_path)[command]
        env = dict(os.environ, PYTHONPATH=str(_SRC))
        proc = subprocess.run(
            [sys.executable, "-c", _LOADS_SCRIPT, *argv],
            capture_output=True, text=True, env=env, check=True,
        )
        report = json.loads(proc.stdout.splitlines()[-1])
        assert report["code"] == 0
        loaded = set(report["modules"])
        assert sorted(m for m in loaded if _is_model(m)) == []
        want = COMMAND_LOADS[command]
        assert sorted(loaded - want) == [], (
            f"{command} loads new modules; import them inside the "
            "function that needs them"
        )
        assert sorted(want - loaded) == [], (
            f"{command} no longer loads these; lower the pin"
        )
        budget = {"align": 41, "longread": 43}  # a pin may not outgrow it
        assert len(loaded) <= budget.get(command, len(loaded))


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
        """Only the registry reaches the ``numpy`` name's module, so
        retiring it is one file plus one registry line."""
        root = Path(__file__).resolve().parent.parent
        importers = sorted(
            path.relative_to(root).as_posix()
            for top in ("src", "tests", "benchmarks", "examples", "tools")
            for path in (root / top).rglob("*.py")
            if "repro.kernels.wavefront" in _imported_modules(path)
        )
        assert importers == ["src/repro/kernels/__init__.py"]

    def test_backend_modules_define_no_dp_of_their_own(self):
        """Each backend module is one class whose four methods are one
        call each into the lockstep sweep: no kernel module, the
        ``numpy`` name's ``wavefront.py`` included, holds a DP
        function."""
        kernels = Path(__file__).resolve().parent.parent / "src/repro/kernels"
        for name in ("scalar.py", "striped.py", "wavefront.py"):
            tree = ast.parse((kernels / name).read_text())
            defs = [
                node for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            ]
            [cls] = defs
            assert isinstance(cls, ast.ClassDef), name
            methods = [n for n in cls.body if isinstance(n, ast.FunctionDef)]
            assert [m.name for m in methods] == [
                "extend", "extend_batch", "overlap", "overlap_batch"
            ], name
            for method in methods:
                *doc, ret = method.body
                assert len(doc) == 1 and isinstance(ret, ast.Return), (
                    name, method.name,
                )
                call = ret.value
                while isinstance(call, ast.Subscript):  # the n = 1 batch
                    call = call.value
                assert ast.unparse(call.func) in (
                    "lockstep.extend_batch", "overlap_batch_lockstep"
                ), (name, method.name)

    def test_checks_do_not_import_kernels(self):
        """The checks never extend, so they must not resolve a
        backend."""
        core = Path(__file__).resolve().parent.parent / "src/repro/core"
        for name in ("checker.py", "editcheck.py"):
            imported = _imported_modules(core / name)
            assert [
                m for m in imported
                if m == "repro.kernels" or m.startswith("repro.kernels.")
            ] == [], name


class TestOneLockstepRecurrence:
    def test_the_other_renditions_are_gone(self):
        """The row-lockstep extension module, the overlap bucket sweep
        and the striped backend's stripe-group sweep were three more
        copies of the same recurrence."""
        from repro.align import overlapdp
        from repro.kernels import striped

        with pytest.raises(ImportError):
            importlib.import_module("repro.align.batchdp")
        assert not hasattr(overlapdp, "_lockstep_bucket")
        # The band-offset stripe sweep and its shape-class planner.
        for name in (
            "_sweep_bucket", "extend_batch", "_PAD", "MIN_BUCKET_JOBS",
            "MAX_DENSE_LENGTH", "ROW_SWEEP_COST_CELLS",
        ):
            assert not hasattr(striped, name), name
        assert not hasattr(banded, "shape_class")

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
        from repro.kernels import available_kernels, get_kernel

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
        callers = {}
        for kernel in map(get_kernel, available_kernels()):
            cls = type(kernel).__name__
            callers |= {
                f"{cls}.extend": lambda k=kernel: k.extend(q, t, s, 10),
                f"{cls}.extend w=3": lambda k=kernel: k.extend(
                    q, t, s, 10, w=3
                ),
                f"{cls}.extend_batch": lambda k=kernel: k.extend_batch(
                    [q], [t], [10], s
                ),
                f"{cls}.extend_batch w=3": lambda k=kernel: k.extend_batch(
                    [q], [t], [10], s, w=3
                ),
                f"{cls}.overlap": lambda k=kernel: k.overlap(q, t, s, w=3),
                f"{cls}.overlap_batch": lambda k=kernel: k.overlap_batch(
                    [q], [t], s, w=3
                ),
            }
        callers |= {
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
        assert len(callers) == 3 * 6 + 4
        for name, call in callers.items():
            before = len(calls)
            call()
            assert len(calls) == before + 1, name

    def test_no_product_path_runs_a_reference(self, monkeypatch, tmp_path):
        """The per-job references are oracles, not product paths: the
        default ``align``, its ``--chaos`` path, ``longread
        --engine scalar`` and ``overlap`` with no ``--kernel`` make no
        call into :func:`banded.extend` or ``overlap_scalar``."""
        from repro import cli
        from repro.align import lockstep, overlapdp

        calls = {"reference": 0, "extend_batch": 0, "overlap_ends": 0}

        def counting(module, name, key):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(banded, "extend", "reference")
        counting(overlapdp, "overlap_scalar", "reference")
        counting(lockstep, "extend_batch", "extend_batch")
        counting(lockstep, "overlap_ends", "overlap_ends")

        def mutated(argv, *positions):
            """``argv`` with its read mismatched at ``positions``, so
            seeds stop short and the read ends are extended (two
            mismatches side by side, so the ungapped rule does not
            settle the end)."""
            path = Path(argv[argv.index("--reads") + 1])
            name, seq, plus, qual = path.read_text().splitlines()
            seq = list(seq)
            for k in positions:
                seq[k] = "A" if seq[k] != "A" else "C"
            path.write_text("\n".join([name, "".join(seq), plus, qual]))
            return argv

        inputs = _command_inputs(tmp_path)
        align = mutated(inputs["align"][:7], 29, 30, 70, 71)
        runs = {
            "align": align,
            "align --chaos": [*align, "--chaos", "--fault-rate", "0.5"],
            "longread --engine scalar": [
                *mutated(inputs["longread"][:7], 8, -8), "--engine", "scalar"
            ],
            "overlap": inputs["overlap"][:5],
        }
        for name, argv in runs.items():
            before = dict(calls)
            assert cli.main(argv) == 0, name
            assert calls["reference"] == 0, name
            key = "overlap_ends" if name == "overlap" else "extend_batch"
            assert calls[key] > before[key], name

    @pytest.mark.parametrize("band", [0, 3, 11, 41, None])
    def test_striped_extension_sweeps_as_scalar_does(self, monkeypatch, band):
        """``--kernel striped`` has no extension sweep of its own: at
        every band its batch makes the very ``lockstep.sweep`` calls
        (jobs and bands per bucket) the scalar backend's batch makes."""
        from repro.align import lockstep
        from repro.kernels.scalar import ScalarKernel
        from repro.kernels.striped import StripedKernel

        calls: list[tuple] = []
        sweep = lockstep.sweep

        def recording(queries, targets, scoring, h0s, floor, bands=None,
                      codes=None):
            calls.append((
                tuple(len(q) for q in queries),
                tuple(len(t) for t in targets),
                tuple(h0s), floor, None if bands is None else tuple(bands),
            ))
            return sweep(queries, targets, scoring, h0s, floor, bands, codes)

        monkeypatch.setattr(lockstep, "sweep", recording)
        rng = np.random.default_rng(38)
        qlens = rng.integers(0, 90, 300)
        queries = [random_sequence(int(n), rng) for n in qlens]
        targets = [random_sequence(int(n) + 45, rng) for n in qlens]
        h0s = rng.integers(10, 60, len(queries)).tolist()
        seen = []
        for kernel in (ScalarKernel(), StripedKernel()):
            calls.clear()
            kernel.extend_batch(queries, targets, h0s, BWA_MEM_SCORING, w=band)
            seen.append(list(calls))
        assert seen[0] and seen[0] == seen[1]


class TestLockstepCapturesAfterTheSweep:
    def test_bound_reduced_once_and_nothing_clipped(self, monkeypatch):
        """The overlap and gap-fill capture sets copy per-row planes and
        reduce the band-edge bound once, after the sweep; no row loop
        pays ``np.clip``'s wrapper."""
        from repro.align import lockstep

        reduced, clipped = [], []
        reducer, clip = lockstep._edge_bound, np.clip

        def counting_reducer(*args, **kwargs):
            reduced.append(1)
            return reducer(*args, **kwargs)

        def counting_clip(*args, **kwargs):
            clipped.append(1)
            return clip(*args, **kwargs)

        monkeypatch.setattr(lockstep, "_edge_bound", counting_reducer)
        monkeypatch.setattr(np, "clip", counting_clip)
        rng = np.random.default_rng(39)
        queries = [random_sequence(int(n), rng) for n in (30, 24, 41, 5)]
        targets = [random_sequence(int(n), rng) for n in (36, 30, 38, 12)]
        uniform = np.full(len(queries), 4)
        lockstep.overlap_ends(queries, targets, BWA_MEM_SCORING, uniform)
        assert (len(reduced), len(clipped)) == (1, 0)
        reduced.clear()
        ragged = np.array([3, 6, 4, 7])
        lockstep.fill_direction_bits(
            queries, targets, BWA_MEM_SCORING, [0] * len(queries),
            lockstep.GLOBAL, ragged,
        )
        assert (len(reduced), len(clipped)) == (1, 0)


class TestCellBalancedSweeps:
    def test_one_planner_owned_by_the_sweep(self):
        """``lockstep.plan_buckets`` is the only bucketing of extension
        sweeps, traceback fills and gap fills: no alias in
        ``fullmatrix``, no shape classes in ``globalbatch``."""
        from repro.align import fullmatrix, globalbatch, lockstep

        assert callable(lockstep.plan_buckets)
        for name in ("plan_buckets", "ROW_COST_CELLS", "TRACEBACK_CHUNK_CELLS"):
            assert not hasattr(fullmatrix, name), name
        assert not hasattr(globalbatch, "shape_class")

    @pytest.mark.parametrize("kernel", ["scalar", "striped"])
    def test_full_band_wave_pads_at_most_half_again(self, monkeypatch, kernel):
        """A ragged full-band wave shaped like a 101 bp read window's
        (1,100 jobs, queries 1-53 bp with a tail to 80, targets 45 bp
        longer) sweeps at most 1.5x its real cells; one padded
        rectangle sweeps ~3.6x."""
        from repro.align import lockstep
        from repro.kernels import get_kernel

        swept = []
        sweep = lockstep.sweep

        def counting(queries, targets, *args, **kwargs):
            rows = max(len(t) for t in targets) + 1
            width = max(len(q) for q in queries) + 1
            swept.append(len(queries) * width * rows)
            return sweep(queries, targets, *args, **kwargs)

        monkeypatch.setattr(lockstep, "sweep", counting)
        rng = np.random.default_rng(20200613)
        qlens = np.concatenate(
            [rng.integers(1, 54, 990), rng.integers(54, 81, 110)]
        )
        queries = [random_sequence(int(n), rng) for n in qlens]
        targets = [random_sequence(int(n) + 45, rng) for n in qlens]
        h0s = rng.integers(10, 60, len(queries)).tolist()
        get_kernel(kernel).extend_batch(queries, targets, h0s, BWA_MEM_SCORING)
        real = sum((len(q) + 1) * (len(t) + 1) for q, t in zip(queries, targets))
        assert sum(swept) <= 1.5 * real, sum(swept) / real


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

        from repro.aligner.engines import BatchedEngine, EngineSpec

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

        def counting(engine, jobs, side):
            sides.append(side)
            return extend_side(engine, jobs, side)

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


class TestOneReadDriver:
    def test_the_fault_layer_extends_no_job_alone(self):
        """Every engine takes waves: no module of the fault layer and
        no engine makes a per-job ``extend(query, target, h0)`` call
        (``list.extend`` takes one argument)."""
        modules = {
            name: path for name, path in _src_modules().items()
            if name.startswith("repro.faults")
            or name == "repro.aligner.engines"
        }
        assert "repro.faults.resilience" in modules
        calls = [
            f"{name}: {ast.unparse(node)}"
            for name, path in modules.items()
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "extend"
            and len(node.args) + len(node.keywords) > 1
        ]
        assert calls == []

    def test_every_engine_answers_every_job(self):
        """The resilience ladder ends at the host, which always
        answers: no module under ``src/`` names a dead letter, a
        degraded extension, a bounded host queue or its overflow
        site, no side step takes a fallback for a missing result, and
        the engine contract returns one result per job."""
        import inspect

        from repro.aligner.engines import ExtensionEngine
        from repro.aligner.waves import extend_side

        gone = re.compile(
            r"\b(DEGRADED|DeadLetter\w*|host_queue_capacity"
            r"|rerun_queue_capacity)\b|queue\.overflow"
        )
        assert [
            f"{name}: {match.group(0)}"
            for name, path in _src_modules().items()
            for match in gone.finditer(path.read_text())
        ] == []
        assert "fallback" not in inspect.signature(extend_side).parameters
        assert inspect.signature(
            ExtensionEngine.extend_wave
        ).return_annotation == "list[ExtensionResult]"

    def test_the_wave_driver_extends_no_job_alone(self):
        """``waves.py`` hands every engine whole waves: no probe for
        ``extend_wave`` and no per-job ``extend(query, target, h0)``
        call (``list.extend`` takes one argument)."""
        tree = ast.parse((_SRC / "repro/aligner/waves.py").read_text())
        calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)]
        assert not [
            ast.unparse(c) for c in calls
            if isinstance(c.func, ast.Name) and c.func.id == "getattr"
            and any(isinstance(a, ast.Constant) and a.value == "extend_wave"
                    for a in c.args)
        ]
        assert not [
            ast.unparse(c) for c in calls
            if isinstance(c.func, ast.Attribute) and c.func.attr == "extend"
            and len(c.args) + len(c.keywords) > 1
        ]

    def test_the_per_read_and_per_pair_drivers_are_gone(self):
        """One read driver: a single read or pair is a window of one,
        and the per-read loops live on as the test reference only."""
        from repro.aligner.paired import PairedAligner
        from repro.aligner.pipeline import Aligner

        gone = {
            Aligner: ("align", "_align_read", "_extend_chain",
                      "_extend_side", "_finalize_read", "_trace_dense",
                      "_seeds"),
            PairedAligner: ("align_pairs", "_rescue", "_extend_candidate",
                            "_rescue_side"),
        }
        for cls, methods in gone.items():
            assert [m for m in methods if hasattr(cls, m)] == [], cls


class TestFaultsPerWave:
    """The resilience ladder runs in rounds over whole waves: one
    engine call per round, not per job."""

    FIXTURES = Path(__file__).resolve().parent / "fixtures"

    def _align(self, tmp_path, monkeypatch, name, *extra):
        """``lockstep.extend_batch`` calls of one ``align --engine
        batched`` window over the golden reads, and its SAM."""
        from repro.align import lockstep
        from repro.cli import main

        calls = []
        sweep = lockstep.extend_batch

        def counting(*args, **kwargs):
            calls.append(len(args[0]))
            return sweep(*args, **kwargs)

        monkeypatch.setattr(lockstep, "extend_batch", counting)
        out = tmp_path / f"{name}.sam"
        assert main([
            "align", "--reference", str(self.FIXTURES / "golden_ref.fa"),
            "--reads", str(self.FIXTURES / "golden_reads.fq"),
            "--out", str(out), "--engine", "batched", *extra,
        ]) == 0
        return len(calls), out.read_bytes()

    def test_chaos_makes_one_call_per_round(self, tmp_path, monkeypatch):
        """At most ``max_retries + 1`` rounds plus one host wave for
        each of the left and right sides, whatever the job count."""
        from repro.faults.resilience import RetryPolicy

        bare, want = self._align(tmp_path, monkeypatch, "bare")
        calls, got = self._align(
            tmp_path, monkeypatch, "chaos",
            "--chaos", "--fault-rate", "0.05", "--fault-seed", "1",
        )
        assert got == want
        assert bare == 2
        assert calls <= 2 * (RetryPolicy().max_retries + 2)

    def test_breaker_alone_calls_as_the_bare_engine(
        self, tmp_path, monkeypatch
    ):
        bare, want = self._align(tmp_path, monkeypatch, "bare")
        calls, got = self._align(
            tmp_path, monkeypatch, "breaker", "--breaker-threshold", "1"
        )
        assert (calls, got) == (bare, want)


class TestOneErrorBoundary:
    def test_cli_reports_errors_in_one_place(self):
        """``main`` is the one ``except`` that reports an error; the
        others are ``_open_index``'s rebuild rung, ``RunInterrupted``
        (exit 3) and the snapshot export (exit 1).  No command exits on
        its own or reads a FASTQ but through ``_load_reads``."""
        source = (_SRC / "repro/cli.py").read_text()
        tree = ast.parse(source)
        handlers = [
            n for n in ast.walk(tree) if isinstance(n, ast.ExceptHandler)
        ]
        assert len(handlers) <= 5
        assert source.count("raise SystemExit(") == 1  # __main__
        commands = [
            n for n in tree.body
            if isinstance(n, ast.FunctionDef) and n.name.startswith("cmd_")
        ]
        assert [
            f"{fn.name}: {ast.unparse(node)}"
            for fn in commands
            for node in ast.walk(fn)
            if isinstance(node, ast.Return)
            and isinstance(node.value, ast.Constant)
            and node.value.value == 2
        ] == []
        assert source.count("read_fastq(") == 1

    def test_typed_errors_share_one_base(self):
        """Every typed error a command can hit is a ``ReproError`` and
        keeps its builtin base, so library callers' ``except`` holds."""
        from repro.aligner.parallel import StartMethodError
        from repro.constants import InputError, ReproError
        from repro.durability.journal import JournalError
        from repro.durability.supervisor import SupervisorError
        from repro.durability.wal import WalError
        from repro.genome.io_fasta import MalformedRecordError
        from repro.index.errors import IndexArtifactError
        from repro.scorecard.truth import TruthError

        bases = {
            MalformedRecordError: ValueError, TruthError: ValueError,
            InputError: ValueError, IndexArtifactError: RuntimeError,
            JournalError: RuntimeError, SupervisorError: RuntimeError,
            WalError: RuntimeError, StartMethodError: TypeError,
        }
        for error, base in bases.items():
            assert issubclass(error, ReproError), error
            assert issubclass(error, base), error
        codes = {error: error.exit_code for error in bases}
        assert codes == {**dict.fromkeys(bases, 2), SupervisorError: 1}


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


class TestSettledJobsReachNoDP:
    @pytest.mark.parametrize("kind,band", [
        ("full", None), ("seedex", 11), ("banded", 5),
    ])
    def test_kernels_see_only_unsettled_jobs(self, monkeypatch, kind, band):
        """The ungapped rule settles its jobs before any DP: under every
        policy the extension sweep and the traceback fill are handed
        only jobs it leaves unsettled, and the corpus holds settled
        jobs of both kinds, so the test cannot pass vacuously."""
        from repro.align import fullmatrix, lockstep, ungapped
        from repro.aligner import waves
        from repro.aligner.engines import make_engine
        from repro.aligner.pipeline import Aligner
        from repro.genome.synth import ReadSimulator, synthesize_reference

        s = BWA_MEM_SCORING
        seen = {"extend": 0, "fill": 0}
        walks = []
        extend_batch = lockstep.extend_batch
        fill = fullmatrix.fill_extension_batch
        traceback_wave = waves.traceback_wave

        def extending(queries, targets, h0s, scoring, w=None):
            seen["extend"] += len(queries)
            assert not ungapped.settled(queries, targets, h0s, s).any()
            return extend_batch(queries, targets, h0s, scoring, w=w)

        def filling(queries, targets, scoring, h0s):
            seen["fill"] += len(queries)
            square = np.array(
                [len(q) == len(t) for q, t in zip(queries, targets)]
            )
            assert not (
                square & ungapped.settled(queries, targets, h0s, s)
            ).any()
            return fill(queries, targets, scoring, h0s)

        def tracing(scoring, jobs):
            walks.extend(jobs)
            return traceback_wave(scoring, jobs)

        monkeypatch.setattr(lockstep, "extend_batch", extending)
        monkeypatch.setattr(fullmatrix, "fill_extension_batch", filling)
        monkeypatch.setattr(waves, "traceback_wave", tracing)
        rng = np.random.default_rng(17)
        reference = synthesize_reference(20_000, rng)
        reads = ReadSimulator(reference, seed=17).simulate(60)
        engine = make_engine(kind, band)
        Aligner(reference, engine, seeding="kmer").align_batched(reads)

        assert 0 < engine.settled < engine.extensions
        reruns = engine.stats.reruns if engine.stats else 0
        assert seen["extend"] == engine.extensions - engine.settled + reruns
        diagonal = [
            (q[:j], t[:i], h0) for q, t, h0, (i, j) in walks if i == j
        ]
        settled_walks = int(ungapped.settled(*zip(*diagonal), s).sum())
        assert settled_walks > 0
        assert seen["fill"] == len(walks) - settled_walks



PRODUCT_ROOTS = ("src", "benchmarks", "examples", "tools", "perfbench")
"""What running the code means: the package, the paper-figure harnesses,
the examples, the repo tools and the benchmark."""

_LATER = "test-only model, deleted with its tests in a later cut: "

TEST_ONLY_ALLOWED = {
    # Oracles: tests compare the product against these.
    "repro.align.overlapdp.overlap_scalar": (
        "oracle: tests/kernels/test_overlap_conformance.py and "
        "tests/align/test_overlap_boundaries.py hold the lockstep overlap "
        "sweep to it"
    ),
    "repro.align.globalbatch.fill_global_scalar": (
        "oracle: tests/align/test_globalband.py and "
        "tests/align/test_overlap_boundaries.py hold the batched global "
        "fills to it"
    ),
    "repro.seeding.suffixarray.sa_interval": (
        "oracle: TestSeedingInvariants::test_fmindex_and_suffix_array_agree "
        "holds the FM index's backward search to it"
    ),
    "repro.seeding.suffixarray._compare_suffix": "sa_interval's step",
    # The one check on something the product builds.
    "repro.seeding.fmindex.FMIndex.find": (
        "tests/index/test_format.py::test_fm_index_answers_like_a_fresh_build"
        " and ::test_mmap_and_memory_modes_agree read the FM tables "
        "`index build` writes through it"
    ),
    "repro.seeding.kmer_index.KmerIndex.lookup": (
        "tests/seeding/test_kmer_chaining.py::TestKmerIndex::"
        "test_lookup_exact checks the k-mer table against the reference"
    ),
    "repro.index.store.LoadedIndex.suffix_array": (
        "tests/index/test_store.py::TestMeta::"
        "test_suffix_array_section_matches_fresh_build is the one check of "
        "the suffix-array section `index build` writes"
    ),
    "repro.obs.metrics.Histogram.quantile": (
        "tests/obs/test_metrics.py::TestQuantileAccuracy reads through it "
        "the P² estimates that `Histogram.snapshot` reports"
    ),
    # A paper figure a model is checked against.
    "repro.constants.EDIT_MACHINE_AREA_OVERHEAD": (
        "paper figure (5.53%, Sections I and VII): tests/hw/"
        "test_area_timing.py::test_edit_machine_overhead_is_5_53_percent"
    ),
    # Test-only models whose deletion waits for a later cut.
    "repro.align.editdp.levenshtein": _LATER + "TestLevenshtein",
    "repro.align.scoring.AffineGap.gap_cost": _LATER + "TestGapCost",
    "repro.align.scoring.AffineGap.doubled_gap": _LATER + "TestDoubledGap",
    "repro.align.cigar.Cigar.edit_ops": _LATER + "test_edit_ops",
    "repro.genome.sequence.pack_2bit": _LATER + "TestPacking",
    "repro.genome.sequence.unpack_2bit": _LATER + "TestPacking",
    "repro.genome.sequence.pack_3bit": _LATER + "TestPacking",
    "repro.genome.sequence.hamming": _LATER + "test_hamming*",
    "repro.hw.delta.checked_dmax": _LATER + "test_checked_dmax_*",
    "repro.hw.io_path.OUTPUT_COALESCE_RATIO": _LATER + "TestCoalescer",
    "repro.hw.io_path.CoalescerReport": _LATER + "TestCoalescer",
    "repro.hw.io_path.CoalescerReport.bytes_saved_fraction": (
        _LATER + "TestCoalescer"
    ),
    "repro.hw.io_path.coalesce_results": _LATER + "TestCoalescer",
    "repro.hw.io_path.coalesce_record_lines": _LATER + "TestRecordCoalescer",
    "repro.hw.io_path.split_record_lines": _LATER + "TestRecordCoalescer",
    "repro.seeding.suffixarray.longest_prefix_match": (
        _LATER + "test_longest_prefix_*"
    ),
    "repro.system.fpga.pcie_is_bottleneck": (
        _LATER + "test_pcie_not_bottleneck_at_seedex_rate"
    ),
    "repro.system.scheduler.reads_per_second_combined": (
        _LATER + "test_combined_reads_per_second"
    ),
    "repro.system.host.RerunBudget": (
        _LATER + "TestRerunBudgetWithFaults, test_rerun_budget_*"
    ),
    "repro.system.host.RerunBudget.rerun_demand_ext_per_s": (
        _LATER + "RerunBudget's"
    ),
    "repro.system.host.RerunBudget.host_capacity_ext_per_s": (
        _LATER + "RerunBudget's"
    ),
    "repro.system.host.RerunBudget.host_keeps_up": _LATER + "RerunBudget's",
    "repro.system.host.RerunBudget.overhead_fraction": (
        _LATER + "RerunBudget's"
    ),
    "repro.system.host.RerunBudget.with_faults": _LATER + "RerunBudget's",
}
"""The definitions in ``src/`` that only ``tests/`` reaches, and why each
stays: an oracle the product is held to, the one check on something the
product builds, a paper figure, or a model still waiting to be cut."""

_IDENTIFIER = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _uses(*nodes: ast.AST) -> set[str]:
    """The identifiers ``nodes`` refer to.

    Names and attributes read, imported names, and strings made of
    identifiers: those cover ``getattr``, ``__all__`` and the dotted
    ``Entry`` rows of ``perfbench/layers.py``."""
    found: set[str] = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                if not isinstance(sub.ctx, ast.Store):
                    found.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                if not isinstance(sub.ctx, ast.Store):
                    found.add(sub.attr)
            elif isinstance(sub, ast.AugAssign):
                target = sub.target
                found.add(getattr(target, "id", getattr(target, "attr", "")))
            elif isinstance(sub, ast.alias):
                found.update(sub.name.split("."))
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                if _IDENTIFIER.fullmatch(sub.value):
                    found.update(sub.value.split("."))
    return found


@dataclass
class _Definition:
    """One top-level function, class, method or constant of ``src/``."""

    name: str
    uses: set[str]
    owner: str | None = None
    """The qualified name of a method's class."""


def _module_definitions(
    tree: ast.Module, module: str
) -> tuple[dict[str, _Definition], set[str]]:
    """``({qualname: definition}, uses of the module's own statements)``.

    A module constant's value, a class's bases, decorators and fields,
    and a function's body count as uses of that definition only; the
    rest of the module (imports, ``__all__``, ``if __name__`` blocks)
    runs on import, so its uses are the module's own."""
    defined: dict[str, _Definition] = {}
    module_uses: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defined[f"{module}.{node.name}"] = _Definition(
                node.name, _uses(node)
            )
        elif isinstance(node, ast.ClassDef):
            qual = f"{module}.{node.name}"
            body = [
                sub for sub in node.body
                if not isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
            defined[qual] = _Definition(
                node.name,
                _uses(*node.bases, *node.keywords, *node.decorator_list,
                      *body),
            )
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defined[f"{qual}.{sub.name}"] = _Definition(
                        sub.name, _uses(sub), owner=qual
                    )
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            names = [
                sub.id for target in targets for sub in ast.walk(target)
                if isinstance(sub, ast.Name) and not _is_dunder(sub.id)
            ]
            value = [node.value] if node.value is not None else []
            for name in names:
                defined[f"{module}.{name}"] = _Definition(name, _uses(*value))
            if not names:
                module_uses |= _uses(node)
        else:
            module_uses |= _uses(node)
    return defined, module_uses


def _reached(defined: dict[str, _Definition], roots: set[str]) -> set[str]:
    """The qualified names ``roots`` reach, run to a fixpoint.

    A definition is reached when a reached use names it (a method also
    needs its class reached; a dunder method needs only its class), and
    only a reached definition's own uses count: code that nothing runs
    reaches nothing, and a definition's mention of itself is no use."""
    names = set(roots)
    live: set[str] = set()
    grew = True
    while grew:
        grew = False
        for qual, item in defined.items():
            if qual in live:
                continue
            if item.owner is not None and item.owner not in live:
                continue
            if item.name in names or (
                item.owner is not None and _is_dunder(item.name)
            ):
                live.add(qual)
                names |= item.uses
                grew = True
    return live


def _reach_scan() -> tuple[dict[str, _Definition], set[str], set[str]]:
    """``(definitions in src, reached from product roots, reached from
    product roots or tests)``."""
    root = _SRC.parent
    defined: dict[str, _Definition] = {}
    product: set[str] = set()
    for module, path in _src_modules().items():
        found, uses = _module_definitions(ast.parse(path.read_text()), module)
        defined.update(found)
        product |= uses
    for top in PRODUCT_ROOTS[1:]:
        for path in sorted((root / top).rglob("*.py")):
            product |= _uses(ast.parse(path.read_text()))
    tests: set[str] = set()
    for path in sorted((root / "tests").rglob("*.py")):
        tests |= _uses(ast.parse(path.read_text()))
    return defined, _reached(defined, product), _reached(
        defined, product | tests
    )


class TestSrcHoldsWhatRuns:
    def test_every_definition_is_reached_or_allowed(self):
        """Every top-level function, class, method and constant in
        ``src/`` is reached from a product root, or only tests reach it
        and :data:`TEST_ONLY_ALLOWED` says why it stays.  Code nothing
        reaches is deleted; test-only code goes with its tests, or into
        ``tests/`` if it is a fixture."""
        defined, product, anywhere = _reach_scan()
        unreached = sorted(set(defined) - anywhere)
        test_only = sorted(anywhere - product - set(TEST_ONLY_ALLOWED))
        stale = sorted(
            qual for qual in TEST_ONLY_ALLOWED
            if qual not in defined or qual in product or qual not in anywhere
        )
        assert unreached == [], "nothing reaches these: delete them"
        assert test_only == [], (
            "only tests reach these: delete them with their tests, move "
            "a fixture into tests/, or allow it here with its reason"
        )
        assert stale == [], (
            "allowed, but gone, reached by a product root, or used by no "
            "test: drop the entry"
        )
