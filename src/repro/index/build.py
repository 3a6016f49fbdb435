"""Building a persistent index artifact from an encoded reference.

One build computes the suffix array **once** and derives everything
from it: the FM-index adopts the precomputed array instead of sorting
again, and the k-mer tables pack directly over the same reference.
The assembled sections then go through :func:`repro.index.format.
write_artifact`'s atomic write, so a crash mid-build can never leave a
torn artifact where a good one stood.

Builds are deterministic — same reference, same parameters, same
bytes — which is what makes the fingerprint content-addressed: a
deleted-and-rebuilt artifact still resumes a journaled run, while any
real drift refuses.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro import obs
from repro.constants import MIN_SEED_LENGTH
from repro.index import format as fmt
from repro.index.store import LoadedIndex, load_index
from repro.obs import names
from repro.seeding.fmindex import FMIndex
from repro.seeding.kmer_index import KmerIndex
from repro.seeding.suffixarray import build_suffix_array


def build_index(
    reference: np.ndarray,
    path: str | Path,
    *,
    k: int = MIN_SEED_LENGTH,
    sa_sample_rate: int = 8,
) -> LoadedIndex:
    """Build, atomically persist, and re-open one index artifact.

    ``k`` is the k-mer size of the hash tables (matched against the
    aligner's ``min_seed_length`` when k-mer seeding is requested);
    ``sa_sample_rate`` is the FM-index sampled-SA rate.  Returns the
    artifact re-opened through the full load ladder — the build is
    only reported successful once its own bytes verify.
    """
    path = Path(path)
    reference = np.ascontiguousarray(
        np.asarray(reference, dtype=np.uint8)
    )
    with obs.span(names.SPAN_INDEX_BUILD):
        sa = build_suffix_array(reference).astype(np.int64)
        fm = FMIndex(reference, sa_sample_rate=sa_sample_rate, sa=sa)
        kmer = KmerIndex(reference.astype(np.int64), k=k)
        fm_tables = fm.tables()
        kmer_tables = kmer.tables()
        sections = {
            "reference": reference,
            "sa": sa,
            "fm_bwt": fm_tables["bwt"],
            "fm_c": fm_tables["c"],
            "fm_occ": fm_tables["occ"],
            "fm_sample_rows": fm_tables["sample_rows"],
            "fm_sample_pos": fm_tables["sample_pos"],
            "kmer_keys": kmer_tables["sorted_keys"],
            "kmer_positions": kmer_tables["positions"],
        }
        params = {
            "k": int(k),
            "sa_sample_rate": int(sa_sample_rate),
            "fm_sentinel_row": fm.scalars()["sentinel_row"],
        }
        fmt.write_artifact(
            path,
            sections,
            fmt.reference_crc(reference),
            len(reference),
            params,
        )
    return load_index(path, mmap=True, verify=True)
