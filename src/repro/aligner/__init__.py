"""The end-to-end BWA-MEM-style aligner with pluggable extension."""

from repro.aligner.engines import BatchedEngine, make_engine
from repro.aligner.longread import LongReadAligner
from repro.aligner.paired import InsertSizeModel, PairedAligner, ReadPair
from repro.aligner.parallel import (
    EngineSpec,
    StartMethodError,
    align_supervised,
)
from repro.aligner.pipeline import Aligner

__all__ = [
    "Aligner",
    "BatchedEngine",
    "EngineSpec",
    "InsertSizeModel",
    "LongReadAligner",
    "PairedAligner",
    "ReadPair",
    "StartMethodError",
    "align_supervised",
    "make_engine",
]
