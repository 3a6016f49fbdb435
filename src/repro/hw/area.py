"""FPGA and ASIC area models (paper Figures 4, 15, 16a/b; Tables II, III).

Hardware cannot be synthesized in this environment, so area is an
analytic model *calibrated to the paper's published numbers* (see
DESIGN.md, "Substitutions").  The calibration is deliberately minimal:

* BSW-core LUTs are affine in the band, ``luts = PE_LUTS*(w + C0)`` —
  the linear shape of Figure 4.  ``C0`` is derived from the paper's
  2.3x SeedEx-core-vs-full-band-core LUT improvement, and ``PE_LUTS``
  from Table II's absolute utilization of a SeedEx core on the VU9P.
* The edit-core optimization ladder divides a band-41 BSW core by the
  published factors 1.82 / 3.11 / 6.06 (Figure 16b).
* The ASIC model is Table III verbatim plus derived aggregates.

Every public function returns plain numbers so the benchmark harnesses
can print paper-vs-model rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import constants as paper

VU9P_LUTS = 1_182_000
"""Logic LUTs on the Xilinx Ultrascale+ VU9P (f1.2xlarge FPGA)."""

# -- calibration (see module docstring) --------------------------------------

# Table II: 3 SeedEx cores use 12.47% of VU9P LUTs.
_SEEDEX_CORE_LUTS = paper.TABLE2_UTILIZATION["SeedEx: SeedEx Core"][
    "LUT"
] / 100 * VU9P_LUTS / 3

# SeedEx core = 3 BSW(41) + 1 edit core, and the edit core is a
# band-41 BSW core shrunk by the half-width ladder factor.
_EDIT_FRACTION = 1.0 / (3 * paper.EDIT_HALF_WIDTH_FACTOR)
_BSW41_LUTS = _SEEDEX_CORE_LUTS / (3 * (1 + _EDIT_FRACTION))

# Affine band model bsw(w) = PE_LUTS * (w + C0), anchored so that
# 3*bsw(101) / seedex_core = the published 2.3x improvement.
_TARGET_RATIO = (
    paper.SEEDEX_CORE_LUT_IMPROVEMENT * (1 + _EDIT_FRACTION)
)  # bsw(101)/bsw(41)
_C0 = (101 - _TARGET_RATIO * 41) / (_TARGET_RATIO - 1)
PE_LUTS = _BSW41_LUTS / (41 + _C0)
"""LUTs per banded-SW processing element (calibrated)."""


def bsw_core_luts(band: int) -> float:
    """LUTs of one banded Smith-Waterman core (Figure 4's line)."""
    if band < 1:
        raise ValueError("band must be at least 1")
    return PE_LUTS * (band + _C0)


def edit_core_luts(band: int, optimization: str = "half-width") -> float:
    """LUTs of one edit core at a given optimization level (Fig 16b).

    Levels: ``baseline`` (an affine BSW core), ``reduced-scoring``,
    ``delta`` (3-bit encoding), ``half-width`` (the shipped design).
    """
    factors = {
        "baseline": 1.0,
        "reduced-scoring": paper.EDIT_REDUCED_SCORING_FACTOR,
        "delta": paper.EDIT_DELTA_ENCODING_FACTOR,
        "half-width": paper.EDIT_HALF_WIDTH_FACTOR,
    }
    if optimization not in factors:
        raise ValueError(f"unknown optimization {optimization!r}")
    return bsw_core_luts(band) / factors[optimization]


def seedex_core_luts(band: int = paper.DEFAULT_BAND) -> float:
    """One SeedEx core: 3 narrow BSW cores + 1 half-width edit core."""
    return 3 * bsw_core_luts(band) + edit_core_luts(band)


def full_band_core_luts(band: int = paper.FULL_BAND) -> float:
    """The baseline full-band core: 3 BSW cores at the read length."""
    return 3 * bsw_core_luts(band)


def edit_machine_overhead(band: int = paper.DEFAULT_BAND) -> float:
    """Edit-machine area overhead *over the narrow-band machines*
    (paper Section I: 5.53%)."""
    return edit_core_luts(band) / (3 * bsw_core_luts(band))


def band_utilization_percent(band: int) -> float:
    """Figure 4's y-axis: one core's LUTs as % of the VU9P."""
    return 100.0 * bsw_core_luts(band) / VU9P_LUTS


@dataclass(frozen=True)
class FpgaBreakdown:
    """LUT shares of a SeedEx-only FPGA image (Figure 15)."""

    bsw_cores: float
    edit_cores: float
    controller: float
    io_buffers: float
    aws_shell: float

    def as_dict(self) -> dict[str, float]:
        """Component-name -> LUTs mapping for reporting."""
        return {
            "BSW cores": self.bsw_cores,
            "Edit cores": self.edit_cores,
            "Controller + arbiter": self.controller,
            "I/O buffers": self.io_buffers,
            "AWS shell interface": self.aws_shell,
        }


def seedex_fpga_breakdown(
    n_seedex_cores: int = 12, band: int = paper.DEFAULT_BAND
) -> FpgaBreakdown:
    """LUT breakdown of the SeedEx-only image (12 cores = 36 BSW).

    Controller/buffer/shell shares come from Table II (they are design
    constants, not per-core costs).
    """
    t2 = paper.TABLE2_UTILIZATION
    bsw = 3 * bsw_core_luts(band) * n_seedex_cores
    edit = edit_core_luts(band) * n_seedex_cores
    controller = t2["SeedEx: Controller"]["LUT"] / 100 * VU9P_LUTS
    io = t2["SeedEx: I/O Buffers"]["LUT"] / 100 * VU9P_LUTS
    shell = t2["AWS Interface"]["LUT"] / 100 * VU9P_LUTS
    return FpgaBreakdown(
        bsw_cores=bsw,
        edit_cores=edit,
        controller=controller,
        io_buffers=io,
        aws_shell=shell,
    )


def table2_model(
    band: int = paper.DEFAULT_BAND, resource: str = "LUT"
) -> dict[str, float]:
    """Model-side utilization % for Table II's SeedEx rows.

    LUTs for the SeedEx cores come from the calibrated band model; the
    memory resources (BRAM input buffers and score RAMs, URAM) scale
    per core from Table II's published per-core shares — they hold
    sequences and scores, whose sizes are band-independent.
    """
    t2 = paper.TABLE2_UTILIZATION
    if resource == "LUT":
        core_pct = 100.0 * 3 * seedex_core_luts(band) / VU9P_LUTS
    elif resource in ("BRAM", "URAM"):
        core_pct = t2["SeedEx: SeedEx Core"][resource]
    else:
        raise ValueError(f"unknown resource {resource!r}")
    controller = t2["SeedEx: Controller"][resource]
    io = t2["SeedEx: I/O Buffers"][resource]
    return {
        "SeedEx: Controller": controller,
        "SeedEx: I/O Buffers": io,
        "SeedEx: SeedEx Core": core_pct,
        "SeedEx: Total": controller + io + core_pct,
    }


# -- ASIC model (Table III, Figure 18) ---------------------------------------


@dataclass(frozen=True)
class AsicComponent:
    name: str
    config: str
    area_mm2: float
    power_w: float


def asic_seedex_components() -> list[AsicComponent]:
    """Table III's SeedEx rows."""
    return [
        AsicComponent(name, row["config"], row["area_mm2"], row["power_w"])
        for name, row in paper.TABLE3_ASIC.items()
    ]


def asic_seedex_totals() -> tuple[float, float]:
    """(area mm^2, power W) of the SeedEx ASIC block."""
    comps = asic_seedex_components()
    return (
        sum(c.area_mm2 for c in comps),
        sum(c.power_w for c in comps),
    )


def asic_system_totals() -> tuple[float, float]:
    """(area, power) of the full ERT + SeedEx aligner ASIC."""
    area, power = asic_seedex_totals()
    return (
        area + paper.TABLE3_ERT["area_mm2"],
        power + paper.TABLE3_ERT["power_w"],
    )


