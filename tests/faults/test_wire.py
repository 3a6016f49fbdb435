"""Tests for job packing, CRC framing and result records."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.wire import LINE_BYTES, pack_job, unpack_job
from repro.genome.synth import ExtensionJob

SEQ = st.lists(st.integers(0, 4), min_size=1, max_size=200).map(
    lambda xs: np.array(xs, dtype=np.uint8)
)


def _job(q, t, h0):
    return ExtensionJob(query=q, target=t, h0=h0)


class TestPacking:
    @settings(max_examples=150, deadline=None)
    @given(q=SEQ, t=SEQ, h0=st.integers(0, 200))
    def test_roundtrip(self, q, t, h0):
        job = _job(q, t, h0)
        lines = pack_job(job)
        assert all(len(line) == LINE_BYTES for line in lines)
        back = unpack_job(lines)
        assert (back.query == job.query).all()
        assert (back.target == job.target).all()
        assert back.h0 == job.h0

    def test_typical_job_fits_few_lines(self):
        # 101bp query + 149bp target: 250 chars at 3 bits ~ 94 bytes
        # + header => 2 lines, matching the paper's bandwidth budget.
        q = np.zeros(101, dtype=np.uint8)
        t = np.zeros(149, dtype=np.uint8)
        assert len(pack_job(_job(q, t, 25))) == 2

    def test_rejects_out_of_range(self):
        q = np.zeros(4, dtype=np.uint8)
        with pytest.raises(ValueError):
            pack_job(_job(q, q, 1 << 16))
        bad = np.array([9], dtype=np.uint8)
        with pytest.raises(ValueError):
            pack_job(_job(bad, q, 5))

    def test_truncated_input_rejected(self):
        q = np.zeros(120, dtype=np.uint8)
        lines = pack_job(_job(q, q, 5))
        with pytest.raises(ValueError):
            unpack_job(lines[:1])
        with pytest.raises(ValueError):
            unpack_job([lines[0][:4]])


# -- CRC framing and the faultable seams --------------------------------


class TestCorruptionDetection:
    """pack -> corrupt -> unpack must always raise, never mis-parse."""

    @settings(max_examples=120, deadline=None)
    @given(
        q=SEQ,
        t=SEQ,
        h0=st.integers(0, 200),
        bit=st.integers(0, 10_000),
    )
    def test_any_single_bitflip_detected(self, q, t, h0, bit):
        from repro.faults.wire import CorruptLineError

        lines = pack_job(_job(q, t, h0))
        blob = bytearray(b"".join(lines))
        bit %= len(blob) * 8
        blob[bit // 8] ^= 1 << (bit % 8)
        corrupted = [
            bytes(blob[k : k + LINE_BYTES])
            for k in range(0, len(blob), LINE_BYTES)
        ]
        with pytest.raises(CorruptLineError):
            unpack_job(corrupted)

    @settings(max_examples=60, deadline=None)
    @given(q=SEQ, t=SEQ, h0=st.integers(0, 200), drop=st.integers(0, 99))
    def test_dropped_line_detected(self, q, t, h0, drop):
        from repro.faults.wire import CorruptLineError

        lines = pack_job(_job(q, t, h0))
        del lines[drop % len(lines)]
        with pytest.raises((CorruptLineError, ValueError)):
            unpack_job(lines)

    @settings(max_examples=60, deadline=None)
    @given(q=SEQ, t=SEQ, h0=st.integers(0, 200), cut=st.integers(0, 63))
    def test_truncated_line_detected(self, q, t, h0, cut):
        from repro.faults.wire import CorruptLineError

        lines = pack_job(_job(q, t, h0))
        lines[-1] = lines[-1][:cut]
        with pytest.raises((CorruptLineError, ValueError)):
            unpack_job(lines)

    def test_reordered_lines_detected(self):
        from repro.faults.wire import CorruptLineError

        rng = np.random.default_rng(8)
        q = rng.integers(0, 4, size=101).astype(np.uint8)
        t = rng.integers(0, 4, size=149).astype(np.uint8)
        lines = pack_job(_job(q, t, 25))
        assert len(lines) >= 2
        lines[0], lines[1] = lines[1], lines[0]
        with pytest.raises(CorruptLineError):
            unpack_job(lines)

    def test_error_carries_field_and_offset(self):
        from repro.faults.wire import CorruptLineError

        q = np.zeros(120, dtype=np.uint8)
        lines = pack_job(_job(q, q, 5))
        assert len(lines) == 2
        with pytest.raises(CorruptLineError) as err:
            unpack_job(lines[:1])
        assert err.value.field
        blob = bytearray(b"".join(lines))
        blob[-1] ^= 0x01  # flip inside the padding: CRC still sees it
        with pytest.raises(CorruptLineError) as err:
            unpack_job(
                [bytes(blob[k : k + LINE_BYTES]) for k in range(0, len(blob), LINE_BYTES)]
            )
        assert err.value.field == "crc"


class TestResultRecord:
    def _record(self):
        from repro.faults.wire import ResultRecord

        return ResultRecord(lscore=87, lpos=(93, 101), gscore=83, gpos=99)

    def test_roundtrip(self):
        from repro.faults.wire import RESULT_BYTES, ResultRecord

        rec = self._record()
        blob = rec.pack()
        assert len(blob) == RESULT_BYTES
        assert ResultRecord.unpack(blob) == rec

    @settings(max_examples=120, deadline=None)
    @given(
        lscore=st.integers(-(2**15), 2**15 - 1),
        li=st.integers(0, 2**16 - 1),
        lj=st.integers(0, 2**16 - 1),
        gscore=st.integers(-(2**15), 2**15 - 1),
        gpos=st.integers(-(2**15), 2**15 - 1),
        bit=st.integers(0, 95),
    )
    def test_any_record_bitflip_detected(
        self, lscore, li, lj, gscore, gpos, bit
    ):
        from repro.faults.wire import CorruptRecordError, ResultRecord

        rec = ResultRecord(
            lscore=lscore, lpos=(li, lj), gscore=gscore, gpos=gpos
        )
        blob = bytearray(rec.pack())
        blob[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(CorruptRecordError):
            ResultRecord.unpack(bytes(blob))

    def test_truncation_detected(self):
        from repro.faults.wire import CorruptRecordError, ResultRecord

        blob = self._record().pack()
        for cut in range(len(blob)):
            with pytest.raises(CorruptRecordError):
                ResultRecord.unpack(blob[:cut])

    def test_out_of_range_rejected_at_pack(self):
        from repro.faults.wire import ResultRecord

        with pytest.raises(ValueError):
            ResultRecord(lscore=2**15, lpos=(0, 0), gscore=0, gpos=0).pack()
        with pytest.raises(ValueError):
            ResultRecord(lscore=0, lpos=(2**16, 0), gscore=0, gpos=0).pack()

    def test_from_result_matches_engine_fields(self):
        from repro.align import banded
        from repro.align.scoring import BWA_MEM_SCORING
        from repro.faults.wire import ResultRecord

        rng = np.random.default_rng(21)
        q = rng.integers(0, 4, size=60).astype(np.uint8)
        res = banded.extend(q, q.copy(), BWA_MEM_SCORING, 30)
        rec = ResultRecord.from_result(res)
        back = ResultRecord.unpack(rec.pack())
        assert back.lscore == res.lscore
        assert back.lpos == tuple(res.lpos)
        assert back.gscore == res.gscore
        assert back.gpos == res.gpos
