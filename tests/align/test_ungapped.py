"""The ungapped rule: settled jobs equal the DP, and only they settle.

:mod:`repro.align.ungapped` replaces the DP for the jobs whose
diagonal provably wins, so every claim it makes is checked here
against the per-job reference, ``banded.extend(prune=False)``, and
against the dense fill and walk it saves the traceback wave.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import banded, ungapped
from repro.align.cigar import Cigar
from repro.align.fullmatrix import fill_extension_batch, traceback_path
from repro.align.scoring import BWA_MEM_SCORING, AffineGap
from repro.aligner.waves import traceback_wave
from repro.genome.sequence import AMBIGUOUS_CODE, encode

SCORE_FIELDS = ("lscore", "lpos", "gscore", "gpos", "max_off")

schemes = st.builds(
    AffineGap,
    match=st.integers(1, 3),
    mismatch=st.integers(0, 6),
    gap_open=st.integers(0, 8),
    gap_extend=st.integers(0, 3),
    gap_extend_ins=st.integers(0, 3),
    gap_extend_del=st.integers(0, 3),
)


def _loss(query, target, scoring) -> int:
    """``D``: the diagonal's loss over the query's columns, one
    substitution at a time."""
    return sum(
        scoring.match - scoring.substitution(int(a), int(b))
        for a, b in zip(query, target)
    )


def _rule(query, target, h0, scoring) -> bool:
    """The rule, written out per job."""
    cap = scoring.gap_open + min(
        scoring.gap_extend_ins, scoring.gap_extend_del
    )
    if not 0 < len(query) <= len(target):
        return False
    d = _loss(query, target, scoring)
    return d < cap and h0 > d


@st.composite
def jobs(draw, square: bool = False):
    """A ``(query, target, h0)`` job near its diagonal: the target
    copies the query with a few substitutions (N included), then runs
    on, or stops short; ``h0`` ranges from 0 to past ``D``."""
    qlen = draw(st.integers(0, 16))
    query = np.array(
        draw(st.lists(st.integers(0, AMBIGUOUS_CODE), min_size=qlen,
                      max_size=qlen)),
        dtype=np.uint8,
    )
    target = query.copy()
    for _ in range(draw(st.integers(0, 2))):
        if qlen:
            target[draw(st.integers(0, qlen - 1))] = draw(
                st.integers(0, AMBIGUOUS_CODE)
            )
    if not square:
        extra = draw(st.integers(-3, 8))
        if extra < 0:
            target = target[: max(0, qlen + extra)]
        else:
            tail = draw(st.lists(st.integers(0, 3), min_size=extra,
                                 max_size=extra))
            target = np.concatenate(
                [target, np.array(tail, dtype=np.uint8)]
            )
    return query, target


class TestClosedForm:
    @settings(max_examples=400, deadline=None)
    @given(job=jobs(), scoring=schemes, data=st.data())
    def test_settled_result_is_the_dp(self, job, scoring, data):
        """Whenever the rule settles a job, its closed form is the DP's
        answer, at the full band and at any narrow band; and the rule
        settles exactly the jobs its three conditions name."""
        query, target = job
        d = _loss(query, target, scoring)
        h0 = data.draw(st.integers(0, d + 6))
        [res] = ungapped.settle([(query, target, h0)], scoring)
        assert (res is not None) == _rule(query, target, h0, scoring)
        if res is None:
            return
        band = data.draw(st.none() | st.integers(0, 12))
        want = banded.extend(query, target, scoring, h0, w=band,
                             prune=False)
        for field in SCORE_FIELDS:
            assert getattr(res, field) == getattr(want, field), field
        assert (res.qlen, res.tlen, res.h0) == (len(query), len(target), h0)
        assert res.cells_computed == 0 and res.is_full_band
        assert res.boundary_e.size == res.boundary_f.size == 0

    @settings(max_examples=100, deadline=None)
    @given(
        wave=st.lists(jobs(), min_size=1, max_size=8),
        scoring=schemes,
        h0s=st.lists(st.integers(0, 30), min_size=8, max_size=8),
    )
    def test_a_wave_settles_as_its_jobs_do(self, wave, scoring, h0s):
        """One vectorised pass over a wave gives each job the result it
        gets alone: the segments of the pass do not leak."""
        wave = [(q, t, h0) for (q, t), h0 in zip(wave, h0s)]
        alone = [ungapped.settle([job], scoring)[0] for job in wave]
        together = ungapped.settle(wave, scoring)
        assert [r is None for r in together] == [r is None for r in alone]
        for a, b in zip(alone, together):
            if a is not None:
                assert a.scores() == b.scores()
        assert ungapped.settled(
            *zip(*wave), scoring
        ).tolist() == [r is not None for r in together]


class TestTheRuleStopsAtItsEdges:
    # One mismatch at the first base: D = m + x.
    QUERY = encode("ACGTACGTAC")
    TARGET = encode("CCGTACGTACGG")

    def test_not_at_the_gap_cost(self):
        """``D == go + min(ge)`` is not settled; one more gap-open
        point is."""
        d = 5  # BWA-MEM: m + x
        edge = AffineGap(match=1, mismatch=4, gap_open=4, gap_extend=1)
        inside = AffineGap(match=1, mismatch=4, gap_open=5, gap_extend=1)
        assert _loss(self.QUERY, self.TARGET, edge) == d
        for scoring, settles in ((edge, False), (inside, True)):
            [res] = ungapped.settle(
                [(self.QUERY, self.TARGET, 30)], scoring
            )
            assert (res is not None) == settles

    def test_not_at_h0_equal_to_the_loss(self):
        """``h0 == D`` touches the floor and is not settled; ``D + 1``
        is."""
        out = ungapped.settle(
            [(self.QUERY, self.TARGET, 5), (self.QUERY, self.TARGET, 6)],
            BWA_MEM_SCORING,
        )
        assert [r is None for r in out] == [True, False]

    def test_not_when_the_target_is_shorter(self):
        [res] = ungapped.settle(
            [(self.QUERY, self.TARGET[:9], 30)], BWA_MEM_SCORING
        )
        assert res is None

    def test_unequal_gap_extensions_take_the_cheaper(self):
        """Under ``ge_ins != ge_del`` the cap is the cheaper gap: D = 5
        with ``go + ge_del = 5`` is not settled, though ``go + ge_ins``
        is 8."""
        scoring = AffineGap(match=1, mismatch=4, gap_open=4,
                            gap_extend_ins=4, gap_extend_del=1)
        [res] = ungapped.settle([(self.QUERY, self.TARGET, 30)], scoring)
        assert res is None


class TestSettledWalks:
    @settings(max_examples=300, deadline=None)
    @given(job=jobs(square=True), scoring=schemes, data=st.data())
    def test_walk_is_all_matches(self, job, scoring, data):
        """A settled square job walks ``jM``, exactly what filling its
        codes and walking them back gives."""
        query, target = job
        h0 = data.draw(st.integers(0, _loss(query, target, scoring) + 6))
        if not ungapped.settled([query], [target], [h0], scoring)[0]:
            return
        [bits] = fill_extension_batch([query], [target], scoring, [h0])
        end = (len(target), len(query))
        assert traceback_path(bits, query, target, scoring, end) == (
            Cigar.from_ops([(len(query), "M")])
        )

    def test_traceback_wave_matches_the_fill_on_every_job(self):
        """The wave walks settled jobs with no fill and fills the rest,
        and every CIGAR is the one a fill and walk give."""
        rng = np.random.default_rng(5)
        s = BWA_MEM_SCORING
        jobs_, settled = [], 0
        for k in range(40):
            query = rng.integers(0, 4, 30).astype(np.uint8)
            target = query.copy()
            target[rng.integers(0, 30, k % 3)] = rng.integers(0, 4)
            if k % 4 == 3:  # a deletion: the endpoint leaves the diagonal
                target = np.insert(target, 15, 2)
            end = (len(query) + (k % 4 == 3), len(query))
            jobs_.append((query, target, 10 + k % 7, end))
            settled += bool(end[0] == end[1] and ungapped.settled(
                [query], [target[: end[0]]], [10 + k % 7], s
            )[0])
        assert 0 < settled < len(jobs_)
        want = []
        for query, target, h0, (i, j) in jobs_:
            [bits] = fill_extension_batch([query[:j]], [target[:i]], s, [h0])
            want.append(
                traceback_path(bits, query[:j], target[:i], s, (i, j))
            )
        assert traceback_wave(s, jobs_) == want
