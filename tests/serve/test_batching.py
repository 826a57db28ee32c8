"""Lockstep batching: bitwise parity with solo ``evaluate()``.

Tentpole acceptance: a batched member's report is field-for-field
identical to what a solo call at the same seed produces (``wall_time_s``
excepted — the server stamps a shared one), across mixed groups of
oblivious and cyclic schedules, different seeds/reps, and curve metrics,
including one :class:`CensoredEstimateWarning` per censored member in
the facade's canonical wording.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro import PrecedenceDAG, SUUInstance
from repro.core.schedule import IDLE, CyclicSchedule, ObliviousSchedule
from repro.errors import CensoredEstimateWarning
from repro.evaluate import EvaluationRequest, evaluate
from repro.evaluate.dispatch import select_route
from repro.serve import BatchMember, batch_signature, batchable_request, run_batched_group
from repro.serve.batching import run_max_steps_for


@pytest.fixture
def inst():
    rng = np.random.default_rng(31)
    p = rng.uniform(0.2, 0.9, size=(2, 6))
    return SUUInstance(p, PrecedenceDAG(6, [(0, 2), (1, 2), (3, 5)]), name="batch")


def _oblivious(inst, rounds=12, seed=0):
    rng = np.random.default_rng(seed)
    table = rng.integers(0, inst.n, size=(rounds, inst.m)).astype(np.int32)
    return ObliviousSchedule(table)


def _cyclic(inst):
    cycle = np.tile(np.arange(inst.n, dtype=np.int32)[:, None], (1, inst.m))
    return CyclicSchedule(ObliviousSchedule.empty(inst.m), ObliviousSchedule(cycle))


def _member(inst, schedule, **kwargs):
    request = EvaluationRequest(mode="mc", **kwargs)
    route = select_route(inst, schedule, request)
    assert batchable_request(request, route, schedule), "fixture must be batchable"
    return BatchMember(inst, schedule, request, route)


def _solo_dict(inst, schedule, request):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = evaluate(inst, schedule, request=request)
    d = report.to_dict()
    d.pop("wall_time_s")
    return d


def _batched_dicts(members):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        reports = run_batched_group(members)
    out = []
    for r in reports:
        d = r.to_dict()
        d.pop("wall_time_s")
        out.append(d)
    return out


class TestBitwiseParity:
    def test_mixed_group_matches_solo(self, inst):
        # Oblivious + cyclic members at different seeds and reps, one of
        # them asking for the completion curve: each must be bitwise what
        # a solo run at the same seed produces.
        members = [
            _member(inst, _oblivious(inst), reps=80, seed=1, max_steps=200),
            _member(inst, _oblivious(inst, seed=5), reps=33, seed=2, max_steps=200),
            _member(inst, _cyclic(inst), reps=57, seed=3, max_steps=200),
            _member(
                inst,
                _cyclic(inst),
                reps=40,
                seed=4,
                metrics=("makespan", "completion_curve"),
                horizon=25,
                max_steps=200,
            ),
        ]
        batched = _batched_dicts(members)
        for member, got in zip(members, batched):
            want = _solo_dict(member.instance, member.schedule, member.request)
            assert got == want

    def test_same_seed_members_are_identical(self, inst):
        sched = _oblivious(inst)
        members = [
            _member(inst, sched, reps=50, seed=9, max_steps=150),
            _member(inst, sched, reps=50, seed=9, max_steps=150),
        ]
        a, b = _batched_dicts(members)
        assert a == b

    def test_curve_only_member_observes_horizon_steps(self, inst):
        # Curve-only semantics: the run observes exactly `horizon` steps
        # (legacy completion_curve convention), solo and batched alike.
        request = EvaluationRequest(
            mode="mc", metrics=("completion_curve",), horizon=12, reps=60, seed=11
        )
        assert run_max_steps_for(request) == 12
        sched = _oblivious(inst)
        member = BatchMember(inst, sched, request, select_route(inst, sched, request))
        (got,) = _batched_dicts([member])
        assert got == _solo_dict(inst, sched, request)
        assert len(got["completion_curve"]) == 12


class TestCensoringParity:
    def test_one_warning_per_censored_member_same_wording(self, inst):
        # A 3-step budget censors most replications on this instance.
        request = EvaluationRequest(mode="mc", reps=40, seed=13, max_steps=3)
        sched = _oblivious(inst)
        route = select_route(inst, sched, request)
        assert batchable_request(request, route, sched)

        with pytest.warns(CensoredEstimateWarning) as solo_rec:
            solo = evaluate(inst, sched, request=request)
        assert solo.truncated > 0

        with pytest.warns(CensoredEstimateWarning) as batch_rec:
            reports = run_batched_group([BatchMember(inst, sched, request, route)])

        assert len(solo_rec) == len(batch_rec) == 1
        assert str(batch_rec[0].message) == str(solo_rec[0].message)
        assert reports[0].truncated == solo.truncated


class TestEnvelope:
    def test_plain_mc_is_batchable(self, inst):
        sched = _oblivious(inst)
        request = EvaluationRequest(mode="mc", reps=50, seed=1)
        assert batchable_request(request, select_route(inst, sched, request), sched)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "mc", "reps": 50, "seed": 1, "rtol": 0.05},  # adaptive precision
            {"mode": "mc", "reps": 50, "seed": 1, "shards": 2},  # sharded backend
            {"mode": "mc", "reps": 50, "seed": 1, "require_finished": True},
            {"mode": "mc", "reps": 50, "seed": 1, "engine": "scalar"},
        ],
    )
    def test_outside_the_lockstep_envelope_routes_solo(self, inst, kwargs):
        sched = _oblivious(inst)
        request = EvaluationRequest(**kwargs)
        route = select_route(inst, sched, request)
        assert not batchable_request(request, route, sched)

    def test_exact_route_is_not_batchable(self, inst):
        sched = _cyclic(inst)
        request = EvaluationRequest(mode="exact")
        route = select_route(inst, sched, request)
        assert route.mode == "exact"
        assert not batchable_request(request, route, sched)


class TestSignature:
    def test_rename_insensitive_grouping(self, inst):
        renamed = SUUInstance(inst.p.copy(), inst.dag, name="other-label")
        sched = _oblivious(inst)
        req = EvaluationRequest(mode="mc", reps=50, seed=1)
        assert batch_signature(inst, sched, req) == batch_signature(renamed, sched, req)

    def test_seeds_and_reps_share_a_group_but_budgets_do_not(self, inst):
        sched = _oblivious(inst)
        a = batch_signature(inst, sched, EvaluationRequest(mode="mc", reps=50, seed=1))
        b = batch_signature(inst, sched, EvaluationRequest(mode="mc", reps=99, seed=7))
        c = batch_signature(
            inst, sched, EvaluationRequest(mode="mc", reps=50, seed=1, max_steps=77)
        )
        assert a == b
        assert a != c

    def test_schedule_kinds_never_mix(self, inst):
        req = EvaluationRequest(mode="mc", reps=50, seed=1)
        a = batch_signature(inst, _oblivious(inst), req)
        b = batch_signature(inst, _cyclic(inst), req)
        assert a != b


class TestKernelBranchParity:
    """Lockstep-kernel branches the groups above never reach.

    The kernel computes the shared eligibility reduction lazily: not at
    all without precedence edges, and on a step only once some member
    reaches its attempt test.  Neither may change any member's bits.
    """

    def test_group_without_precedence_edges_matches_solo(self, inst):
        free = SUUInstance(inst.p.copy(), name="no-edges")
        members = [
            _member(free, _oblivious(free), reps=45, seed=21, max_steps=120),
            _member(free, _cyclic(free), reps=30, seed=22, max_steps=120),
            _member(
                free,
                _oblivious(free, rounds=30, seed=3),
                reps=25,
                seed=23,
                metrics=("makespan", "completion_curve"),
                horizon=20,
                max_steps=120,
            ),
        ]
        batched = _batched_dicts(members)
        for member, got in zip(members, batched):
            assert got == _solo_dict(member.instance, member.schedule, member.request)

    def test_members_skipping_idle_steps_do_not_shift_eligibility(self, inst):
        # Idle rows make a member skip its attempt test on those steps
        # while the others attempt, so the shared reduction is first
        # needed by a different member from step to step.
        def idle_every_other(schedule, offset):
            table = schedule.table.copy()
            table[offset::2] = IDLE
            return ObliviousSchedule(table)

        # A cycle that works job j, then idles one step, for every j.
        cycle = np.full((2 * inst.n, inst.m), IDLE, dtype=np.int32)
        cycle[::2] = np.arange(inst.n, dtype=np.int32)[:, None]
        idle_cyclic = CyclicSchedule(ObliviousSchedule.empty(inst.m), ObliviousSchedule(cycle))
        members = [
            _member(inst, idle_every_other(_oblivious(inst, 40, 1), 0), reps=35, seed=31,
                    max_steps=300),
            _member(inst, _oblivious(inst, 40, 2), reps=20, seed=32, max_steps=300),
            _member(inst, idle_cyclic, reps=40, seed=33, max_steps=300),
            _member(inst, idle_every_other(_oblivious(inst, 40, 4), 1), reps=15, seed=34,
                    max_steps=300),
        ]
        batched = _batched_dicts(members)
        for member, got in zip(members, batched):
            assert got == _solo_dict(member.instance, member.schedule, member.request)
