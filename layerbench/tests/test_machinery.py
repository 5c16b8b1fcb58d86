"""Tests of the benchmark's own machinery.

Run from the repository root::

    python3 -m pytest -q layerbench/tests
"""

from __future__ import annotations

import pytest

import layerbench  # noqa: F401  (puts src/ on sys.path)
from layerbench import oracle, pace, stats, sysinfo, trace
from layerbench.metrics import END_TO_END, PER_LAYER, per_layer
from layerbench.workloads import TINY, WORKLOADS


# ----------------------------------------------------------------------
# the tail rule
# ----------------------------------------------------------------------
def test_min_samples_leave_ten_beyond_the_tail():
    assert stats.min_samples(99) == 1000
    assert stats.min_samples(90) == 100
    assert stats.min_samples(50) == 20


def test_tail_refuses_with_fewer_than_ten_beyond():
    with pytest.raises(stats.InsufficientSamples):
        stats.tail(list(range(999)), 99)
    with pytest.raises(stats.InsufficientSamples):
        stats.tail([], 90)
    assert stats.tail_or_none(list(range(99)), 90) is None


def test_tail_is_nearest_rank_with_exactly_ten_beyond():
    samples = list(range(1, 1001))  # 1..1000, shuffled order must not matter
    samples.reverse()
    assert stats.tail(samples, 99) == 990
    assert stats.tail(list(range(1, 101)), 90) == 90


# ----------------------------------------------------------------------
# reference pace
# ----------------------------------------------------------------------
def test_pace_scales_each_op_by_the_probes_around_it():
    pacer = pace.Pacer()
    second = 1_000_000_000
    ref = pace.REFERENCE_US
    # probes every 25 ms: 4 s at the reference pace, then 4 s at half speed
    pacer.at = [i * second // 40 for i in range(320)]
    pacer.us = [ref] * 160 + [2 * ref] * 160
    assert pacer.scale([1 * second, 2 * second]).tolist() == [1.0, 1.0]
    assert pacer.scale([6 * second, 9 * second]).tolist() == [0.5, 0.5]
    assert pacer.scale([6 * second], exponent=0.5)[0] == pytest.approx(0.5**0.5)
    # at the hand-over the window's median follows the majority
    assert pacer.scale([4 * second - second // 10])[0] == 1.0
    assert pacer.mean_scale((0, 4 * second)) == 1.0
    assert pacer.busy_s((0, 4 * second)) == pytest.approx(160 * ref / 1e6)


def test_paced_samples_and_setups_use_the_host_pace():
    run = WORKLOADS["hot-local-churn"](5, TINY).execute(0.1)[0]
    assert len(run.pacer.at) >= 2 * pace.BURST
    assert len(run.setup_scale) == len(run.setup_s)
    paced = run.paced("sc")
    scale = run.pacer.scale(run.at["sc"])
    assert paced == pytest.approx([lat * k for lat, k in zip(run.lat["sc"], scale)])
    assert 0 < run.paced_read_seconds()


# ----------------------------------------------------------------------
# self time on nested spans
# ----------------------------------------------------------------------
def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        (0, "root", 0, 100, -1, 1),
        (1, "a", 10, 30, 0, 1),
        (2, "b", 20, 50, 0, 1),  # overlaps a: union is 10..50
        (3, "c", 60, 70, 0, 1),
        (4, "grandchild", 12, 18, 1, 1),
        (5, "stray", 90, 130, 0, 1),  # runs past its parent: clipped at 100
    ]
    own = trace.self_times(spans)
    assert own[0] == 100 - (40 + 10 + 10)
    assert own[1] == 20 - 6
    assert own[2] == 30
    assert own[4] == 6


def test_recorder_links_parents_and_request_ids():
    rec = trace.Recorder()
    with rec.span("outer", rid=7):
        with rec.span("inner"):
            pass
    inner, outer = rec.spans
    assert inner[1] == "inner" and inner[4] == outer[0]
    assert inner[5] == outer[5] == 7
    assert outer[4] == -1
    assert rec.self_us("outer")[0] <= rec.durations_us("outer")[0]


# ----------------------------------------------------------------------
# wrappers fully restored
# ----------------------------------------------------------------------
def test_wrappers_are_fully_restored_after_a_traced_run():
    before = [(owner, attr, vars(owner).get(attr)) for owner, attr in trace.targets()]
    workload = WORKLOADS["cold-uniform"](3, TINY)
    rec = trace.Recorder()
    installed = trace.install(rec)
    patched = [getattr(owner, attr) for owner, attr, _ in before]
    assert all(p is not o for p, (_, _, o) in zip(patched, before))
    try:
        run, state = workload.execute(0.05, rec=rec)
    finally:
        trace.restore(installed)
    for owner, attr, original in before:
        assert vars(owner).get(attr) is original, f"{owner}.{attr} not restored"
    assert rec.spans, "the traced run recorded nothing"
    workload.check(state, run)
    assert run.failed == 0


def test_restore_after_a_failing_install_leaves_nothing_behind(monkeypatch):
    before = [(owner, attr, vars(owner).get(attr)) for owner, attr in trace.targets()]
    broken = trace.PATCHES + (("repro.serve.cache", "QueryCache", "no_such_attr", "x", None),)
    monkeypatch.setattr(trace, "PATCHES", broken)
    with pytest.raises(KeyError):
        trace.install(trace.Recorder())
    for owner, attr, original in before:
        assert vars(owner).get(attr) is original


# ----------------------------------------------------------------------
# tiny runs of every workload, and the perturbation self-test
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_completes_without_failures(name):
    workload = WORKLOADS[name](5, TINY)
    run, state = workload.execute(0.1)
    workload.check(state, run)
    assert run.attempted > 0
    assert run.failed == 0, run.errors
    assert run.failed / run.attempted == 0.0
    assert all(run.lat[op] for op in ("sc", "batch", "smcc", "smcc_l", "update", "publish"))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_perturbed_answer_is_caught(name):
    workload = WORKLOADS[name](5, TINY)
    run, state = workload.execute(0.1)
    i = next(i for i, r in enumerate(run.recorded()) if isinstance(r.answer, int))
    rec = run.recorded()[i]
    run.answers[i] = tuple(rec._replace(answer=rec.answer + 1))
    workload.check(state, run)
    assert run.failed / run.attempted > 0


def test_hot_local_churn_runs_a_fixed_op_stream():
    # the whole update stream is applied whatever the speed, so the mix of
    # reads, updates and publishes is the same on every host
    workload = WORKLOADS["hot-local-churn"](5, TINY)
    run, _ = workload.execute(1.0)
    cycles = len(workload.updates)
    assert cycles == 10
    assert len(run.lat["update"]) == cycles
    assert len(run.lat["publish"]) == cycles // workload.publish_every
    assert sum(len(run.lat[k]) for k in ("sc", "batch", "smcc", "smcc_l")) == cycles * TINY.reads_per_update


def test_traced_tiny_run_reports_every_per_layer_metric():
    workload = WORKLOADS["hot-local-churn"](5, TINY)
    untraced, _ = workload.execute(0.1)
    rec = trace.Recorder()
    installed = trace.install(rec)
    try:
        traced, _ = workload.execute(0.1, rec=rec)
    finally:
        trace.restore(installed)
    values = per_layer(traced, untraced, rec)
    assert [name for name, _ in PER_LAYER] == list(values)
    assert values["serve.cache.hit_ratio"] > 0
    assert values["index.connectivity_graph.build_s"] > 0


def test_metric_tables_have_unique_names():
    names = [n for n, _ in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))


# ----------------------------------------------------------------------
# seeds, oracle normal forms, environment pinning
# ----------------------------------------------------------------------
def test_same_seed_gives_same_inputs_and_another_seed_does_not():
    a, b, c = (WORKLOADS["hot-local-churn"](s, TINY) for s in (9, 9, 10))
    for w in (a, b, c):
        w.prepare(1.0)
    assert a.graph.edge_list() == b.graph.edge_list()
    assert a.pool == b.pool and a.updates == b.updates
    assert a.graph.edge_list() != c.graph.edge_list()
    s1, s2 = (WORKLOADS["shard-open"](4, TINY) for _ in range(2))
    assert s1.schedule(0.2) == s2.schedule(0.2)


def test_oracle_normal_forms_compare_sets_and_errors():
    assert oracle.normal("smcc", ([3, 1, 2], 4)) == oracle.normal("smcc", ([1, 2, 3], 4))
    assert oracle.normal("smcc", ([3, 1, 2], 4)) != oracle.normal("smcc", ([3, 1, 2, 2], 4))
    assert oracle.normal("smcc", ([3, 1, 2], 4)) != oracle.normal("smcc", ([3, 1], 4))
    raised = oracle.record("sc", [1, 2], oracle.Raised("DisconnectedQueryError"), 0)
    assert oracle.normal("sc", raised[2]) == oracle.Raised("DisconnectedQueryError")
    assert oracle.normal("sc_async", 3) == 3
    raised = oracle.Raised("DisconnectedQueryError")
    assert oracle.normal("sc", raised) == raised
    recs = [oracle.Recorded("sc", [1, 2], 2, 0), oracle.Recorded("sc", [1, 3], 5, 0)]
    bad = oracle.mismatches(recs, lambda r: 2)
    assert [r.answer for r, _ in bad] == [5]


def test_pinned_environment_is_unset_and_recorded():
    env = {"REPRO_OBS": "1", "REPRO_JOBS": "2", "PATH": "/bin"}
    unset = sysinfo.pin_environment(env)
    assert unset == {"REPRO_OBS": "1", "REPRO_JOBS": "2"}
    assert env == {"PATH": "/bin"}
