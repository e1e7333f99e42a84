"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line. Desk-scale configurations keep the whole module within a
few minutes of wall time."""

import json
import random

import pytest

from cloudsched import model
from cloudsched.ara import select_best
from cloudsched.baselines import (CENTRAL_KINDS, assign_mct, assign_met,
                                  assign_min_min, assign_round_robin)
from cloudsched.harness import csv_bytes, result_row, run_simulation
from cloudsched.model import BatchState
from cloudsched.scenario import ScenarioConfig

import oracles
from conftest import assert_no_overlap, make_request, make_vm, placed

SEEDS = (1, 2, 3, 4, 5)
THETAS = (1, 3, 5, 10, 15, 20)


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance] criterion-{criterion} {status}: {detail}")
    assert ok, f"criterion-{criterion} {detail}"


def spearman(xs, ys) -> float:
    def ranks(vals):
        order = sorted(range(len(vals)), key=lambda i: vals[i])
        out = [0] * len(vals)
        for rank, idx in enumerate(order):
            out[idx] = rank
        return out
    rx, ry = ranks(xs), ranks(ys)
    n = len(xs)
    d2 = sum((a - b) ** 2 for a, b in zip(rx, ry))
    return 1 - 6 * d2 / (n * (n * n - 1))


@pytest.fixture(scope="module")
def theta_sweep():
    """makespan[theta][seed], variance[theta][seed] for the desk sweep."""
    makespan = {t: {} for t in THETAS}
    variance = {t: {} for t in THETAS}
    for seed in SEEDS:
        for theta in THETAS:
            config = ScenarioConfig(seed=seed, users=500, hosts=10, theta=theta)
            metrics = run_simulation(config).metrics
            makespan[theta][seed] = metrics.makespan
            variance[theta][seed] = metrics.utilization_variance
    return makespan, variance


def test_criterion_1_theta_makespan_trend(theta_sweep):
    makespan, _ = theta_sweep
    sub = (1, 5, 10, 15, 20)
    means = [sum(makespan[t].values()) / len(SEEDS) for t in sub]
    rho = spearman(list(sub), means)
    endpoints = means[-1] < means[0]
    report(1, endpoints and rho <= -0.8,
           f"mean makespan theta=20 {means[-1]:.1f} vs theta=1 {means[0]:.1f}, "
           f"spearman {rho:.2f}")


def test_criterion_2_theta_variance_trend(theta_sweep):
    _, variance = theta_sweep
    wins = 0
    for seed in SEEDS:
        low = sum(variance[t][seed] for t in (1, 3, 5)) / 3
        high = sum(variance[t][seed] for t in (15, 20)) / 2
        wins += low < high
    low_mean = sum(sum(variance[t].values()) for t in (1, 3, 5)) / (3 * len(SEEDS))
    high_mean = sum(sum(variance[t].values()) for t in (15, 20)) / (2 * len(SEEDS))
    report(2, low_mean < high_mean and wins >= 4,
           f"mean V low-theta {low_mean:.4f} < high-theta {high_mean:.4f}, "
           f"per-seed wins {wins}/5")


def test_criterion_3_rescheduling_superiority():
    base = dict(users=500, hosts=10, theta=5)
    probabilities = (0.2, 0.5, 0.8)
    # deadline range scaled to the generated load from a no-event probe
    probe = run_simulation(ScenarioConfig(seed=SEEDS[0], **base)).metrics
    deadline = (probe.makespan, 2.5 * probe.makespan)
    sr = {kind: {p: {} for p in probabilities} for kind in ("ara",) + CENTRAL_KINDS}
    for kind in sr:
        for seed in SEEDS:
            config = ScenarioConfig(seed=seed, scheduler=kind,
                                    deadline=deadline, **base)
            horizon = run_simulation(config).metrics.makespan
            if kind == "ara":
                assert run_simulation(config).metrics.success_rate >= 0.95, \
                    "no-event success rate below 0.95: deadline scaling is off"
            for p in probabilities:
                cfg = config.replaced(event_probability=p)
                sr[kind][p][seed] = run_simulation(
                    cfg, horizon=horizon).metrics.success_rate
    failures = []
    for p in probabilities:
        for kind in CENTRAL_KINDS:
            wins = sum(sr["ara"][p][s] > sr[kind][p][s] for s in SEEDS)
            if wins < 4:
                failures.append(f"p={p} vs {kind}: {wins}/5")
    summary = {p: round(sum(sr['ara'][p].values()) / len(SEEDS), 3)
               for p in probabilities}
    report(3, not failures,
           f"ara mean SR by p {summary}; shortfalls: {failures or 'none'}")


def test_criterion_4_baseline_ordering():
    # saturated desk instance (about 12 batches per VM, every VM batch-feasible)
    # reproduces the qualitative ordering of the four classical policies
    instance = dict(seed=42, users=1000, hosts=20, vms_per_host=(3, 5),
                    vm_storage=(8.0, 10.0))
    runs = {kind: run_simulation(ScenarioConfig(scheduler=kind, **instance)).metrics
            for kind in CENTRAL_KINDS}
    mk = {k: m.makespan for k, m in runs.items()}
    var = {k: m.utilization_variance for k, m in runs.items()}
    ok = (mk["mct"] < mk["min_min"] * 1.15
          and mk["min_min"] < mk["round_robin"]
          and mk["round_robin"] < mk["met"]
          and var["mct"] < var["met"])
    report(4, ok,
           "makespan " + " ".join(f"{k}={mk[k]:.0f}" for k in
                                  ("mct", "min_min", "round_robin", "met"))
           + f"; V(mct)={var['mct']:.2e} < V(met)={var['met']:.2e}")


def _random_small_instance(rng):
    vms = [make_vm(f"v{i:02d}", cpu=rng.uniform(500, 2500),
                   ram=rng.uniform(1250, 1740), storage=rng.uniform(4, 10),
                   bandwidth=rng.uniform(1000, 2000))
           for i in range(rng.randint(1, 4))]
    batches = [BatchState(make_request(
        f"u{i:05d}",
        workloads=tuple(rng.uniform(10000, 40000)
                        for _ in range(rng.randint(1, 3))),
        ram=rng.uniform(800, 1200), storage=rng.uniform(1, 8),
        bandwidth=rng.uniform(100, 500)))
        for i in range(rng.randint(1, 6))]
    return vms, batches


def _as_tuples(vms, batches):
    vm_tuples = [(vm.vm_id, vm.cpu, vm.ram, vm.storage, vm.bandwidth, 0.0)
                 for vm in vms]
    batch_tuples = []
    for b in batches:
        reqs = b.remaining_requirements()
        batch_tuples.append((b.request.user_id, reqs.total_workload,
                             reqs.max_ram, reqs.max_storage, reqs.max_bandwidth))
    return vm_tuples, batch_tuples


def test_criterion_5_oracle_equivalence():
    rng = random.Random(5150)
    checked = 0
    for _ in range(100):
        for kind in CENTRAL_KINDS:
            vms, batches = _random_small_instance(rng)
            vm_tuples, batch_tuples = _as_tuples(vms, batches)
            if kind == "mct":
                got = placed(assign_mct(batches, vms, 0.0))
                expected = oracles.oracle_mct(batch_tuples, vm_tuples)
            elif kind == "met":
                got = placed(assign_met(batches, vms, 0.0))
                expected = oracles.oracle_met(batch_tuples, vm_tuples)
            elif kind == "min_min":
                got = placed(assign_min_min(batches, vms, 0.0))
                expected = oracles.oracle_min_min(batch_tuples, vm_tuples)
            else:
                got = placed(assign_round_robin(batches, vms, 0.0))
                expected = oracles.oracle_round_robin(batch_tuples, vm_tuples)
            assert got == expected, f"{kind} diverges from its oracle"
            checked += 1
    # select_best against the argmin oracle on every recorded proposal set
    config = ScenarioConfig(seed=6, users=80, hosts=4, theta=4)
    result = run_simulation(config, collect_trace=True)
    rounds = [r for r in result.trace.records if r["kind"] == "round"
              and r["detail"]["proposals"]]
    assert rounds, "no proposal sets recorded"
    for record in rounds:
        proposals = record["detail"]["proposals"]
        best = min((completion, vm) for vm, completion in proposals)
        assert record["detail"]["chosen"] == best[1]
    report(5, True,
           f"{checked} baseline instances and {len(rounds)} proposal sets "
           "match their oracles")


def _covering_formation_deadlines(world, user_id, finish):
    out = []
    for vm in world.vms.values():
        for res in vm.reservations:
            if res.user_id == user_id and \
                    res.start - 1e-6 <= finish <= res.effective_end + 1e-6:
                out.append(res.deadline_at_formation)
    return out


def test_criterion_6_protocol_safety():
    checked_runs = 0
    lease_intervals = 0
    configs = []
    for seed in range(10):
        configs.append(ScenarioConfig(seed=100 + seed, users=120, hosts=4,
                                      theta=4))
        configs.append(ScenarioConfig(seed=200 + seed, users=120, hosts=4,
                                      theta=4, deadline=(400.0, 1000.0),
                                      event_probability=0.5))
    for config in configs[:20]:
        result = run_simulation(config, collect_trace=True)
        world = result.world
        for vm in world.vms.values():
            assert_no_overlap(vm)
        # BUSY lease intervals never overlap per VM
        open_at = {}
        for record in result.trace.records:
            if record["kind"] != "lease":
                continue
            vm = record["detail"]["vm"]
            if record["detail"]["state"] == "BUSY":
                assert vm not in open_at, f"vm {vm} leased twice concurrently"
                open_at[vm] = record["t"]
            else:
                open_at.pop(vm, None)
                lease_intervals += 1
        assert not open_at, "lease left open at quiescence"
        supervise = next(a for a in result.runtime.agents.values()
                         if a.id.kind == "SUPERVISE")
        assert not supervise.registry.busy
        # completed-task finishes honor the deadline at contract formation
        for batch in world.batches.values():
            for finish, ok in zip(batch.finishes, batch.successes):
                if finish is None or not ok:
                    continue
                formations = _covering_formation_deadlines(
                    world, batch.request.user_id, finish)
                assert formations, "successful task with no covering reservation"
                assert finish <= max(formations) + 1e-6
        # conservation: one user's executed intervals never overlap, even
        # across VMs (a replacement releases the old slot when it commits)
        per_user = {}
        for vm in world.vms.values():
            for res in vm.reservations:
                per_user.setdefault(res.user_id, []).append(
                    (res.start, res.effective_end))
        for spans in per_user.values():
            spans.sort()
            for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
                assert s2 >= e1 - 1e-6, "user held two reservations at once"
        runtime = result.runtime
        assert runtime.listeners_resolved + runtime.listeners_timed_out == \
            runtime.listeners_registered
        checked_runs += 1
    report(6, checked_runs == 20,
           f"{checked_runs} traced runs clean ({lease_intervals} lease intervals)")


def test_criterion_7_determinism():
    config = ScenarioConfig(seed=77, users=100, hosts=4, theta=4,
                            deadline=(400.0, 1000.0), event_probability=0.5)
    first = run_simulation(config, collect_trace=True)
    second = run_simulation(config, collect_trace=True)
    rows_equal = csv_bytes([result_row(first)]) == csv_bytes([result_row(second)])
    trace_a = [json.dumps(r, sort_keys=True) for r in first.trace.records]
    trace_b = [json.dumps(r, sort_keys=True) for r in second.trace.records]
    report(7, rows_equal and trace_a == trace_b,
           f"csv rows byte-identical and {len(trace_a)} trace lines identical")


def test_criterion_8_unbounded_deadline_sanity():
    # the full first-experiment configuration: 10000 users, unbounded deadlines
    config = ScenarioConfig(seed=8, users=10000, hosts=10, theta=5)
    metrics = run_simulation(config).metrics
    report(8, metrics.success_rate == 1.0,
           f"success rate {metrics.success_rate} with unbounded deadlines "
           f"({metrics.successful_tasks}/{metrics.total_tasks} tasks)")
