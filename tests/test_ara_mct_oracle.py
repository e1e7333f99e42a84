"""Differential oracle: in its limit case the agent protocol is `mct`.

Take `ara` with theta at least the VM count, `latency` 0, unbounded
deadlines, no events and an arrival window wider than 0, so that arrival
times are distinct. Every round then runs at its user's arrival instant
against an exact registry: it recommends every VM that fits, the hosts quote
`available_time + W / cpu` against ground truth, and `select_best` takes the
least (completion, vm_id). That is `mct`'s rule in
`baselines._assign_in_order`, so both runs must book every batch alike and
report the same metrics, with `==`. A change to the recommendation order,
the capacity index, the quote formula, the tie-break, lease release or the
kernel's order within one instant breaks it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from cloudsched.harness import run_simulation
from cloudsched.scenario import ScenarioConfig

from conftest import ledger_rows

worlds = st.fixed_dictionaries({
    "seed": st.integers(0, 10_000),
    "users": st.integers(1, 40),
    "hosts": st.integers(1, 3),
    "vms_per_host": st.sampled_from([(1, 1), (1, 3), (2, 4), (10, 20)]),
    "tasks_per_user": st.sampled_from([(1, 2), (5, 10)]),
    "arrival_window": st.tuples(st.just(0.0), st.floats(1.0, 300.0)),
})


@settings(max_examples=100, deadline=None)
@given(world=worlds)
def test_ara_in_its_limit_case_books_as_mct(world):
    config = ScenarioConfig(scheduler="mct", latency=0.0, deadline=None,
                            event_probability=0.0, **world)
    mct = run_simulation(config)
    ara = run_simulation(config.replaced(scheduler="ara", theta=1000))
    assert not mct.truncated and not ara.truncated
    assert ledger_rows(ara) == ledger_rows(mct)
    assert ara.metrics == mct.metrics
