"""Property-based tests for the allocator's QoS contract."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import AllocationError
from repro.core.allocator import ProactiveAllocator, ServerState, VMRequest
from repro.testbed.benchmarks import WorkloadClass

classes = st.sampled_from(list(WorkloadClass))
alphas = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
deadline_factors = st.floats(min_value=1.1, max_value=20.0, allow_nan=False)
residuals = st.tuples(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
)
server_states = st.lists(
    st.tuples(residuals, st.one_of(st.none(), st.integers(min_value=1, max_value=8))),
    min_size=1,
    max_size=4,
)


def outcome(allocator, requests, servers):
    """The plan (with its provenance) or the error type an allocation yields."""
    try:
        plan = allocator.allocate(requests, servers)
    except AllocationError as error:
        return type(error)
    return plan, plan.search_provenance


class TestQoSContract:
    @given(
        batch=st.lists(classes, min_size=1, max_size=5),
        alpha=alphas,
        factor=deadline_factors,
    )
    @settings(max_examples=40, deadline=None)
    def test_satisfied_plans_respect_deadlines(self, database, batch, alpha, factor):
        """Whenever the allocator claims QoS satisfaction, every block's
        estimated completion fits the tightest relevant deadline."""
        deadlines = {
            workload_class: factor * database.reference_time(workload_class)
            for workload_class in WorkloadClass
        }
        requests = [
            VMRequest(f"v{i}", c, max_exec_time_s=deadlines[c])
            for i, c in enumerate(batch)
        ]
        servers = [ServerState(f"s{i}") for i in range(4)]
        try:
            plan = ProactiveAllocator(database, alpha=alpha, strict_qos=True).allocate(
                requests, servers
            )
        except AllocationError:
            return  # infeasible under this deadline: nothing to check
        assert plan.qos_satisfied
        for assignment in plan.assignments:
            block_classes = [
                workload_class
                for index, workload_class in enumerate(
                    (WorkloadClass.CPU, WorkloadClass.MEM, WorkloadClass.IO)
                )
                if assignment.block[index] > 0
            ]
            tightest = min(deadlines[c] for c in block_classes)
            assert assignment.estimate.time_s <= tightest + 1e-9

    @given(batch=st.lists(classes, min_size=1, max_size=4), alpha=alphas)
    @settings(max_examples=30, deadline=None)
    def test_relaxed_mode_always_places(self, database, batch, alpha):
        """Relaxed QoS never refuses a capacity-feasible batch, however
        absurd the deadline."""
        requests = [
            VMRequest(f"v{i}", c, max_exec_time_s=0.5) for i, c in enumerate(batch)
        ]
        servers = [ServerState(f"s{i}") for i in range(4)]
        plan = ProactiveAllocator(database, alpha=alpha, strict_qos=False).allocate(
            requests, servers
        )
        assert len(plan.placements()) == len(batch)
        assert not plan.qos_satisfied

    @given(
        batch=st.lists(classes, min_size=1, max_size=4),
        alpha=alphas,
        factor=deadline_factors,
    )
    @settings(max_examples=30, deadline=None)
    def test_strict_never_beats_relaxed_score_dishonestly(
        self, database, batch, alpha, factor
    ):
        """A strict-QoS plan is also producible by relaxed mode: the
        relaxed optimum can only be at least as good on the blended
        objective (compliance is a constraint, not a bonus)."""
        requests = [
            VMRequest(
                f"v{i}", c, max_exec_time_s=factor * database.reference_time(c)
            )
            for i, c in enumerate(batch)
        ]
        servers = [ServerState(f"s{i}") for i in range(3)]
        relaxed = ProactiveAllocator(database, alpha=alpha, strict_qos=False).allocate(
            requests, servers
        )
        try:
            strict = ProactiveAllocator(database, alpha=alpha, strict_qos=True).allocate(
                requests, servers
            )
        except AllocationError:
            return
        if relaxed.qos_satisfied:
            # Same candidate pool: identical outcomes expected.
            assert strict.score == relaxed.score

    @given(
        batch=st.lists(classes, min_size=1, max_size=5),
        alpha=alphas,
        layout=server_states,
        anytime=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_strictness_is_moot_without_deadlines(
        self, database, batch, alpha, layout, anytime
    ):
        """Deadline-free batches make every candidate compliant, so strict
        and relaxed QoS return the same plan or raise the same error, in
        the exact and the forced-anytime search alike.  This is why one
        strict allocator serves a strategy's best-effort fallback."""
        requests = [VMRequest(f"v{i}", c) for i, c in enumerate(batch)]
        servers = [
            ServerState(f"s{i}", allocated=mix, max_vms=cap)
            for i, (mix, cap) in enumerate(layout)
        ]
        strict, relaxed = (
            ProactiveAllocator(database, alpha=alpha, strict_qos=flag, anytime=anytime)
            for flag in (True, False)
        )
        assert outcome(strict, requests, servers) == outcome(relaxed, requests, servers)
