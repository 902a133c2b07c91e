"""A Hypothesis state machine over one rightmost-pivot run.

Stages (step plus ReorderState.record) interleave with the questions asked
of a running state: prefix_stability, certified_stable and
general_solution, over the rationals and GF(7), with or without an affine
pivot floor. After every stage the state is checked against oracles that
share no code with the engine: dense_reduce for the rows of H, and
ReorderReference for the reordered view and its change log. Q is rebuilt
from the stage log when it is read, so the rows of Q are checked in a rule
of their own, after gaps of any number of stages.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from omegagj import (
    CertificateViolation,
    EliminationState,
    PivotFloor,
    ReorderState,
    certified_stable,
    dense_reduce,
    general_solution,
    make_explicit,
    prefix_stability,
    step,
    transform_rhs,
)
from oracles import ReorderReference, verify_solution
from util import field_for, mk_row, mk_rows, rows_dicts

WIDTH = 10  # columns 0..WIDTH-1


class RunMachine(RuleBasedStateMachine):
    @initialize(
        p=st.sampled_from([None, 7]),
        floor=st.none() | st.tuples(st.integers(0, 1), st.integers(-2, 2)),
        data=st.data(),
    )
    def start(self, p, floor, data):
        self.p = p
        self.field = field_for(p)
        self.floor = floor
        cert = None if floor is None else PivotFloor.affine(*floor)
        self.state = EliminationState(self.field, certificate=cert)
        self.rs = ReorderState(self.state)
        self.ref = ReorderReference()
        self.inputs = []
        self.history = []  # oracle rows of H after each stage
        self.passage = []  # oracle rows of Q after the last stage
        self.pending = 0  # stages logged since Q was last read
        self.pinned = set()  # oracle pivot columns so far
        self.frozen = []  # (k, rows 0..k) of every prefix found certified
        self.stage(data)  # no floor binds stage 0, so the run has a row

    def _promised_floor(self):
        n = self.state.stage
        if self.floor is None or n < 0:
            return None
        slope, intercept = self.floor
        return max(slope * m + intercept for m in range(n + 1))

    @rule(data=st.data())
    def stage(self, data):
        if self.p is None:
            values = st.fractions(min_value=-3, max_value=3, max_denominator=3)
        else:
            values = st.integers(0, self.p - 1)
        d = data.draw(st.dictionaries(st.integers(0, WIDTH - 1), values, max_size=4))
        d = {c: v for c, v in d.items() if v}
        floor = self._promised_floor()
        try:
            step(self.state, mk_row(self.field, d))
        except CertificateViolation as exc:
            # the stage is rejected whole: the reduced row would pivot
            # below the floor, and the state is left as it was
            assert floor is not None and exc.column < floor
            assert len(self.state.rows) == len(self.inputs)
            return
        self.inputs.append(d)
        self.pending += 1
        self.rs.record()
        rows, passage, history = dense_reduce(self.inputs, self.p)
        assert rows_dicts(self.state.rows) == rows
        assert self.state.pivot_history == history
        assert floor is None or history[-1] is None or history[-1] >= floor
        self.history.append(rows)
        self.passage = passage
        self.pinned = {c for c in history if c is not None}
        self.ref.record(self.state.stage, rows, passage)

    @rule()
    def passage_matches_oracle(self):
        # the first read replays every stage logged since the last one
        assert rows_dicts(self.state.passage) == self.passage
        assert rows_dicts(self.rs.q_passage) == self.ref.q_passage
        self.pending = 0

    @invariant()
    def reorder_matches_reference(self):
        assert self.rs.last_changed == self.ref.last_changed
        assert self.rs.permutation == self.ref.permutation
        assert rows_dicts(self.rs.q_rows) == self.ref.q_rows

    @invariant()
    def log_holds_the_stages_since_q_was_read(self):
        assert len(self.state._log) == self.pending

    @invariant()
    def certified_prefixes_stay_fixed(self):
        for k, prefix in self.frozen:
            assert rows_dicts(self.state.rows[: k + 1]) == prefix

    @rule(data=st.data())
    def stability(self, data):
        n = self.state.stage
        k = data.draw(st.integers(0, n))
        assert prefix_stability(self.rs, k) == self.ref.drop_stability(k)
        engine_last = max(
            next(s for s in range(n, -1, -1)
                 if s == i or self.history[s][i] != self.history[s - 1][i])
            for i in range(k + 1)
        )
        assert prefix_stability(self.state, k) == engine_last

    @rule(data=st.data())
    def certificate(self, data):
        k = data.draw(st.integers(0, self.state.stage))
        floor = self._promised_floor()
        prefix = self.history[-1][: k + 1]
        # a later pivot is at least the floor and unpinned, so a prefix is
        # frozen unless one of its rows holds such a column
        expected = floor is not None and all(
            c < floor or c in self.pinned for r in prefix for c in r)
        status = certified_stable(self.state, k)
        assert status == ("certified" if expected else "provisional")
        if expected:
            self.frozen.append((k, prefix))

    @rule(horizon=st.integers(0, WIDTH + 2))
    def solve(self, horizon):
        k = transform_rhs(self.state.passage, "c")
        self.pending = 0
        res = general_solution(self.state, k, horizon)
        pivots = {c for c in self.state.pivot_history if c is not None}
        assert res.general.free_columns == [j for j in range(horizon + 1) if j not in pivots]
        zero = [w for w, r in enumerate(self.history[-1]) if not r]
        assert res.constraints == [k[w] for w in zero if not k[w].is_zero()]
        widest = max((max(d) for d in self.inputs if d), default=-1)
        matrix = make_explicit(self.field, mk_rows(self.field, self.inputs))
        assert verify_solution(
            matrix, res.general, "c", self.state.stage, res.constraints
        ) == (horizon >= widest)


TestRunMachine = RunMachine.TestCase
TestRunMachine.settings = settings(max_examples=50, stateful_step_count=12, deadline=None)
