"""Hypothesis stateful tests: liquid accounting and the robot.

These model-based tests throw random operation sequences at the stateful
components and check the conservation laws a lab cares about:

- **liquid is conserved**: stock + syringe + cell + waste volumes always
  sum to the initial inventory, whatever order of withdraw/dispense/
  drain operations occurs (or fails);
- **vials are conserved**: the robot never duplicates or loses a vial
  across any pick/move/place sequence, legal or rejected;
- **polled items are conserved**: every item appended to a cursor log
  and passed by a reader's cursor was delivered once, counted in one
  ``gap`` or filtered out, whatever capacities, page sizes, filters and
  producer restarts occur.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.chemistry.cell import ElectrochemicalCell
from repro.chemistry.species import ferrocene_solution
from repro.cursorlog import CursorLog, CursorTail, poll_reply
from repro.errors import ReproError
from repro.instruments.jkem.devices import SyringePump
from repro.instruments.jkem.plumbing import PortMap, Reservoir
from repro.instruments.robot import MobileRobot

INITIAL_STOCK = 40.0


class LiquidAccounting(RuleBasedStateMachine):
    """Random pump operations; total liquid volume is invariant."""

    def __init__(self):
        super().__init__()
        self.cell = ElectrochemicalCell(capacity_ml=15.0)
        self.stock = Reservoir("stock", ferrocene_solution(2.0), INITIAL_STOCK)
        self.waste = Reservoir("local-waste", ferrocene_solution(0.0), 0.0)
        ports = PortMap()
        ports.connect(1, self.stock)
        ports.connect(2, self.cell)
        ports.connect(3, self.waste)
        self.pump = SyringePump(syringe_volume_ml=10.0, ports=ports)

    volumes = st.floats(min_value=0.1, max_value=12.0)
    ports = st.sampled_from([1, 2, 3])

    @rule(port=ports)
    def select_port(self, port):
        self.pump.set_port(port)

    @rule(volume=volumes)
    def withdraw(self, volume):
        try:
            self.pump.withdraw(volume)
        except ReproError:
            pass  # rejected operations must not move liquid

    @rule(volume=volumes)
    def dispense(self, volume):
        try:
            self.pump.dispense(volume)
        except ReproError:
            pass

    @rule()
    def drain_cell_to_nowhere_is_not_allowed(self):
        # drain() is a deliberate disposal; route it to waste to keep
        # the books balanced, as the lab procedure would
        removed = self.cell.drain()
        self.waste.fill(removed)

    @invariant()
    def total_volume_conserved(self):
        total = (
            self.stock.volume_ml
            + self.waste.volume_ml
            + self.cell.volume_ml
            + self.pump.held_volume_ml
        )
        assert total == pytest.approx(INITIAL_STOCK, abs=1e-6)

    @invariant()
    def nothing_negative(self):
        assert self.stock.volume_ml >= -1e-9
        assert self.cell.volume_ml >= -1e-9
        assert self.pump.held_volume_ml >= -1e-9

    @invariant()
    def syringe_within_capacity(self):
        assert self.pump.held_volume_ml <= self.pump.syringe_volume_ml + 1e-9


class RobotVialConservation(RuleBasedStateMachine):
    """Random robot commands; the set of vials is invariant."""

    def __init__(self):
        super().__init__()
        self.robot = MobileRobot()
        self.vials = {
            f"vial-{i}": Reservoir(f"vial-{i}", ferrocene_solution(), 1.0)
            for i in range(2)
        }
        self.robot.stage_vial("electrochemistry", self.vials["vial-0"])
        self.robot.stage_vial("storage", self.vials["vial-1"])

    stations = st.sampled_from(["electrochemistry", "hplc", "storage"])

    @rule(station=stations)
    def move(self, station):
        self.robot.move_to(station)

    @rule()
    def pick(self):
        try:
            self.robot.pick()
        except ReproError:
            pass

    @rule()
    def place(self):
        try:
            self.robot.place()
        except ReproError:
            pass

    @invariant()
    def vials_conserved(self):
        visible = [
            self.robot.vial_at(name)
            for name in ("electrochemistry", "hplc", "storage")
        ]
        held = [self.robot.holding] if self.robot.holding else []
        everywhere = [v for v in visible if v is not None] + held
        names = sorted(v.name for v in everywhere)
        assert names == sorted(self.vials)
        # no duplication: each object appears exactly once
        assert len({id(v) for v in everywhere}) == len(everywhere)

    @invariant()
    def at_most_one_in_gripper(self):
        assert self.robot.holding is None or hasattr(self.robot.holding, "name")


class CursorLogConservation(RuleBasedStateMachine):
    """Random appends and polls over a CursorLog read by a CursorTail.

    The model books the fate of every sequence number the reader's
    cursor passes: ``delivered``, ``gap`` (evicted before it was read)
    or ``filtered``. Within one incarnation of the log the cursor never
    moves backwards and nothing is booked twice.
    """

    capacities = st.integers(min_value=1, max_value=8)

    @initialize(capacity=capacities)
    def start(self, capacity):
        self.tail = CursorTail(
            lambda cursor, limit, match: poll_reply(
                "test-1", "log", self.log.read_since(cursor, limit, match)
            )
        )
        self._new_incarnation(capacity)

    def _new_incarnation(self, capacity):
        self.log = CursorLog(capacity)
        self.capacity = capacity
        self.fate = {}

    @rule(n=st.integers(min_value=1, max_value=12))
    def append(self, n):
        for _ in range(n):
            self.log.append(lambda seq: seq)

    @rule(
        limit=st.integers(min_value=-1, max_value=6),
        modulus=st.sampled_from([None, 2, 3]),
    )
    def poll(self, limit, modulus):
        match = None if modulus is None else (lambda seq: seq % modulus == 0)
        latest = self.log.latest_seq
        oldest = max(1, latest - self.capacity + 1)
        before = self.tail.cursor
        items, gap = self.tail.poll(limit=limit, match=match)
        after = self.tail.cursor
        assert before <= after <= latest
        assert items == sorted(items)
        assert all(before < seq <= after for seq in items)
        assert len(items) <= max(limit, 0)
        if limit >= 1 and len(items) < limit:
            assert after == latest  # a short page reads to the end
        booked_gap = 0
        for seq in range(before + 1, after + 1):
            assert seq not in self.fate
            if seq in items:
                self.fate[seq] = "delivered"
            elif seq < oldest:
                self.fate[seq] = "gap"
                booked_gap += 1
            else:
                assert match is not None and not match(seq)
                self.fate[seq] = "filtered"
        assert gap == booked_gap

    @rule(capacity=capacities)
    def restart(self, capacity):
        """A new incarnation: the tail's next poll meets an empty log,
        whose cursor 0 the tail must take over."""
        self._new_incarnation(capacity)
        assert self.tail.poll(limit=1, match=None) == ([], 0)
        assert self.tail.cursor == 0

    @invariant()
    def every_passed_item_booked_once(self):
        assert sorted(self.fate) == list(range(1, self.tail.cursor + 1))


TestLiquidAccounting = LiquidAccounting.TestCase
TestLiquidAccounting.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestRobotVialConservation = RobotVialConservation.TestCase
TestRobotVialConservation.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestCursorLogConservation = CursorLogConservation.TestCase
TestCursorLogConservation.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
