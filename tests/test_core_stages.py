"""Unit tests for the transaction stage machine."""

from __future__ import annotations

import pytest

from repro.core.errors import InvalidTransition
from repro.core.stages import TxStage, check_transition


def _targets(stage: TxStage) -> set:
    """The stages ``check_transition`` lets ``stage`` move to."""
    legal = set()
    for target in TxStage:
        try:
            check_transition(stage, target)
        except InvalidTransition:
            continue
        legal.add(target)
    return legal


class TestTransitions:
    @pytest.mark.parametrize(
        "src,dst",
        [
            (TxStage.CREATED, TxStage.READING),
            (TxStage.CREATED, TxStage.REJECTED),
            (TxStage.READING, TxStage.PENDING),
            (TxStage.READING, TxStage.COMMITTED),
            (TxStage.READING, TxStage.ABORTED),
            (TxStage.PENDING, TxStage.GUESSED),
            (TxStage.PENDING, TxStage.COMMITTED),
            (TxStage.PENDING, TxStage.ABORTED),
            (TxStage.GUESSED, TxStage.COMMITTED),
            (TxStage.GUESSED, TxStage.ABORTED),
        ],
    )
    def test_legal(self, src, dst):
        check_transition(src, dst)  # must not raise

    @pytest.mark.parametrize(
        "src,dst",
        [
            (TxStage.CREATED, TxStage.PENDING),
            (TxStage.CREATED, TxStage.COMMITTED),
            (TxStage.CREATED, TxStage.GUESSED),
            (TxStage.READING, TxStage.GUESSED),
            (TxStage.COMMITTED, TxStage.ABORTED),
            (TxStage.ABORTED, TxStage.COMMITTED),
            (TxStage.REJECTED, TxStage.READING),
            (TxStage.GUESSED, TxStage.PENDING),
            (TxStage.PENDING, TxStage.READING),
        ],
    )
    def test_illegal(self, src, dst):
        with pytest.raises(InvalidTransition):
            check_transition(src, dst)

    def test_terminal_stages(self):
        for stage in (TxStage.COMMITTED, TxStage.ABORTED, TxStage.REJECTED):
            assert stage.terminal
            assert _targets(stage) == set()
        for stage in (TxStage.CREATED, TxStage.READING, TxStage.PENDING, TxStage.GUESSED):
            assert not stage.terminal
            assert _targets(stage)

    def test_every_stage_has_rules(self):
        for stage in TxStage:
            _targets(stage)  # must not KeyError
