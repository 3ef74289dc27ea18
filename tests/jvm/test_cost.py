"""Cost model coverage tests."""

import pytest

from repro.jvm.cost import DEFAULT_COSTS_NS, OpCostTable, group_of
from repro.jvm.opcodes import BY_MNEMONIC


class TestGrouping:
    def test_every_opcode_has_a_group(self):
        for mnemonic in BY_MNEMONIC:
            group = group_of(mnemonic)
            assert group in DEFAULT_COSTS_NS, (
                f"{mnemonic} maps to unpriced group {group}")

    def test_relative_costs_sensible(self):
        costs = DEFAULT_COSTS_NS
        assert costs["idiv"] > costs["imul"] > costs["ialu"]
        assert costs["math_exp"] > costs["math_sqrt"] > costs["falu"]
        assert costs["alloc"] > costs["array"] > costs["local"]
        assert costs["invoke"] > costs["branch"]

    def test_group_examples(self):
        assert group_of("iaload") == "array"
        assert group_of("invokevirtual") == "invoke"
        assert group_of("fcmpl") == "falu"
        assert group_of("newarray") == "alloc"
        assert group_of("i2f") == "convert"


class TestAccumulation:
    def test_charge_and_reset(self):
        model = OpCostTable()
        model.charge("iadd")
        model.charge("iadd")
        model.charge("fmul")
        assert model.instructions == 3
        assert model.counts["ialu"] == 2
        assert model.total_ns == pytest.approx(
            2 * DEFAULT_COSTS_NS["ialu"] + DEFAULT_COSTS_NS["fmul"])
        model.reset()
        assert model.instructions == 0
        assert model.total_ns == 0.0

    def test_math_surcharge(self):
        model = OpCostTable()
        model.charge_math("exp")
        model.charge_math("sqrt")
        model.charge_math("min")
        assert model.counts["math_exp"] == 1
        assert model.counts["math_sqrt"] == 1
        assert model.counts["math_cheap"] == 1

    def test_total_seconds(self):
        model = OpCostTable()
        model.total_ns = 2.5e9
        assert model.total_seconds == pytest.approx(2.5)
