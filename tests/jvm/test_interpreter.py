"""Behavioral tests for the JVM interpreter."""

import math

import pytest
from hypothesis import given, strategies as hst

from repro.errors import JVMRuntimeError
from repro.jvm import (
    ClassRegistry,
    CodeBuilder,
    Interpreter,
    JClass,
    OpCostTable,
    assemble,
    make_tuple_class,
)
from repro.jvm.interpreter import JArray


def _run(builder: CodeBuilder, descriptor: str, args,
         cost: OpCostTable | None = None):
    method = assemble("f", descriptor, builder, is_static=True)
    jclass = JClass(name="T")
    jclass.methods.append(method)
    registry = ClassRegistry()
    registry.define(jclass)
    interp = Interpreter(registry, cost_model=cost)
    return interp.invoke("T", "f", list(args), descriptor)


class TestIntSemantics:
    def test_wrapping_add(self):
        b = CodeBuilder()
        b.emit("iload", 0)
        b.emit("iload", 1)
        b.emit("iadd")
        b.emit("ireturn")
        assert _run(b, "(II)I", [2**31 - 1, 1]) == -(2**31)

    def test_division_truncates_toward_zero(self):
        b = CodeBuilder()
        b.emit("iload", 0)
        b.emit("iload", 1)
        b.emit("idiv")
        b.emit("ireturn")
        assert _run(b, "(II)I", [-7, 2]) == -3  # Python // would give -4

    def test_remainder_sign_follows_dividend(self):
        b = CodeBuilder()
        b.emit("iload", 0)
        b.emit("iload", 1)
        b.emit("irem")
        b.emit("ireturn")
        assert _run(b, "(II)I", [-7, 2]) == -1

    def test_division_by_zero_raises(self):
        b = CodeBuilder()
        b.emit("iload", 0)
        b.emit("iconst_0")
        b.emit("idiv")
        b.emit("ireturn")
        with pytest.raises(JVMRuntimeError, match="zero"):
            _run(b, "(I)I", [1])

    def test_shift_masks_count(self):
        b = CodeBuilder()
        b.emit("iload", 0)
        b.emit("bipush", 33)  # 33 & 31 == 1
        b.emit("ishl")
        b.emit("ireturn")
        assert _run(b, "(I)I", [3]) == 6

    def test_iushr_logical(self):
        b = CodeBuilder()
        b.emit("iload", 0)
        b.emit("iconst_1")
        b.emit("iushr")
        b.emit("ireturn")
        assert _run(b, "(I)I", [-2]) == 0x7FFFFFFF

    @given(hst.integers(min_value=-10**6, max_value=10**6),
           hst.integers(min_value=1, max_value=10**4))
    def test_div_rem_identity(self, a, bval):
        b = CodeBuilder()
        b.emit("iload", 0)
        b.emit("iload", 1)
        b.emit("idiv")
        b.emit("iload", 0)
        b.emit("iload", 1)
        b.emit("irem")
        b.emit("iload", 1)
        b.emit("imul")
        b.emit("iadd")
        # (a / b) + (a % b) * b  is NOT a; build a*1 check differently:
        b.emit("ireturn")
        got = _run(b, "(II)I", [a, bval])
        q = int(a / bval)
        r = a - q * bval
        assert got == q + r * bval


class TestFloatsAndDoubles:
    def test_double_arithmetic(self):
        b = CodeBuilder()
        b.emit("dload", 0)
        b.emit("dload", 2)
        b.emit("dmul")
        b.emit("dreturn")
        assert _run(b, "(DD)D", [1.5, 2.0]) == 3.0

    def test_fcmpg_nan_for_less_than(self):
        # `a < b` with NaN must be false: fcmpg pushes +1 on NaN.
        b = CodeBuilder()
        b.emit("fload", 0)
        b.emit("fload", 1)
        b.emit("fcmpg")
        b.emit("iflt", "yes")
        b.emit("iconst_0")
        b.emit("ireturn")
        b.label("yes")
        b.emit("iconst_1")
        b.emit("ireturn")
        assert _run(b, "(FF)I", [math.nan, 1.0]) == 0
        assert _run(b, "(FF)I", [0.5, 1.0]) == 1

    def test_float_div_by_zero_is_inf(self):
        b = CodeBuilder()
        b.emit("fload", 0)
        b.emit("fconst_0")
        b.emit("fdiv")
        b.emit("freturn")
        assert _run(b, "(F)F", [1.0]) == math.inf

    def test_d2i_truncates(self):
        b = CodeBuilder()
        b.emit("dload", 0)
        b.emit("d2i")
        b.emit("ireturn")
        assert _run(b, "(D)I", [-2.9]) == -2


class TestArrays:
    def test_new_and_store_load(self):
        b = CodeBuilder()
        b.emit("bipush", 4)
        b.emit("newarray", 10)  # int[]
        b.emit("astore", 0)
        b.emit("aload", 0)
        b.emit("iconst_2")
        b.emit("bipush", 99)
        b.emit("iastore")
        b.emit("aload", 0)
        b.emit("iconst_2")
        b.emit("iaload")
        b.emit("ireturn")
        assert _run(b, "()I", []) == 99

    def test_bounds_checked(self):
        b = CodeBuilder()
        b.emit("aload", 0)
        b.emit("bipush", 10)
        b.emit("iaload")
        b.emit("ireturn")
        with pytest.raises(JVMRuntimeError, match="out of bounds"):
            _run(b, "([I)I", [JArray("I", [0] * 3)])

    def test_arraylength(self):
        b = CodeBuilder()
        b.emit("aload", 0)
        b.emit("arraylength")
        b.emit("ireturn")
        assert _run(b, "([F)I", [JArray("F", [0.0] * 7)]) == 7


class TestStringsAndMath:
    def test_string_charat_and_length(self):
        b = CodeBuilder()
        b.emit("aload", 0)
        b.emit("iconst_1")
        b.emit("invokevirtual", "java/lang/String", "charAt", "(I)C")
        b.emit("aload", 0)
        b.emit("invokevirtual", "java/lang/String", "length", "()I")
        b.emit("iadd")
        b.emit("ireturn")
        assert _run(b, "(Ljava/lang/String;)I", ["abc"]) == ord("b") + 3

    def test_charat_bounds(self):
        b = CodeBuilder()
        b.emit("aload", 0)
        b.emit("bipush", 9)
        b.emit("invokevirtual", "java/lang/String", "charAt", "(I)C")
        b.emit("ireturn")
        with pytest.raises(JVMRuntimeError):
            _run(b, "(Ljava/lang/String;)I", ["ab"])

    def test_math_exp(self):
        b = CodeBuilder()
        b.emit("dload", 0)
        b.emit("invokestatic", "java/lang/Math", "exp", "(D)D")
        b.emit("dreturn")
        assert math.isclose(_run(b, "(D)D", [1.0]), math.e)

    def test_math_max_int(self):
        b = CodeBuilder()
        b.emit("iload", 0)
        b.emit("iload", 1)
        b.emit("invokestatic", "java/lang/Math", "max", "(II)I")
        b.emit("ireturn")
        assert _run(b, "(II)I", [3, 9]) == 9


class TestObjects:
    def test_tuple_construction_via_bytecode(self):
        registry = ClassRegistry()
        tup = make_tuple_class(("I", "D"))
        registry.define(tup)

        b = CodeBuilder()
        b.emit("new", tup.name)
        b.emit("dup")
        b.emit("bipush", 5)
        b.emit("dload", 0)
        b.emit("invokespecial", tup.name, "<init>", "(ID)V")
        b.emit("astore", 2)
        b.emit("aload", 2)
        b.emit("invokevirtual", tup.name, "_2", "()D")
        b.emit("dreturn")
        method = assemble("f", "(D)D", b, is_static=True)
        jclass = JClass(name="T")
        jclass.methods.append(method)
        registry.define(jclass)
        interp = Interpreter(registry)
        assert interp.invoke("T", "f", [2.25], "(D)D") == 2.25

    def test_getfield_missing_raises(self):
        registry = ClassRegistry()
        b = CodeBuilder()
        b.emit("aload", 0)
        b.emit("getfield", "X", "nope", "I")
        b.emit("ireturn")
        method = assemble("f", "()I", b)
        jclass = JClass(name="X")
        jclass.methods.append(method)
        registry.define(jclass)
        interp = Interpreter(registry)
        obj = interp.new_instance("X")
        with pytest.raises(JVMRuntimeError, match="no field"):
            interp.invoke("X", "f", [obj])


class TestCostModel:
    def test_counts_accumulate(self):
        cost = OpCostTable()
        b = CodeBuilder()
        b.emit("iconst_1")
        b.emit("iconst_2")
        b.emit("iadd")
        b.emit("ireturn")
        _run(b, "()I", [], cost=cost)
        assert cost.instructions == 4
        assert cost.counts["const"] == 2
        assert cost.counts["ialu"] == 1
        assert cost.total_ns > 0

    def test_math_charged_extra(self):
        cost = OpCostTable()
        b = CodeBuilder()
        b.emit("dconst_1")
        b.emit("invokestatic", "java/lang/Math", "exp", "(D)D")
        b.emit("dreturn")
        _run(b, "()D", [], cost=cost)
        assert cost.counts.get("math_exp") == 1

    def test_max_steps_guard(self):
        b = CodeBuilder()
        b.label("spin")
        b.emit("goto", "spin")
        method = assemble("f", "()V", b, is_static=True)
        jclass = JClass(name="T")
        jclass.methods.append(method)
        registry = ClassRegistry()
        registry.define(jclass)
        interp = Interpreter(registry, max_steps=1000)
        with pytest.raises(JVMRuntimeError, match="max_steps"):
            interp.invoke("T", "f", [], "()V")
