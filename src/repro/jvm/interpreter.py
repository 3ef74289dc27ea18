"""A JVM bytecode interpreter with a calibrated cost model.

This provides the "JVM baseline" of the paper's evaluation (single-threaded
Spark executor) and doubles as the functional oracle: every kernel is run
both here and on the FPGA simulator, and the outputs are compared.

Semantics follow the JVM spec for the supported subset: 32-bit wrapping int
arithmetic, truncating division, slot-accurate operand stack (longs and
doubles occupy two slots), bounds-checked arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from ..errors import JVMRuntimeError
from .classfile import ClassRegistry, Instr, JMethod
from .cost import OpCostTable
from .descriptors import parse_method_descriptor, slot_width
from .opcodes import ATYPE_NAMES

#: Sentinel occupying the second slot of a long/double on stack or locals.
PAD = object()

_INT_MIN, _INT_MAX = -(2**31), 2**31 - 1


def _i32(value: int) -> int:
    """Wrap to signed 32-bit, as Java int arithmetic does."""
    value &= 0xFFFFFFFF
    return value - 0x100000000 if value > _INT_MAX else value


def _i64(value: int) -> int:
    value &= 0xFFFFFFFFFFFFFFFF
    return value - 0x10000000000000000 if value > 2**63 - 1 else value


def _jdiv(a: int, b: int) -> int:
    """Java integer division truncates toward zero."""
    if b == 0:
        raise JVMRuntimeError("division by zero")
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _jrem(a: int, b: int) -> int:
    """Java remainder: sign follows the dividend."""
    return a - _jdiv(a, b) * b


@dataclass
class JObject:
    """An instance on the simulated heap."""

    class_name: str
    fields: dict[str, object] = field(default_factory=dict)


@dataclass
class JArray:
    """A typed array on the simulated heap."""

    elem: str  # element descriptor, e.g. "F", "I", "C", "[F"
    values: list

    def __len__(self) -> int:
        return len(self.values)

    @classmethod
    def new(cls, elem: str, length: int) -> "JArray":
        if length < 0:
            raise JVMRuntimeError(f"negative array size {length}")
        if elem in ("F", "D"):
            zero: object = 0.0
        elif elem in ("I", "J", "S", "B", "C", "Z"):
            zero = 0
        else:
            zero = None
        return cls(elem, [zero] * length)

    def check(self, index: int) -> int:
        if not 0 <= index < len(self.values):
            raise JVMRuntimeError(
                f"array index {index} out of bounds for length "
                f"{len(self.values)}")
        return index


_MATH_UNARY = {
    "exp": math.exp, "log": math.log, "sqrt": math.sqrt,
    "abs": abs, "floor": math.floor, "ceil": math.ceil,
}
_MATH_BINARY = {"min": min, "max": max, "pow": math.pow}


class Interpreter:
    """Executes methods from a :class:`ClassRegistry`.

    ``max_steps`` bounds total executed instructions per top-level invoke,
    protecting tests from infinite loops in generated code.
    """

    def __init__(self, registry: ClassRegistry,
                 cost_model: Optional[OpCostTable] = None,
                 max_steps: int = 200_000_000):
        self.registry = registry
        self.cost = cost_model or OpCostTable()
        self.max_steps = max_steps
        self._steps = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def new_instance(self, class_name: str, **fields) -> JObject:
        """Allocate an instance and set fields directly (host-side setup)."""
        obj = JObject(class_name, dict(fields))
        return obj

    def invoke(self, class_name: str, method_name: str, args: list,
               descriptor: Optional[str] = None):
        """Invoke a method; ``args`` includes the receiver for instance
        methods.  Returns the Java return value (or None for void)."""
        self._steps = 0
        jclass, method = self.registry.resolve_method(
            class_name, method_name,
            descriptor or self._only_descriptor(class_name, method_name))
        return self._run(jclass.name, method, args)

    def _only_descriptor(self, class_name: str, method_name: str) -> str:
        jclass = self.registry.lookup(class_name)
        return jclass.method(method_name).descriptor

    # ------------------------------------------------------------------
    # Frame execution
    # ------------------------------------------------------------------

    def _run(self, class_name: str, method: JMethod, args: list):
        frame_locals = self._layout_locals(method, args)
        stack: list = []
        index_by_offset = {ins.offset: i for i, ins in enumerate(method.code)}
        pc = 0
        code = method.code
        charge = self.cost.charge

        while True:
            if self._steps >= self.max_steps:
                raise JVMRuntimeError(
                    f"exceeded max_steps={self.max_steps} in "
                    f"{class_name}.{method.name}")
            self._steps += 1
            instr = code[pc]
            m = instr.mnemonic
            charge(m)
            result = self._execute(
                m, instr, stack, frame_locals, class_name, method)
            if result is _RETURN_VOID:
                return None
            if isinstance(result, _ReturnValue):
                return result.value
            if isinstance(result, _Jump):
                pc = index_by_offset[result.target]
            else:
                pc += 1

    def _layout_locals(self, method: JMethod, args: list) -> list:
        parsed = method.parsed_descriptor
        frame_locals: list = [None] * max(method.max_locals, 16)
        slot = 0
        arg_types: list[Optional[str]] = []
        if not method.is_static:
            arg_types.append(None)  # receiver
        arg_types.extend(parsed.params)
        if len(args) != len(arg_types):
            raise JVMRuntimeError(
                f"{method.name} expects {len(arg_types)} args, "
                f"got {len(args)}")
        for value, atype in zip(args, arg_types):
            frame_locals[slot] = value
            width = 1 if atype is None else slot_width(atype)
            if width == 2:
                slot += 1
                if slot < len(frame_locals):
                    frame_locals[slot] = PAD
            slot += 1
        return frame_locals

    # ------------------------------------------------------------------
    # Instruction semantics
    # ------------------------------------------------------------------

    def _execute(self, m: str, instr: Instr, stack: list, flocals: list,
                 class_name: str, method: JMethod):
        ops = instr.operands

        # --- constants ---
        if m == "nop":
            return None
        if m == "aconst_null":
            stack.append(None)
            return None
        if m.startswith("iconst_"):
            stack.append(-1 if m.endswith("m1") else int(m[-1]))
            return None
        if m.startswith("lconst_"):
            stack.append(int(m[-1]))
            stack.append(PAD)
            return None
        if m.startswith("fconst_"):
            stack.append(float(m[-1]))
            return None
        if m.startswith("dconst_"):
            stack.append(float(m[-1]))
            stack.append(PAD)
            return None
        if m in ("bipush", "sipush"):
            stack.append(ops[0])
            return None
        if m == "ldc":
            stack.append(ops[0])
            return None
        if m == "ldc2_w":
            stack.append(ops[0])
            stack.append(PAD)
            return None

        # --- locals ---
        if m in ("iload", "fload", "aload"):
            stack.append(flocals[ops[0]])
            return None
        if m in ("lload", "dload"):
            stack.append(flocals[ops[0]])
            stack.append(PAD)
            return None
        if m in ("istore", "fstore", "astore"):
            flocals[ops[0]] = stack.pop()
            return None
        if m in ("lstore", "dstore"):
            _pop_pad(stack)
            flocals[ops[0]] = stack.pop()
            if ops[0] + 1 < len(flocals):
                flocals[ops[0] + 1] = PAD
            return None
        if m == "iinc":
            flocals[ops[0]] = _i32(flocals[ops[0]] + ops[1])
            return None

        # --- arrays ---
        if m in ("iaload", "faload", "aaload", "baload", "caload", "saload"):
            index = stack.pop()
            array = _expect_array(stack.pop())
            stack.append(array.values[array.check(index)])
            return None
        if m in ("laload", "daload"):
            index = stack.pop()
            array = _expect_array(stack.pop())
            stack.append(array.values[array.check(index)])
            stack.append(PAD)
            return None
        if m in ("iastore", "fastore", "aastore", "bastore", "castore",
                 "sastore"):
            value = stack.pop()
            index = stack.pop()
            array = _expect_array(stack.pop())
            if m == "castore":
                value = value & 0xFFFF
            array.values[array.check(index)] = value
            return None
        if m in ("lastore", "dastore"):
            _pop_pad(stack)
            value = stack.pop()
            index = stack.pop()
            array = _expect_array(stack.pop())
            array.values[array.check(index)] = value
            return None
        if m == "arraylength":
            target = stack.pop()
            if isinstance(target, str):
                stack.append(len(target))
            else:
                stack.append(len(_expect_array(target)))
            return None

        # --- stack manipulation ---
        if m == "pop":
            stack.pop()
            return None
        if m == "pop2":
            stack.pop()
            stack.pop()
            return None
        if m == "dup":
            stack.append(stack[-1])
            return None
        if m == "dup_x1":
            stack.insert(-2, stack[-1])
            return None
        if m == "dup_x2":
            stack.insert(-3, stack[-1])
            return None
        if m == "dup2":
            stack.extend(stack[-2:])
            return None
        if m == "swap":
            stack[-1], stack[-2] = stack[-2], stack[-1]
            return None

        # --- int arithmetic ---
        if m in _INT_BINOPS:
            b = stack.pop()
            a = stack.pop()
            stack.append(_INT_BINOPS[m](a, b))
            return None
        if m == "ineg":
            stack.append(_i32(-stack.pop()))
            return None

        # --- long arithmetic (two-slot values) ---
        if m in _LONG_BINOPS:
            shift = m in ("lshl", "lshr")
            if shift:
                b = stack.pop()
            else:
                _pop_pad(stack)
                b = stack.pop()
            _pop_pad(stack)
            a = stack.pop()
            stack.append(_LONG_BINOPS[m](a, b))
            stack.append(PAD)
            return None
        if m == "lneg":
            _pop_pad(stack)
            stack.append(_i64(-stack.pop()))
            stack.append(PAD)
            return None
        if m == "lcmp":
            _pop_pad(stack)
            b = stack.pop()
            _pop_pad(stack)
            a = stack.pop()
            stack.append((a > b) - (a < b))
            return None

        # --- float/double arithmetic ---
        if m in _FLOAT_BINOPS:
            wide = m[0] == "d"
            if wide:
                _pop_pad(stack)
            b = stack.pop()
            if wide:
                _pop_pad(stack)
            a = stack.pop()
            stack.append(_FLOAT_BINOPS[m](a, b))
            if wide:
                stack.append(PAD)
            return None
        if m in ("fneg", "dneg"):
            wide = m[0] == "d"
            if wide:
                _pop_pad(stack)
            stack.append(-stack.pop())
            if wide:
                stack.append(PAD)
            return None
        if m in ("fcmpl", "fcmpg", "dcmpl", "dcmpg"):
            wide = m[0] == "d"
            if wide:
                _pop_pad(stack)
            b = stack.pop()
            if wide:
                _pop_pad(stack)
            a = stack.pop()
            if math.isnan(a) or math.isnan(b):
                stack.append(-1 if m.endswith("l") else 1)
            else:
                stack.append((a > b) - (a < b))
            return None

        # --- conversions ---
        if m in _CONVERSIONS:
            widen_from, func, widen_to = _CONVERSIONS[m]
            if widen_from:
                _pop_pad(stack)
            stack.append(func(stack.pop()))
            if widen_to:
                stack.append(PAD)
            return None

        # --- branches ---
        if m in _IF_ZERO:
            value = stack.pop()
            if _IF_ZERO[m](value):
                return _Jump(ops[0])
            return None
        if m in _IF_ICMP:
            b = stack.pop()
            a = stack.pop()
            if _IF_ICMP[m](a, b):
                return _Jump(ops[0])
            return None
        if m == "if_acmpeq":
            b, a = stack.pop(), stack.pop()
            return _Jump(ops[0]) if a is b else None
        if m == "if_acmpne":
            b, a = stack.pop(), stack.pop()
            return _Jump(ops[0]) if a is not b else None
        if m == "ifnull":
            return _Jump(ops[0]) if stack.pop() is None else None
        if m == "ifnonnull":
            return _Jump(ops[0]) if stack.pop() is not None else None
        if m == "goto":
            return _Jump(ops[0])

        # --- returns ---
        if m == "return":
            return _RETURN_VOID
        if m in ("ireturn", "freturn", "areturn"):
            return _ReturnValue(stack.pop())
        if m in ("lreturn", "dreturn"):
            _pop_pad(stack)
            return _ReturnValue(stack.pop())

        # --- fields ---
        if m == "getfield":
            owner, name, descriptor = ops
            obj = stack.pop()
            if not isinstance(obj, JObject):
                raise JVMRuntimeError(
                    f"getfield {name} on non-object {obj!r}")
            if name not in obj.fields:
                raise JVMRuntimeError(
                    f"object of {obj.class_name} has no field {name}")
            stack.append(obj.fields[name])
            if slot_width(descriptor) == 2:
                stack.append(PAD)
            return None
        if m == "putfield":
            owner, name, descriptor = ops
            if slot_width(descriptor) == 2:
                _pop_pad(stack)
            value = stack.pop()
            obj = stack.pop()
            if not isinstance(obj, JObject):
                raise JVMRuntimeError(
                    f"putfield {name} on non-object {obj!r}")
            obj.fields[name] = value
            return None
        if m in ("getstatic", "putstatic"):
            raise JVMRuntimeError("static fields are not supported")

        # --- allocation ---
        if m == "new":
            stack.append(JObject(ops[0]))
            return None
        if m == "newarray":
            length = stack.pop()
            elem = {"int": "I", "long": "J", "float": "F", "double": "D",
                    "short": "S", "byte": "B", "char": "C",
                    "boolean": "Z"}[ATYPE_NAMES[ops[0]]]
            stack.append(JArray.new(elem, length))
            return None
        if m == "anewarray":
            length = stack.pop()
            stack.append(JArray.new(f"L{ops[0]};", length))
            return None

        # --- invokes ---
        if m in ("invokevirtual", "invokespecial", "invokestatic"):
            return self._invoke_instr(m, ops, stack)

        raise JVMRuntimeError(f"unimplemented opcode {m}")

    # ------------------------------------------------------------------
    # Invocation
    # ------------------------------------------------------------------

    def _invoke_instr(self, m: str, ops: tuple, stack: list):
        owner, name, descriptor = ops
        parsed = parse_method_descriptor(descriptor)
        args: list = []
        for ptype in reversed(parsed.params):
            if slot_width(ptype) == 2:
                _pop_pad(stack)
            args.append(stack.pop())
        args.reverse()
        if m != "invokestatic":
            receiver = stack.pop()
            args.insert(0, receiver)

        result = self._dispatch(m, owner, name, descriptor, args)
        if parsed.return_type != "V":
            stack.append(result)
            if parsed.return_slots == 2:
                stack.append(PAD)
        return None

    def _dispatch(self, m: str, owner: str, name: str, descriptor: str,
                  args: list):
        # Builtin runtime classes.
        if owner == "java/lang/Object" and name == "<init>":
            return None
        if owner == "java/lang/Math":
            self.cost.charge_math(name)
            if name in _MATH_UNARY and len(args) == 1:
                return _MATH_UNARY[name](*args)
            if name in _MATH_BINARY and len(args) == 2:
                return _MATH_BINARY[name](*args)
            raise JVMRuntimeError(f"unsupported Math.{name}{descriptor}")
        if owner == "java/lang/String":
            text = args[0]
            if not isinstance(text, str):
                raise JVMRuntimeError(f"String method on {text!r}")
            if name == "charAt":
                index = args[1]
                if not 0 <= index < len(text):
                    raise JVMRuntimeError(
                        f"charAt({index}) out of range for length {len(text)}")
                return ord(text[index])
            if name == "length":
                return len(text)
            raise JVMRuntimeError(f"unsupported String.{name}")

        # User / builtin-library classes dispatched through the registry.
        if m == "invokevirtual" and isinstance(args[0], JObject):
            owner = args[0].class_name  # dynamic dispatch
        jclass, method = self.registry.resolve_method(owner, name, descriptor)
        return self._run(jclass.name, method, args)


# ---------------------------------------------------------------------------
# Helpers and dispatch tables
# ---------------------------------------------------------------------------


class _Jump:
    __slots__ = ("target",)

    def __init__(self, target: int):
        self.target = target


class _ReturnValue:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


_RETURN_VOID = object()


def _pop_pad(stack: list) -> None:
    top = stack.pop()
    if top is not PAD:
        raise JVMRuntimeError("expected wide-value padding slot on stack")


def _expect_array(value) -> JArray:
    if not isinstance(value, JArray):
        raise JVMRuntimeError(f"expected array, got {value!r}")
    return value


_INT_BINOPS = {
    "iadd": lambda a, b: _i32(a + b),
    "isub": lambda a, b: _i32(a - b),
    "imul": lambda a, b: _i32(a * b),
    "idiv": lambda a, b: _i32(_jdiv(a, b)),
    "irem": lambda a, b: _i32(_jrem(a, b)),
    "ishl": lambda a, b: _i32(a << (b & 31)),
    "ishr": lambda a, b: _i32(a >> (b & 31)),
    "iushr": lambda a, b: _i32((a & 0xFFFFFFFF) >> (b & 31)),
    "iand": lambda a, b: _i32(a & b),
    "ior": lambda a, b: _i32(a | b),
    "ixor": lambda a, b: _i32(a ^ b),
}

_LONG_BINOPS = {
    "ladd": lambda a, b: _i64(a + b),
    "lsub": lambda a, b: _i64(a - b),
    "lmul": lambda a, b: _i64(a * b),
    "ldiv": lambda a, b: _i64(_jdiv(a, b)),
    "lrem": lambda a, b: _i64(_jrem(a, b)),
    "lshl": lambda a, b: _i64(a << (b & 63)),
    "lshr": lambda a, b: _i64(a >> (b & 63)),
    "land": lambda a, b: a & b,
    "lor": lambda a, b: a | b,
    "lxor": lambda a, b: a ^ b,
}

_FLOAT_BINOPS = {
    "fadd": lambda a, b: a + b, "dadd": lambda a, b: a + b,
    "fsub": lambda a, b: a - b, "dsub": lambda a, b: a - b,
    "fmul": lambda a, b: a * b, "dmul": lambda a, b: a * b,
    "fdiv": lambda a, b: _fdiv(a, b), "ddiv": lambda a, b: _fdiv(a, b),
    "frem": lambda a, b: math.fmod(a, b), "drem": lambda a, b: math.fmod(a, b),
}


def _fdiv(a: float, b: float) -> float:
    if b == 0.0:
        if a == 0.0 or math.isnan(a):
            return math.nan
        return math.inf * math.copysign(1.0, a) * math.copysign(1.0, b)
    return a / b


#: (pops_pad, converter, pushes_pad) per conversion opcode.
_CONVERSIONS = {
    "i2l": (False, _i64, True),
    "i2f": (False, float, False),
    "i2d": (False, float, True),
    "l2i": (True, _i32, False),
    "l2f": (True, float, False),
    "l2d": (True, float, True),
    "f2i": (False, lambda v: _i32(int(v)) if math.isfinite(v) else (
        _INT_MAX if v > 0 else (_INT_MIN if v < 0 else 0)), False),
    "f2l": (False, lambda v: _i64(int(v)) if math.isfinite(v) else 0, True),
    "f2d": (False, float, True),
    "d2i": (True, lambda v: _i32(int(v)) if math.isfinite(v) else (
        _INT_MAX if v > 0 else (_INT_MIN if v < 0 else 0)), False),
    "d2l": (True, lambda v: _i64(int(v)) if math.isfinite(v) else 0, True),
    "d2f": (True, float, False),
    "i2b": (False, lambda v: _i32((v & 0xFF) - 256 if (v & 0xFF) > 127
                                  else v & 0xFF), False),
    "i2c": (False, lambda v: v & 0xFFFF, False),
    "i2s": (False, lambda v: _i32((v & 0xFFFF) - 65536
                                  if (v & 0xFFFF) > 32767
                                  else v & 0xFFFF), False),
}

_IF_ZERO = {
    "ifeq": lambda v: v == 0,
    "ifne": lambda v: v != 0,
    "iflt": lambda v: v < 0,
    "ifge": lambda v: v >= 0,
    "ifgt": lambda v: v > 0,
    "ifle": lambda v: v <= 0,
}

_IF_ICMP = {
    "if_icmpeq": lambda a, b: a == b,
    "if_icmpne": lambda a, b: a != b,
    "if_icmplt": lambda a, b: a < b,
    "if_icmpge": lambda a, b: a >= b,
    "if_icmpgt": lambda a, b: a > b,
    "if_icmple": lambda a, b: a <= b,
}
