"""Flattened three-address-code (TAC) execution engine for JVM bytecode.

The stack :class:`~repro.jvm.interpreter.Interpreter` decodes each
instruction on every execution: a long mnemonic-comparison chain, operand
tuple unpacking, per-op stack churn, and a cost-table lookup per executed
instruction.  That decode cost dominates every interpreter-bound path in
the repo (Blaze JVM fallback, the fuzz oracle, the Fig. 4 JVM baseline).

This module lowers each method **once** into a register-based
three-address IR and executes that with a tight dispatch loop:

* **Operand-stack elimination.**  For verifiable bytecode the operand
  stack depth (in slots) at every instruction is a static property.  An
  abstract interpretation over slot *tags* (``value`` / ``pad``) assigns
  each stack slot a fixed register, so ``iadd`` becomes the register op
  ``s0 = iadd s0, s1`` with the indices burned in at lower time — no
  pushes, no pops, no PAD sentinels at run time.

* **Precomputed jump targets.**  Branch operands are lowered from
  bytecode offsets to op indices; the dispatch loop is
  ``pc = ops[pc](regs, interp)``.

* **Constants and descriptors resolved at lower time.**  ``ldc``
  payloads, field descriptors, argument slot lists of invokes, and the
  conversion/ALU helper for each op are captured in the op's closure.

* **Block-granular cost accounting.**  The calibrated
  :class:`~repro.jvm.cost.OpCostTable` charges are pre-aggregated per
  basic block at lower time and applied once per block execution.  The
  final ``counts`` / ``total_ns`` / ``instructions`` equal the stack
  engine's for any completed run (an instruction trap mid-block may
  overcharge by at most the block remainder; nothing reads the cost
  model after a trap).

Semantics are bit-identical to the stack engine — the differential
battery in ``tests/jvm/test_tac_equivalence.py`` and the 2x2 fuzz oracle
(:mod:`repro.fuzz.oracle`) enforce exactly that, including trap type and
message parity.  The lone permitted divergence: ``max_steps`` is
enforced at block (not instruction) granularity, so a run cut off by the
budget may stop a few instructions later than the stack engine would
(same exception type, same message prefix).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..errors import BytecodeError, JVMRuntimeError
from .classfile import ClassRegistry, Instr, JMethod
from .cost import DEFAULT_COSTS_NS, OpCostTable, group_of
from .descriptors import parse_method_descriptor, slot_width
from .interpreter import (
    _CONVERSIONS,
    _FLOAT_BINOPS,
    _IF_ICMP,
    _IF_ZERO,
    _INT_BINOPS,
    _LONG_BINOPS,
    _MATH_BINARY,
    _MATH_UNARY,
    JArray,
    JObject,
    _expect_array,
    _i32,
)
from .opcodes import ATYPE_NAMES

#: Sentinel returned by a closure to signal "method returned" (the value,
#: possibly None, is in the frame's return register).
_RETURN = -1

#: Slot tags of the abstract stack: a value, or the padding slot of a
#: wide (long/double) value.
_V, _P = "v", "p"

_NEWARRAY_ELEM = {"int": "I", "long": "J", "float": "F", "double": "D",
                  "short": "S", "byte": "B", "char": "C", "boolean": "Z"}


@dataclass
class TACMethod:
    """One lowered method: closures, listing, and per-block charges."""

    class_name: str
    name: str
    descriptor: str
    #: register file size (locals + max stack depth + return register).
    n_regs: int
    #: index of the return-value register.
    ret_slot: int
    #: register index of each argument (receiver included), in order.
    arg_slots: tuple
    #: one compiled closure per (reachable) bytecode instruction.
    ops: list = field(default_factory=list)
    #: ``(instr_count, total_ns, ((group, count), ...))`` per op index for
    #: block leaders, ``None`` elsewhere.
    charges: list = field(default_factory=list)
    #: human-readable listing, one line per op (golden snapshots).
    texts: list = field(default_factory=list)

    def listing(self) -> str:
        """The reviewable TAC listing of this method."""
        lines = [f"method {self.class_name}.{self.name}{self.descriptor}  "
                 f"regs={self.n_regs} args={list(self.arg_slots)}"]
        for i, text in enumerate(self.texts):
            charge = self.charges[i]
            if charge is not None:
                lines.append(f"  .block instrs={charge[0]} "
                             f"ns={charge[1]:.2f}")
            lines.append(f"  {i:4d}: {text}")
        return "\n".join(lines)


class _Lowerer:
    """Lowers one :class:`JMethod` into a :class:`TACMethod`."""

    def __init__(self, class_name: str, method: JMethod):
        self.class_name = class_name
        self.method = method
        self.code = method.code
        if not self.code:
            raise BytecodeError(
                f"cannot lower bodiless method {class_name}.{method.name}")
        self.index_by_offset = {ins.offset: i
                                for i, ins in enumerate(self.code)}
        #: locals register file base (stack registers live above it);
        #: matches the stack engine's frame-local allocation.
        self.nlocals = max(method.max_locals, 16)
        self.entry_tags: dict[int, tuple] = {}
        self.max_depth = 0

    # -- pass 1: abstract interpretation of slot tags ------------------

    def _simulate(self) -> None:
        work = [(0, ())]
        while work:
            i, tags = work.pop()
            while True:
                known = self.entry_tags.get(i)
                if known is not None:
                    if known != tags:
                        raise BytecodeError(
                            f"inconsistent stack shapes at op {i} of "
                            f"{self.class_name}.{self.method.name}: "
                            f"{known} vs {tags}")
                    break
                self.entry_tags[i] = tags
                self.max_depth = max(self.max_depth, len(tags))
                instr = self.code[i]
                exit_tags, successors = self._step(i, instr, tags)
                self.max_depth = max(self.max_depth, len(exit_tags))
                if not successors:
                    break
                for target in successors[1:]:
                    work.append((target, exit_tags))
                i = successors[0]
                tags = exit_tags

    def _target(self, offset: int) -> int:
        try:
            return self.index_by_offset[offset]
        except KeyError:
            raise BytecodeError(
                f"branch to unknown offset {offset} in "
                f"{self.class_name}.{self.method.name}") from None

    def _step(self, i: int, instr: Instr, tags: tuple) -> tuple:
        """Abstract (tags, successors) transfer for one instruction."""
        m = instr.mnemonic
        ops = instr.operands
        nxt = [i + 1]

        def pop(n: int) -> tuple:
            if len(tags) < n:
                raise BytecodeError(
                    f"stack underflow at op {i} ({m}) in "
                    f"{self.class_name}.{self.method.name}")
            return tags[:len(tags) - n]

        if m in _PUSH1:
            return tags + (_V,), nxt
        if m in _PUSH2:
            return tags + (_V, _P), nxt
        if m == "nop":
            return tags, nxt
        if m in ("iload", "fload", "aload"):
            return tags + (_V,), nxt
        if m in ("lload", "dload"):
            return tags + (_V, _P), nxt
        if m in ("istore", "fstore", "astore"):
            return pop(1), nxt
        if m in ("lstore", "dstore"):
            return pop(2), nxt
        if m == "iinc":
            return tags, nxt
        if m in ("iaload", "faload", "aaload", "baload", "caload",
                 "saload"):
            return pop(2) + (_V,), nxt
        if m in ("laload", "daload"):
            return pop(2) + (_V, _P), nxt
        if m in ("iastore", "fastore", "aastore", "bastore", "castore",
                 "sastore"):
            return pop(3), nxt
        if m in ("lastore", "dastore"):
            return pop(4), nxt
        if m == "arraylength":
            return pop(1) + (_V,), nxt
        if m in _SHUFFLE:
            return _shuffle_tags(m, tags, i, self), nxt
        if m in _INT_BINOPS:
            return pop(2) + (_V,), nxt
        if m == "ineg":
            return tags, nxt
        if m in _LONG_BINOPS:
            if m in ("lshl", "lshr"):
                return pop(3) + (_V, _P), nxt
            return pop(4) + (_V, _P), nxt
        if m == "lneg":
            return tags, nxt
        if m == "lcmp":
            return pop(4) + (_V,), nxt
        if m in _FLOAT_BINOPS:
            if m[0] == "d":
                return pop(4) + (_V, _P), nxt
            return pop(2) + (_V,), nxt
        if m in ("fneg", "dneg"):
            return tags, nxt
        if m in ("fcmpl", "fcmpg"):
            return pop(2) + (_V,), nxt
        if m in ("dcmpl", "dcmpg"):
            return pop(4) + (_V,), nxt
        if m in _CONVERSIONS:
            widen_from, _func, widen_to = _CONVERSIONS[m]
            popped = pop(2 if widen_from else 1)
            return popped + ((_V, _P) if widen_to else (_V,)), nxt
        if m in _IF_ZERO or m in ("ifnull", "ifnonnull"):
            return pop(1), [i + 1, self._target(ops[0])]
        if m in _IF_ICMP or m in ("if_acmpeq", "if_acmpne"):
            return pop(2), [i + 1, self._target(ops[0])]
        if m == "goto":
            return tags, [self._target(ops[0])]
        if m == "return":
            return tags, []
        if m in ("ireturn", "freturn", "areturn", "lreturn", "dreturn"):
            return tags, []
        if m == "getfield":
            width = slot_width(ops[2])
            return pop(1) + ((_V, _P) if width == 2 else (_V,)), nxt
        if m == "putfield":
            width = slot_width(ops[2])
            return pop(1 + width), nxt
        if m in ("getstatic", "putstatic"):
            return tags, []          # traps at run time, like the stack engine
        if m in ("new",):
            return tags + (_V,), nxt
        if m in ("newarray", "anewarray"):
            return tags, nxt         # pops length, pushes array
        if m in ("invokevirtual", "invokespecial", "invokestatic"):
            parsed = parse_method_descriptor(ops[2])
            width = sum(slot_width(p) for p in parsed.params)
            if m != "invokestatic":
                width += 1
            popped = pop(width)
            if parsed.return_type == "V":
                return popped, nxt
            if parsed.return_slots == 2:
                return popped + (_V, _P), nxt
            return popped + (_V,), nxt
        # Unknown opcode: trap at run time, end the block.
        return tags, []

    # -- pass 2: closure emission --------------------------------------

    def lower(self) -> TACMethod:
        self._simulate()
        base = self.nlocals
        ret = base + self.max_depth
        tac = TACMethod(
            class_name=self.class_name,
            name=self.method.name,
            descriptor=self.method.descriptor,
            n_regs=ret + 1,
            ret_slot=ret,
            arg_slots=_arg_slots(self.method))
        n = len(self.code)
        tac.ops = [None] * n
        tac.texts = [""] * n
        tac.charges = [None] * n
        for i in range(n):
            if i not in self.entry_tags:
                tac.ops[i] = _unreachable_op(self.class_name,
                                             self.method.name, i)
                tac.texts[i] = "<unreachable>"
                continue
            fn, text = self._emit(i, self.code[i], self.entry_tags[i],
                                  base, ret)
            tac.ops[i] = fn
            tac.texts[i] = text
        self._aggregate_charges(tac)
        return tac

    # Emission helpers.  ``d`` is the entry stack depth; slot ``k`` of
    # the operand stack lives in register ``base + k``.

    def _emit(self, i: int, instr: Instr, tags: tuple, base: int,
              ret: int) -> tuple:
        m = instr.mnemonic
        ops = instr.operands
        d = len(tags)
        nxt = i + 1

        def reg(slot: int) -> str:
            return f"l{slot}" if slot < base else f"s{slot - base}"

        # --- constants ---
        if m in _PUSH1 or m in _PUSH2:
            value = _const_value(m, ops)
            dst = base + d

            def op(regs, interp, dst=dst, value=value, nxt=nxt):
                regs[dst] = value
                return nxt
            return op, f"{reg(dst)} = const {value!r}"
        if m == "nop":
            def op(regs, interp, nxt=nxt):
                return nxt
            return op, "nop"

        # --- locals ---
        if m in ("iload", "fload", "aload", "lload", "dload"):
            src, dst = ops[0], base + d

            def op(regs, interp, src=src, dst=dst, nxt=nxt):
                regs[dst] = regs[src]
                return nxt
            return op, f"{reg(dst)} = {reg(src)}"
        if m in ("istore", "fstore", "astore"):
            src, dst = base + d - 1, ops[0]

            def op(regs, interp, src=src, dst=dst, nxt=nxt):
                regs[dst] = regs[src]
                return nxt
            return op, f"{reg(dst)} = {reg(src)}"
        if m in ("lstore", "dstore"):
            src, dst = base + d - 2, ops[0]

            def op(regs, interp, src=src, dst=dst, nxt=nxt):
                regs[dst] = regs[src]
                return nxt
            return op, f"{reg(dst)} = {reg(src)}"
        if m == "iinc":
            slot, delta = ops

            def op(regs, interp, slot=slot, delta=delta, nxt=nxt):
                regs[slot] = _i32(regs[slot] + delta)
                return nxt
            return op, f"{reg(slot)} = iinc {reg(slot)}, {delta}"

        # --- arrays ---
        if m in ("iaload", "faload", "aaload", "baload", "caload",
                 "saload", "laload", "daload"):
            ia, ii = base + d - 2, base + d - 1

            def op(regs, interp, ia=ia, ii=ii, nxt=nxt):
                index = regs[ii]
                array = _expect_array(regs[ia])
                regs[ia] = array.values[array.check(index)]
                return nxt
            return op, f"{reg(ia)} = {m} {reg(ia)}[{reg(ii)}]"
        if m in ("iastore", "fastore", "aastore", "bastore", "sastore"):
            iv, ii, ia = base + d - 1, base + d - 2, base + d - 3

            def op(regs, interp, iv=iv, ii=ii, ia=ia, nxt=nxt):
                array = _expect_array(regs[ia])
                array.values[array.check(regs[ii])] = regs[iv]
                return nxt
            return op, f"{m} {reg(ia)}[{reg(ii)}] = {reg(iv)}"
        if m == "castore":
            iv, ii, ia = base + d - 1, base + d - 2, base + d - 3

            def op(regs, interp, iv=iv, ii=ii, ia=ia, nxt=nxt):
                array = _expect_array(regs[ia])
                array.values[array.check(regs[ii])] = regs[iv] & 0xFFFF
                return nxt
            return op, f"castore {reg(ia)}[{reg(ii)}] = {reg(iv)}"
        if m in ("lastore", "dastore"):
            iv, ii, ia = base + d - 2, base + d - 3, base + d - 4

            def op(regs, interp, iv=iv, ii=ii, ia=ia, nxt=nxt):
                array = _expect_array(regs[ia])
                array.values[array.check(regs[ii])] = regs[iv]
                return nxt
            return op, f"{m} {reg(ia)}[{reg(ii)}] = {reg(iv)}"
        if m == "arraylength":
            s = base + d - 1

            def op(regs, interp, s=s, nxt=nxt):
                target = regs[s]
                if isinstance(target, str):
                    regs[s] = len(target)
                else:
                    regs[s] = len(_expect_array(target))
                return nxt
            return op, f"{reg(s)} = arraylength {reg(s)}"

        # --- stack shuffles (register permutations) ---
        if m in _SHUFFLE:
            return self._emit_shuffle(m, tags, base, nxt, reg)

        # --- int arithmetic ---
        if m in _INT_BINOPS:
            f, ia, ib = _INT_BINOPS[m], base + d - 2, base + d - 1

            def op(regs, interp, f=f, ia=ia, ib=ib, nxt=nxt):
                regs[ia] = f(regs[ia], regs[ib])
                return nxt
            return op, f"{reg(ia)} = {m} {reg(ia)}, {reg(ib)}"
        if m == "ineg":
            s = base + d - 1

            def op(regs, interp, s=s, nxt=nxt):
                regs[s] = _i32(-regs[s])
                return nxt
            return op, f"{reg(s)} = ineg {reg(s)}"

        # --- long arithmetic ---
        if m in _LONG_BINOPS:
            f = _LONG_BINOPS[m]
            if m in ("lshl", "lshr"):
                ia, ib = base + d - 3, base + d - 1
            else:
                ia, ib = base + d - 4, base + d - 2

            def op(regs, interp, f=f, ia=ia, ib=ib, nxt=nxt):
                regs[ia] = f(regs[ia], regs[ib])
                return nxt
            return op, f"{reg(ia)} = {m} {reg(ia)}, {reg(ib)}"
        if m == "lneg":
            s = base + d - 2

            def op(regs, interp, s=s, nxt=nxt):
                regs[s] = _i64_neg(regs[s])
                return nxt
            return op, f"{reg(s)} = lneg {reg(s)}"
        if m == "lcmp":
            ia, ib = base + d - 4, base + d - 2

            def op(regs, interp, ia=ia, ib=ib, nxt=nxt):
                a, b = regs[ia], regs[ib]
                regs[ia] = (a > b) - (a < b)
                return nxt
            return op, f"{reg(ia)} = lcmp {reg(ia)}, {reg(ib)}"

        # --- float/double arithmetic ---
        if m in _FLOAT_BINOPS:
            f = _FLOAT_BINOPS[m]
            if m[0] == "d":
                ia, ib = base + d - 4, base + d - 2
            else:
                ia, ib = base + d - 2, base + d - 1

            def op(regs, interp, f=f, ia=ia, ib=ib, nxt=nxt):
                regs[ia] = f(regs[ia], regs[ib])
                return nxt
            return op, f"{reg(ia)} = {m} {reg(ia)}, {reg(ib)}"
        if m in ("fneg", "dneg"):
            s = base + d - (2 if m[0] == "d" else 1)

            def op(regs, interp, s=s, nxt=nxt):
                regs[s] = -regs[s]
                return nxt
            return op, f"{reg(s)} = {m} {reg(s)}"
        if m in ("fcmpl", "fcmpg", "dcmpl", "dcmpg"):
            if m[0] == "d":
                ia, ib = base + d - 4, base + d - 2
            else:
                ia, ib = base + d - 2, base + d - 1
            nan_result = -1 if m.endswith("l") else 1

            def op(regs, interp, ia=ia, ib=ib, nan_result=nan_result,
                   nxt=nxt):
                a, b = regs[ia], regs[ib]
                if math.isnan(a) or math.isnan(b):
                    regs[ia] = nan_result
                else:
                    regs[ia] = (a > b) - (a < b)
                return nxt
            return op, f"{reg(ia)} = {m} {reg(ia)}, {reg(ib)}"

        # --- conversions ---
        if m in _CONVERSIONS:
            widen_from, func, _widen_to = _CONVERSIONS[m]
            s = base + d - (2 if widen_from else 1)

            def op(regs, interp, s=s, func=func, nxt=nxt):
                regs[s] = func(regs[s])
                return nxt
            return op, f"{reg(s)} = {m} {reg(s)}"

        # --- branches ---
        if m in _IF_ZERO:
            f, s, target = _IF_ZERO[m], base + d - 1, self._target(ops[0])

            def op(regs, interp, f=f, s=s, target=target, nxt=nxt):
                return target if f(regs[s]) else nxt
            return op, f"{m} {reg(s)} -> {target}"
        if m in _IF_ICMP:
            f, target = _IF_ICMP[m], self._target(ops[0])
            ia, ib = base + d - 2, base + d - 1

            def op(regs, interp, f=f, ia=ia, ib=ib, target=target,
                   nxt=nxt):
                return target if f(regs[ia], regs[ib]) else nxt
            return op, f"{m} {reg(ia)}, {reg(ib)} -> {target}"
        if m in ("if_acmpeq", "if_acmpne"):
            same = m.endswith("eq")
            target = self._target(ops[0])
            ia, ib = base + d - 2, base + d - 1

            def op(regs, interp, ia=ia, ib=ib, target=target, nxt=nxt,
                   same=same):
                hit = regs[ia] is regs[ib]
                return target if hit == same else nxt
            return op, f"{m} {reg(ia)}, {reg(ib)} -> {target}"
        if m in ("ifnull", "ifnonnull"):
            want_null = m == "ifnull"
            s, target = base + d - 1, self._target(ops[0])

            def op(regs, interp, s=s, target=target, nxt=nxt,
                   want_null=want_null):
                hit = regs[s] is None
                return target if hit == want_null else nxt
            return op, f"{m} {reg(s)} -> {target}"
        if m == "goto":
            target = self._target(ops[0])

            def op(regs, interp, target=target):
                return target
            return op, f"goto -> {target}"

        # --- returns ---
        if m == "return":
            def op(regs, interp, ret=ret):
                regs[ret] = None
                return _RETURN
            return op, "return"
        if m in ("ireturn", "freturn", "areturn"):
            s = base + d - 1

            def op(regs, interp, s=s, ret=ret):
                regs[ret] = regs[s]
                return _RETURN
            return op, f"return {reg(s)}"
        if m in ("lreturn", "dreturn"):
            s = base + d - 2

            def op(regs, interp, s=s, ret=ret):
                regs[ret] = regs[s]
                return _RETURN
            return op, f"return {reg(s)}"

        # --- fields ---
        if m == "getfield":
            _owner, name, descriptor = ops
            s = base + d - 1

            def op(regs, interp, s=s, name=name, nxt=nxt):
                obj = regs[s]
                if not isinstance(obj, JObject):
                    raise JVMRuntimeError(
                        f"getfield {name} on non-object {obj!r}")
                if name not in obj.fields:
                    raise JVMRuntimeError(
                        f"object of {obj.class_name} has no field {name}")
                regs[s] = obj.fields[name]
                return nxt
            return op, f"{reg(s)} = getfield {reg(s)}.{name}"
        if m == "putfield":
            _owner, name, descriptor = ops
            width = slot_width(descriptor)
            iv = base + d - (2 if width == 2 else 1)
            io = iv - 1

            def op(regs, interp, iv=iv, io=io, name=name, nxt=nxt):
                obj = regs[io]
                if not isinstance(obj, JObject):
                    raise JVMRuntimeError(
                        f"putfield {name} on non-object {obj!r}")
                obj.fields[name] = regs[iv]
                return nxt
            return op, f"putfield {reg(io)}.{name} = {reg(iv)}"
        if m in ("getstatic", "putstatic"):
            def op(regs, interp):
                raise JVMRuntimeError("static fields are not supported")
            return op, m

        # --- allocation ---
        if m == "new":
            cls, dst = ops[0], base + d

            def op(regs, interp, cls=cls, dst=dst, nxt=nxt):
                regs[dst] = JObject(cls)
                return nxt
            return op, f"{reg(dst)} = new {cls}"
        if m == "newarray":
            elem = _NEWARRAY_ELEM[ATYPE_NAMES[ops[0]]]
            s = base + d - 1

            def op(regs, interp, elem=elem, s=s, nxt=nxt):
                regs[s] = JArray.new(elem, regs[s])
                return nxt
            return op, f"{reg(s)} = newarray {elem}[{reg(s)}]"
        if m == "anewarray":
            elem, s = f"L{ops[0]};", base + d - 1

            def op(regs, interp, elem=elem, s=s, nxt=nxt):
                regs[s] = JArray.new(elem, regs[s])
                return nxt
            return op, f"{reg(s)} = anewarray {elem}[{reg(s)}]"

        # --- invokes ---
        if m in ("invokevirtual", "invokespecial", "invokestatic"):
            return self._emit_invoke(m, ops, d, base, nxt, reg)

        def op(regs, interp, m=m):
            raise JVMRuntimeError(f"unimplemented opcode {m}")
        return op, f"<unimplemented {m}>"

    def _emit_shuffle(self, m: str, tags: tuple, base: int, nxt: int,
                      reg) -> tuple:
        """Stack-manipulation ops become register permutations.

        The JVM defines pop/dup/swap on raw slots, so the permutation is
        computed on slot indices and compiled to one tuple assignment.
        """
        d = len(tags)
        sources = _SHUFFLE[m]                    # new stack, as old slots
        depth_used = _SHUFFLE_DEPTH[m]
        dsts, srcs = [], []
        for pos, src_rel in enumerate(sources):
            dst_slot = d - depth_used + pos
            src_slot = d - depth_used + src_rel
            if dst_slot != src_slot:
                dsts.append(base + dst_slot)
                srcs.append(base + src_slot)
        if not dsts:
            def op(regs, interp, nxt=nxt):
                return nxt
            return op, m
        dsts_t, srcs_t = tuple(dsts), tuple(srcs)

        def op(regs, interp, dsts=dsts_t, srcs=srcs_t, nxt=nxt):
            values = tuple(regs[s] for s in srcs)
            for dst, value in zip(dsts, values):
                regs[dst] = value
            return nxt
        text = (", ".join(reg(x) for x in dsts_t) + " = "
                + ", ".join(reg(x) for x in srcs_t))
        return op, f"{m}: {text}"

    def _emit_invoke(self, m: str, ops: tuple, d: int, base: int,
                     nxt: int, reg) -> tuple:
        owner, name, descriptor = ops
        parsed = parse_method_descriptor(descriptor)
        width = sum(slot_width(p) for p in parsed.params)
        arg_slots = []
        slot = d - width
        for ptype in parsed.params:
            arg_slots.append(base + slot)
            slot += slot_width(ptype)
        if m != "invokestatic":
            recv = d - width - 1
            arg_slots.insert(0, base + recv)
            dst = base + recv
        else:
            dst = base + d - width
        arg_slots = tuple(arg_slots)
        has_result = parsed.return_type != "V"
        site: dict = {}

        def op(regs, interp, m=m, owner=owner, name=name,
               descriptor=descriptor, arg_slots=arg_slots, dst=dst,
               has_result=has_result, site=site, nxt=nxt):
            args = [regs[s] for s in arg_slots]
            result = interp._dispatch_call(m, owner, name, descriptor,
                                           args, site)
            if has_result:
                regs[dst] = result
            return nxt
        args_text = ", ".join(reg(s) for s in arg_slots)
        lhs = f"{reg(dst)} = " if has_result else ""
        return op, (f"{lhs}{m} {owner}.{name}{descriptor} "
                    f"({args_text})")

    # -- block cost aggregation ----------------------------------------

    def _aggregate_charges(self, tac: TACMethod) -> None:
        n = len(self.code)
        leaders = set()
        if 0 in self.entry_tags:
            leaders.add(0)
        for i in range(n):
            if i not in self.entry_tags:
                continue
            m = self.code[i].mnemonic
            if m == "goto" or m in _IF_ZERO or m in _IF_ICMP or m in (
                    "if_acmpeq", "if_acmpne", "ifnull", "ifnonnull"):
                if m != "goto":
                    if i + 1 < n:
                        leaders.add(i + 1)
                leaders.add(self._target(self.code[i].operands[0]))
            elif m.endswith("return") and i + 1 < n:
                leaders.add(i + 1)
        for leader in sorted(leaders):
            if leader not in self.entry_tags:
                continue
            count, total_ns = 0, 0.0
            groups: dict[str, int] = {}
            i = leader
            while i < n and (i == leader or i not in leaders):
                if i not in self.entry_tags:
                    break
                group = group_of(self.code[i].mnemonic)
                groups[group] = groups.get(group, 0) + 1
                total_ns += DEFAULT_COSTS_NS[group]
                count += 1
                m = self.code[i].mnemonic
                if (m == "goto" or m in _IF_ZERO or m in _IF_ICMP
                        or m in ("if_acmpeq", "if_acmpne", "ifnull",
                                 "ifnonnull") or m.endswith("return")):
                    break
                i += 1
            if count:
                tac.charges[leader] = (count, total_ns,
                                       tuple(sorted(groups.items())))


def _i64_neg(value: int) -> int:
    value = -value & 0xFFFFFFFFFFFFFFFF
    return value - 0x10000000000000000 if value > 2**63 - 1 else value


def _arg_slots(method: JMethod) -> tuple:
    parsed = method.parsed_descriptor
    slots = []
    slot = 0
    if not method.is_static:
        slots.append(slot)
        slot += 1
    for ptype in parsed.params:
        slots.append(slot)
        slot += slot_width(ptype)
    return tuple(slots)


def _const_value(m: str, ops: tuple):
    if m == "aconst_null":
        return None
    if m.startswith("iconst_"):
        return -1 if m.endswith("m1") else int(m[-1])
    if m.startswith("lconst_"):
        return int(m[-1])
    if m.startswith(("fconst_", "dconst_")):
        return float(m[-1])
    if m in ("bipush", "sipush", "ldc", "ldc2_w"):
        return ops[0]
    raise BytecodeError(f"not a constant op: {m}")


def _unreachable_op(class_name: str, method_name: str, i: int):
    def op(regs, interp):
        raise JVMRuntimeError(
            f"executed unreachable op {i} in {class_name}.{method_name}")
    return op


_PUSH1 = frozenset({"aconst_null", "iconst_m1", "iconst_0", "iconst_1",
                    "iconst_2", "iconst_3", "iconst_4", "iconst_5",
                    "fconst_0", "fconst_1", "fconst_2", "bipush",
                    "sipush", "ldc"})
_PUSH2 = frozenset({"lconst_0", "lconst_1", "dconst_0", "dconst_1",
                    "ldc2_w"})

#: new stack layout of each shuffle, as indices into the consumed slots
#: (0 = deepest consumed slot), plus how many top slots each consumes.
_SHUFFLE = {
    "pop": (),
    "pop2": (),
    "dup": (0, 0),
    "dup_x1": (1, 0, 1),
    "dup_x2": (2, 0, 1, 2),
    "dup2": (0, 1, 0, 1),
    "swap": (1, 0),
}
_SHUFFLE_DEPTH = {"pop": 1, "pop2": 2, "dup": 1, "dup_x1": 2,
                  "dup_x2": 3, "dup2": 2, "swap": 2}


def _shuffle_tags(m: str, tags: tuple, i: int, lowerer) -> tuple:
    depth = _SHUFFLE_DEPTH[m]
    if len(tags) < depth:
        raise BytecodeError(
            f"stack underflow at op {i} ({m}) in "
            f"{lowerer.class_name}.{lowerer.method.name}")
    taken = tags[len(tags) - depth:]
    kept = tags[:len(tags) - depth]
    return kept + tuple(taken[k] for k in _SHUFFLE[m])


def lower_method(class_name: str, method: JMethod) -> TACMethod:
    """Lower one method to TAC (pure function of the method's code)."""
    return _Lowerer(class_name, method).lower()


class TACInterpreter:
    """Drop-in replacement for :class:`~repro.jvm.interpreter.Interpreter`
    executing lowered TAC with a flat dispatch loop.

    Lowered methods are cached per interpreter, so repeated ``invoke``
    calls on the same registry pay the lowering cost once.
    """

    #: Construction counter (regression tests pin per-case setup cost).
    constructions = 0
    #: Lowering counter across all instances (same purpose).
    lowerings = 0

    def __init__(self, registry: ClassRegistry,
                 cost_model: Optional[OpCostTable] = None,
                 max_steps: int = 200_000_000):
        self.registry = registry
        self.cost = cost_model or OpCostTable()
        self.max_steps = max_steps
        self._steps = 0
        self._tac_cache: dict[tuple, TACMethod] = {}
        type(self).constructions += 1

    # -- public API (mirrors the stack engine) -------------------------

    def new_instance(self, class_name: str, **fields) -> JObject:
        """Allocate an instance and set fields directly (host-side
        setup)."""
        return JObject(class_name, dict(fields))

    def invoke(self, class_name: str, method_name: str, args: list,
               descriptor: Optional[str] = None):
        """Invoke a method; ``args`` includes the receiver for instance
        methods.  Returns the Java return value (or None for void)."""
        self._steps = 0
        jclass, method = self.registry.resolve_method(
            class_name, method_name,
            descriptor or self._only_descriptor(class_name, method_name))
        return self._run_tac(self._lower(jclass.name, method), args)

    def _only_descriptor(self, class_name: str, method_name: str) -> str:
        jclass = self.registry.lookup(class_name)
        return jclass.method(method_name).descriptor

    # -- lowering cache ------------------------------------------------

    def _lower(self, class_name: str, method: JMethod) -> TACMethod:
        key = (class_name, method.name, method.descriptor)
        tac = self._tac_cache.get(key)
        if tac is None:
            tac = lower_method(class_name, method)
            self._tac_cache[key] = tac
            type(self).lowerings += 1
        return tac

    # -- execution -----------------------------------------------------

    def _run_tac(self, tac: TACMethod, args: list):
        arg_slots = tac.arg_slots
        if len(args) != len(arg_slots):
            raise JVMRuntimeError(
                f"{tac.name} expects {len(arg_slots)} args, "
                f"got {len(args)}")
        regs = [None] * tac.n_regs
        for value, slot in zip(args, arg_slots):
            regs[slot] = value
        ops = tac.ops
        charges = tac.charges
        cost = self.cost
        counts = cost.counts
        # Block ns totals are pre-aggregated against the default cost
        # table; a calibrated model re-prices the block from its groups.
        default_table = cost.costs_ns == DEFAULT_COSTS_NS
        max_steps = self.max_steps
        pc = 0
        while pc >= 0:
            charge = charges[pc]
            if charge is not None:
                n, ns, groups = charge
                if not default_table:
                    ns = sum(cost.costs_ns[g] * c for g, c in groups)
                self._steps += n
                cost.instructions += n
                cost.total_ns += ns
                for group, c in groups:
                    counts[group] = counts.get(group, 0) + c
                if self._steps > max_steps:
                    raise JVMRuntimeError(
                        f"exceeded max_steps={max_steps} in "
                        f"{tac.class_name}.{tac.name}")
            pc = ops[pc](regs, self)
        return regs[tac.ret_slot]

    # -- call dispatch (builtins + registry) ---------------------------

    def _dispatch_call(self, m: str, owner: str, name: str,
                       descriptor: str, args: list, site: dict):
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
                        f"charAt({index}) out of range for length "
                        f"{len(text)}")
                return ord(text[index])
            if name == "length":
                return len(text)
            raise JVMRuntimeError(f"unsupported String.{name}")

        if m == "invokevirtual" and isinstance(args[0], JObject):
            owner = args[0].class_name  # dynamic dispatch
        tac = site.get(owner)
        if tac is None:
            jclass, method = self.registry.resolve_method(
                owner, name, descriptor)
            tac = self._lower(jclass.name, method)
            site[owner] = tac
        return self._run_tac(tac, args)


# ---------------------------------------------------------------------------
# Listings (golden snapshots)
# ---------------------------------------------------------------------------


def class_tac_text(jclass) -> str:
    """The TAC listing of every concrete method of one class."""
    parts = []
    for method in jclass.methods:
        if not method.code:
            continue
        parts.append(lower_method(jclass.name, method).listing())
    return "\n\n".join(parts)


def program_tac_text(classes) -> str:
    """Deterministic TAC listing of a compiled program's classes.

    Used by the golden snapshots under ``tests/jvm/golden_tac/``: any
    lowering change shows up as a reviewable diff.
    """
    parts = [class_tac_text(jclass)
             for jclass in sorted(classes, key=lambda c: c.name)]
    return "\n\n".join(p for p in parts if p) + "\n"
